"""Batch command-line interface.

Subcommands: construct, analyze, design-interleaver, simulate, report.
Every command reads and writes only the paths named in its arguments, exits
0 on success, and reports failures as a single "error: ..." line on stderr
with a nonzero status.  Outputs are byte-deterministic given their inputs
and seeds; wall time, which is not, goes to stderr only (simulate prints
one line per point it measures).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import FORMAT_VERSIONS, __version__
from .bench import CSV_HEADER, ConfigError, CurvePoint, SimConfig, read_curve, run_curve
from .interleave import (
    count_bad_mappings,
    escalate_design,
    random_permutation,
    save_permutation,
)
from .ira import build_code, load_code, save_code
from .stopping import save_histogram, sensitivity_histogram, select_sensitive


def _version_string() -> str:
    formats = ", ".join(f"{k} {v}" for k, v in FORMAT_VERSIONS.items())
    return f"concat-ira {__version__} (formats: {formats})"


def _cmd_construct(args) -> int:
    code = build_code(args.k, args.n, seed=args.seed)
    alist_path, sidecar_path = save_code(code, args.out)
    print(f"wrote {alist_path} and {sidecar_path}")
    return 0


def _cmd_analyze(args) -> int:
    code = load_code(args.code)
    counts = sensitivity_histogram(code.H)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path, report_path = Path(f"{out}.sensitivity.csv"), Path(f"{out}.report.txt")
    save_histogram(counts, csv_path)

    top = select_sensitive(counts, min(10, code.N))
    lines = [
        f"stopping-set sensitivity report for [{code.N},{code.K}] code seed {code.seed}",
        f"detection runs: {len(counts)} (one per start variable)",
        f"count range: {counts.min()}..{counts.max()} (bound {len(counts)})",
        f"mean count: systematic {counts[:code.K].mean():.2f}, parity {counts[code.K:].mean():.2f}",
        "top sensitive variables (index:count): "
        + " ".join(f"{i}:{counts[i]}" for i in top),
    ]
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {csv_path} and {report_path}")
    return 0


def _cmd_design_interleaver(args) -> int:
    outer = load_code(args.outer)
    inner = load_code(args.inner)
    if (outer.N, outer.K) != (inner.N, inner.K):
        raise ConfigError(
            f"outer code is [{outer.N},{outer.K}] but inner code is "
            f"[{inner.N},{inner.K}]; component codes must share (N, K)"
        )
    pi0 = random_permutation(outer.K, outer.N, args.seed)
    hist_row = sensitivity_histogram(outer.H)
    hist_col = sensitivity_histogram(inner.H)
    designed = escalate_design(hist_row, hist_col, pi0, np.random.default_rng(args.seed))
    check = count_bad_mappings(designed, designed.sets)
    if check.count:
        raise ConfigError(f"designed permutation still has {check.count} bad mappings")

    out = Path(args.out)
    save_permutation(designed, out)
    sets_path = Path(f"{out}.sets")
    sets_path.write_text(
        "row_code_nodes " + " ".join(str(i) for i in sorted(designed.sets.row_code_nodes))
        + "\ncol_code_nodes " + " ".join(str(j) for j in sorted(designed.sets.col_code_nodes))
        + "\n",
        encoding="utf-8",
    )
    print(
        f"wrote {out} (escalation level t={designed.design_t}, "
        f"{designed.repairs} repairs) and {sets_path}"
    )
    return 0


def _print_point_time(p: CurvePoint) -> None:
    print(f"ebno {p.ebno_db:g}: {p.blocks_run} blocks in {p.wall_seconds:.3f} s, "
          f"{p.blocks_run / p.wall_seconds:.1f} blocks/s, {p.block_errors} block errors, "
          f"{p.undetected} undetected", file=sys.stderr, flush=True)


def _cmd_simulate(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {args.config!r} not found")
    config = SimConfig.from_json(path.read_text(encoding="utf-8"))
    points = run_curve(config, on_point=_print_point_time)
    for p in points:
        # a point with no block errors has no point estimate, only its exact
        # one-sided 95% upper bound: the fer at which n blocks all decode
        # with probability 0.05
        rates = (f"ber {p.ber:.3e}, fer {p.fer:.3e}" if p.block_errors else
                 f"no block errors, fer < {1 - 0.05 ** (1 / p.blocks_run):.3e} (one-sided 95%)")
        print(f"ebno {p.ebno_db:g}: {p.blocks_run} blocks, {rates}")
    print(f"curve written to {config.output}")
    return 0


def _cmd_report(args) -> int:
    paths = [Path(p) for p in args.inputs]
    for i, path in enumerate(paths):
        if set(path.stem) & set(',"\r\n'):  # the label is written as an unquoted CSV field
            raise ConfigError(f"input {str(path)!r} has a label with a comma, quote or line break")
        for earlier in paths[:i]:
            if earlier.stem == path.stem:
                raise ConfigError(f"inputs {earlier} and {path} share the label {path.stem!r}")
    out_lines = ["label," + CSV_HEADER]
    for path in paths:
        out_lines.extend(f"{path.stem},{row}" for _, row, _, _ in read_curve(path))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(out_lines) - 1} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concat-ira",
        description="Construct, analyze, and simulate serially concatenated IRA codes.",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a default-construction code and write its files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix for .alist/.sidecar")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="sensitivity histogram and stopping-set report")
    p.add_argument("--code", required=True, help="code file prefix")
    p.add_argument("--out", required=True, help="output prefix for .sensitivity.csv/.report.txt")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("design-interleaver", help="constraint-repair a seeded random permutation")
    p.add_argument("--outer", required=True, help="row code file prefix")
    p.add_argument("--inner", required=True, help="column code file prefix")
    p.add_argument("--seed", type=int, default=0, help="seeds the permutation and its repair")
    p.add_argument("--out", required=True, help="permutation file path")
    p.set_defaults(func=_cmd_design_interleaver)

    p = sub.add_parser("simulate", help="run a BER/FER curve from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="merge curve CSVs into one labeled table")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
