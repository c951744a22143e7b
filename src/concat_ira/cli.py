"""Batch command-line interface.

Subcommands: construct, analyze, design-interleaver, simulate, report.
Every command reads and writes only the paths named in its arguments, exits
0 on success, and reports failures as a single "error: ..." line on stderr
with a nonzero status.  Outputs are byte-deterministic given their inputs
and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import FORMAT_VERSIONS, __version__
from .bench import CSV_HEADER, ConfigError, SimConfig, pilot_select, read_curve, run_curve
from .concat import Schedule
from .interleave import (
    count_bad_mappings,
    escalate_design,
    random_permutation,
    save_permutation,
)
from .ira import AceParams, build_code, load_code, save_code
from .stopping import save_histogram, sensitivity_histogram, select_sensitive

CONFIG_DIR_ENV = "CONCAT_IRA_CONFIG_DIR"


def _version_string() -> str:
    formats = ", ".join(f"{k} {v}" for k, v in FORMAT_VERSIONS.items())
    return f"concat-ira {__version__} (formats: {formats})"


def _parse_schedule(text: str) -> Schedule:
    try:
        outer, inner = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"schedule must look like '10x10', got {text!r}") from exc
    return Schedule(outer_iters=outer, inner_iters=inner)


def _cmd_construct(args) -> int:
    ace = AceParams(d_ace=args.d_ace, eta=args.eta, max_resample=args.max_resample)
    code = build_code(
        args.k, args.n, check_degree=args.check_degree, ace=ace,
        seed=args.seed, max_restarts=args.max_restarts,
        screen_low_weight=not args.no_distance_screen,
    )
    alist_path, sidecar_path = save_code(code, args.out)
    print(f"wrote {alist_path} and {sidecar_path}")
    return 0


def _cmd_analyze(args) -> int:
    code = load_code(args.code)
    counts = sensitivity_histogram(code.H)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".sensitivity.csv")
    report_path = out.with_suffix(".report.txt")
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
    schedule = _parse_schedule(args.schedule)
    outer = load_code(args.outer)
    inner = load_code(args.inner)
    k, n = outer.K, outer.N

    if args.candidates == 1:
        pi0 = random_permutation(k, n, args.seed)
    else:
        pi0, scores = pilot_select(
            outer, inner, schedule, args.candidates,
            args.pilot_ebno, args.pilot_blocks, args.seed,
        )
        print(
            "pilot block errors per candidate: "
            + " ".join(f"seed{seed}:{blk}" for blk, _, seed in scores)
        )

    hist_row = sensitivity_histogram(outer.H)
    hist_col = sensitivity_histogram(inner.H)
    rng = np.random.default_rng(args.seed)
    designed = escalate_design(hist_row, hist_col, pi0, rng)

    out = Path(args.out)
    save_permutation(designed, out)
    sets_path = out.with_suffix(out.suffix + ".sets")
    if designed.sets is None:
        sets_path.write_text("row_code_nodes\ncol_code_nodes\n", encoding="utf-8")
    else:
        sets_path.write_text(
            "row_code_nodes " + " ".join(str(i) for i in sorted(designed.sets.row_code_nodes))
            + "\ncol_code_nodes " + " ".join(str(j) for j in sorted(designed.sets.col_code_nodes))
            + "\n",
            encoding="utf-8",
        )
        check = count_bad_mappings(designed, designed.sets)
        if check.count:
            raise ConfigError(f"designed permutation still has {check.count} bad mappings")
    print(
        f"wrote {out} (escalation level t={designed.design_t}, "
        f"{designed.repairs} repairs) and {sets_path}"
    )
    return 0


def _resolve_config_path(raw: str) -> Path:
    path = Path(raw)
    if path.exists():
        return path
    fallback_dir = os.environ.get(CONFIG_DIR_ENV)
    if fallback_dir and not path.is_absolute():
        fallback = Path(fallback_dir) / path
        if fallback.exists():
            return fallback
    raise ConfigError(f"config file {raw!r} not found")


def _cmd_simulate(args) -> int:
    path = _resolve_config_path(args.config)
    config = SimConfig.from_json(path.read_text(encoding="utf-8"))
    overrides = {}
    if args.ebno is not None:
        overrides["ebno_db"] = tuple(float(x) for x in args.ebno.split(","))
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["output"] = args.out
    # an explicit 0 must reach StopRule, which refuses it
    stop = {}
    if args.min_block_errors is not None:
        stop["min_block_errors"] = args.min_block_errors
    if args.max_blocks is not None:
        stop["max_blocks"] = args.max_blocks
    if stop:
        overrides["stop"] = replace(config.stop, **stop)
    if overrides:
        config = replace(config, **overrides)
    points = run_curve(config)
    for p in points:
        print(
            f"ebno {p.ebno_db:g}: {p.blocks_run} blocks, "
            f"ber {p.ber:.3e}, fer {p.fer:.3e}"
        )
    print(f"curve written to {config.output}")
    return 0


def _cmd_report(args) -> int:
    paths = [Path(p) for p in args.inputs]
    for i, path in enumerate(paths):
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

    p = sub.add_parser("construct", help="build a component code and write its files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-degree", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-ace", type=int, default=AceParams().d_ace)
    p.add_argument("--eta", type=int, default=AceParams().eta)
    p.add_argument("--max-resample", type=int, default=AceParams().max_resample)
    p.add_argument("--max-restarts", type=int, default=256)
    p.add_argument(
        "--no-distance-screen", action="store_true",
        help="skip the weight<=4 codeword screen (needed for tiny dense codes)",
    )
    p.add_argument("--out", required=True, help="output prefix for .alist/.sidecar")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="sensitivity histogram and stopping-set report")
    p.add_argument("--code", required=True, help="code file prefix")
    p.add_argument("--out", required=True, help="output prefix for .sensitivity.csv/.report.txt")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("design-interleaver", help="pilot-select and constraint-repair a permutation")
    p.add_argument("--outer", required=True, help="row code file prefix")
    p.add_argument("--inner", required=True, help="column code file prefix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--candidates", type=int, default=16, help="random permutations to pilot; 1 skips it")
    p.add_argument("--pilot-blocks", type=int, default=12)
    p.add_argument("--pilot-ebno", type=float, default=3.0)
    p.add_argument("--schedule", default="10x10", help="pilot schedule, outerxinner")
    p.add_argument("--out", required=True, help="permutation file path")
    p.set_defaults(func=_cmd_design_interleaver)

    p = sub.add_parser("simulate", help="run a BER/FER curve from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--ebno", help="override: comma-separated Eb/N0 dB list")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="override output CSV path")
    p.add_argument("--min-block-errors", type=int)
    p.add_argument("--max-blocks", type=int)
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
