"""Two-arm FER comparison: designed interleaver vs its random starting point.

Builds (or loads) the two [181,128] component codes, pilot-selects a random
permutation, repairs it against the escalated sensitive sets, then measures
FER for both permutations at one Eb/N0 with a shared trial-stream seed and
reports the one-sided two-proportion test.  Writes both curve points to CSV
files next to the chosen output prefix.

This is the long-running directional acceptance experiment; with default
settings it decodes a few hundred thousand component codewords.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

import concat_ira as ci
from concat_ira.bench import (
    CSV_HEADER,
    ConcatSystem,
    StopRule,
    format_row,
    measure_point,
    pilot_select,
    two_proportion_z,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ebno", type=float, default=4.0)
    parser.add_argument("--min-block-errors", type=int, default=100)
    parser.add_argument("--max-blocks", type=int, default=60_000)
    parser.add_argument("--outer-seed", type=int, default=1)
    parser.add_argument("--inner-seed", type=int, default=2)
    parser.add_argument("--pilot-candidates", type=int, default=8)
    parser.add_argument("--pilot-blocks", type=int, default=24)
    parser.add_argument("--pilot-seed", type=int, default=800)
    parser.add_argument("--trial-seed", type=int, default=801)
    parser.add_argument("--schedule", default="10x10")
    parser.add_argument("--out-prefix", default="directional")
    args = parser.parse_args(argv)

    outer_it, inner_it = (int(x) for x in args.schedule.lower().split("x"))
    sched = ci.Schedule(outer_it, inner_it)

    print(f"building [181,128] component codes (seeds {args.outer_seed}, {args.inner_seed})")
    outer = ci.build_code(128, 181, seed=args.outer_seed)
    inner = ci.build_code(128, 181, seed=args.inner_seed)

    print(f"pilot: {args.pilot_candidates} random permutations x {args.pilot_blocks} blocks")
    pi0, scores = pilot_select(
        outer, inner, sched, args.pilot_candidates,
        args.ebno, args.pilot_blocks, args.pilot_seed,
    )
    print("  pilot block errors:", " ".join(f"seed{s}:{b}" for b, _, s in scores))
    print(f"  starting point: random permutation seed {pi0.seed}")

    hist_row = ci.sensitivity_histogram(outer.graph)
    hist_col = ci.sensitivity_histogram(inner.graph)
    designed = ci.escalate_design(hist_row, hist_col, pi0, np.random.default_rng(80))
    print(
        f"designed: escalation level t={designed.design_t}, {designed.repairs} repairs, "
        f"{len(designed.sets.row_code_nodes)} row / {len(designed.sets.col_code_nodes)} column sensitive nodes"
    )

    stop = StopRule(args.min_block_errors, args.max_blocks)
    points = {}
    for name, perm in (("random", pi0), ("designed", designed)):
        system = ConcatSystem(ci.ConcatCode(outer, inner, perm), sched)
        t0 = time.time()
        point = measure_point(system, args.ebno, stop, master_seed=args.trial_seed)
        points[name] = point
        print(
            f"{name}: fer {point.fer:.5f} ber {point.ber:.3e} "
            f"({point.block_errors}/{point.blocks_run} blocks, {time.time()-t0:.0f}s)",
            flush=True,
        )
        out = Path(f"{args.out_prefix}_{name}.csv")
        out.write_text(
            CSV_HEADER + "\n" + format_row(point, args.trial_seed) + "\n",
            encoding="utf-8",
        )

    rand, des = points["random"], points["designed"]
    z, p_value = two_proportion_z(
        des.block_errors, des.blocks_run, rand.block_errors, rand.blocks_run
    )
    ratio = rand.fer / des.fer if des.fer else float("inf")
    print(f"FER ratio random/designed: {ratio:.2f}")
    print(f"one-sided z = {z:.2f}, p = {p_value:.5f}")
    ok = des.fer <= rand.fer and p_value < 0.05
    print("designed <= random at 95% confidence:", "YES" if ok else "NO")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
