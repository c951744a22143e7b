"""Two-arm FER comparison: designed interleaver vs its random starting point.

Runs `concat-ira construct` twice and `design-interleaver` (seeded by --perm-seed),
measures both arms at one Eb/N0 on shared trial streams as `simulate` does, and
reports the one-sided two-proportion test: exit 0 if the designed arm wins at 95%
confidence, 1 if not, 2 if a step fails.  Files go next to --out-prefix.
"""

import argparse
import sys
from pathlib import Path

import concat_ira as ci
from concat_ira.bench import SimConfig, StopRule, run_curve, two_proportion_z
from concat_ira.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ebno", type=float, default=4.0)
    parser.add_argument("--min-block-errors", type=int, default=100)
    parser.add_argument("--max-blocks", type=int, default=60_000)
    parser.add_argument("--outer-seed", type=int, default=1)
    parser.add_argument("--inner-seed", type=int, default=2)
    parser.add_argument("--perm-seed", type=int, default=800)
    parser.add_argument("--trial-seed", type=int, default=801)
    parser.add_argument("--out-prefix", default="directional")
    args = parser.parse_args(argv)
    prefix = args.out_prefix

    try:  # refuse a bad stop rule or Eb/N0 before any work
        configs = {arm: SimConfig(
            system="concat", outer_code=f"{prefix}_outer", inner_code=f"{prefix}_inner",
            interleaver=f"{prefix}_{arm}.perm", ebno_db=(args.ebno,), master_seed=args.trial_seed,
            stop=StopRule(args.min_block_errors, args.max_blocks), output=f"{prefix}_{arm}.csv",
        ) for arm in ("random", "designed")}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    steps = [["construct", "--k", "128", "--n", "181", "--seed", str(seed), "--out", f"{prefix}_{name}"]
             for name, seed in (("outer", args.outer_seed), ("inner", args.inner_seed))]
    steps.append(["design-interleaver", "--outer", f"{prefix}_outer", "--inner", f"{prefix}_inner",
                  "--seed", str(args.perm_seed), "--out", f"{prefix}_designed.perm"])
    if any(cli_main(step) for step in steps):
        return 2
    ci.save_permutation(ci.random_permutation(128, 181, args.perm_seed), f"{prefix}_random.perm")

    points = {}
    for arm, config in configs.items():
        Path(config.output).unlink(missing_ok=True)  # never resume a row of another stop rule
        points[arm] = point = run_curve(config)[0]
        print(f"{arm}: fer {point.fer:.5f} ber {point.ber:.3e} "
              f"({point.block_errors}/{point.blocks_run} blocks, {point.wall_seconds:.0f}s)", flush=True)

    rand, des = points["random"], points["designed"]
    z, p_value = two_proportion_z(des.block_errors, des.blocks_run, rand.block_errors, rand.blocks_run)
    print(f"FER ratio random/designed: {rand.fer / des.fer if des.fer else float('inf'):.2f}")
    print(f"one-sided z = {z:.2f}, p = {p_value:.5f}")
    ok = des.fer <= rand.fer and p_value < 0.05
    print("designed <= random at 95% confidence:", "YES" if ok else "NO")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
