"""End-to-end curve workflow: construct codes and design an interleaver with
the concat-ira CLI, then measure BER/FER curves for the single component code
and the concatenated system (random and designed interleavers) over an Eb/N0
sweep.

Emits one curve CSV per system plus a merged plot-ready table, all under
--workdir.  Runtime grows quickly with --min-block-errors and the highest
Eb/N0 points; the defaults stay in the waterfall region.
"""

import argparse
import sys
from pathlib import Path

import concat_ira as ci
from concat_ira.bench import SimConfig, StopRule, run_curve
from concat_ira.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="curves")
    parser.add_argument("--ebno", default="2.5,3.0,3.5,4.0,4.5")
    parser.add_argument("--single-ebno", default="2.5,3.25,4.0,4.75,5.5")
    parser.add_argument("--min-block-errors", type=int, default=100)
    parser.add_argument("--max-blocks", type=int, default=20_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    ebno = tuple(float(x) for x in args.ebno.split(","))
    single_ebno = tuple(float(x) for x in args.single_ebno.split(","))
    stop = StopRule(args.min_block_errors, args.max_blocks)
    perm_seed = 7

    steps = [
        ["construct", "--k", "128", "--n", "181", "--seed", str(seed), "--out", str(work / name)]
        for name, seed in (("outer", 1), ("inner", 2))
        if not (work / f"{name}.alist").exists()
    ]
    steps.append(
        ["design-interleaver", "--outer", str(work / "outer"),
         "--inner", str(work / "inner"), "--seed", str(perm_seed),
         "--out", str(work / "designed.perm")]
    )
    for rc in map(cli_main, steps):
        if rc:
            return rc
    ci.save_permutation(ci.random_permutation(128, 181, perm_seed), work / "random.perm")

    runs = [
        ("single", SimConfig(
            system="single", code=str(work / "outer"), max_iter=100,
            ebno_db=single_ebno, stop=stop, master_seed=args.seed,
            workers=args.workers, output=str(work / "single.csv"),
        )),
        ("concat-random", SimConfig(
            system="concat", outer_code=str(work / "outer"),
            inner_code=str(work / "inner"), interleaver=str(work / "random.perm"),
            schedule=ci.Schedule(10, 10), ebno_db=ebno, stop=stop,
            master_seed=args.seed, workers=args.workers,
            output=str(work / "concat-random.csv"),
        )),
        ("concat-designed", SimConfig(
            system="concat", outer_code=str(work / "outer"),
            inner_code=str(work / "inner"), interleaver=str(work / "designed.perm"),
            schedule=ci.Schedule(10, 10), ebno_db=ebno, stop=stop,
            master_seed=args.seed, workers=args.workers,
            output=str(work / "concat-designed.csv"),
        )),
    ]
    for name, config in runs:
        print(f"=== {name} ===", flush=True)
        for point in run_curve(config):
            print(
                f"  ebno {point.ebno_db:g}: ber {point.ber:.3e} fer {point.fer:.3e} "
                f"({point.blocks_run} blocks)",
                flush=True,
            )
    return cli_main(
        ["report", "--out", str(work / "merged.csv")]
        + [str(work / f"{name}.csv") for name, _ in runs]
    )


if __name__ == "__main__":
    sys.exit(main())
