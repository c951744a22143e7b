"""Write reference.json: the curve row of every repeat of a default-seed run,
measured at workers=1, for each workload.  Run from the repository root:

    python3 perfbench/make_reference.py

Regenerate only when a workload's definition changes (codes, interleaver,
Eb/N0, blocks per repeat, repeat seeds).  A program change that alters a
row is a correctness failure for the benchmark to report, not a reason to
regenerate.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    rows: dict[str, dict[str, str]] = {}
    work_parent = run.ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    for wl in run.WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{wl.name}-", dir=work_parent))
        try:
            base = run.set_up(wl, workdir)
            rows[wl.name] = {}
            for r in range(run.MAX_REPEATS):
                seed = run.repeat_seed(run.DEFAULT_SEED, r)
                _, row = run.run_row(run.curve_config(base, wl.blocks, seed, 1))
                rows[wl.name][str(seed)] = row
                print(wl.name, row, flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    note = (
        "Curve rows of repeats 0..MAX_REPEATS-1 of a --seed DEFAULT_SEED run at "
        "workers=1, keyed by trial master seed; written by make_reference.py."
    )
    run.REFERENCE.write_text(json.dumps({"note": note, "rows": rows}, indent=1) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
