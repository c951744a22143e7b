"""concat-ira benchmark: decoded blocks per second, set-up time and peak
memory on three curve workloads, and a separate traced run that splits the
time by layer.

Run from the repository root:

    python3 perfbench/run.py --workload concat-waterfall --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run calls ``run_curve`` on a fixed number of blocks,
repeatedly, until ``--seconds`` of calls and calibration have passed, and
sets the workload up several times spread over that phase.  Timings are
scaled by the host's speed, measured by a fixed calibration loop
(``hostspeed.py``) run after every call and set-up.  Repeat ``r`` draws its
trials from master seed ``1000 * seed + r``.  With ``--trace 1`` it replays repeats 0-2
with and without timing wrappers around the program's public entry points
(``layers.py``) and reports per-layer metrics.  Every curve row is checked;
see ``README.md`` for the gate, the metrics and the first reading.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS/OpenMP thread per process, so the two pool workers of
    # concat-floor do not oversubscribe a two-core host.  Set before numpy
    # is imported; pool workers inherit it.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

try:
    import concat_ira
except ImportError as exc:
    raise SystemExit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")
from concat_ira import bench, interleave, ira, stopping  # noqa: E402
from concat_ira.bench import SimConfig, StopRule  # noqa: E402
from concat_ira.concat import Schedule  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402

K, N = 128, 181
OUTER_SEED, INNER_SEED, PERM_SEED = 1, 2, 7
SCHEDULE = Schedule(outer_iters=10, inner_iters=10, freeze_converged=True)
SINGLE_MAX_ITER = 100
DEFAULT_SEED = 1
MIN_REPEATS, MAX_REPEATS = 3, 64
TRACED_REPEATS = 3
# Calibration time after each timed call or set-up, as a share of its time.
CALIBRATION_SHARE = 0.3
FIRST_CALIBRATION_S = 0.3  # before the first set-up, which no call precedes
REFERENCE = HERE / "reference.json"

LIMITS = [
    "CPUs are not pinned: the vCPUs share physical cores with other tenants, so pinning would not isolate the run",
    "the file cache cannot be dropped: code and permutation files are read warm",
    "neighbouring containers share the host and cannot be isolated",
    "hardware performance counters cannot be read",
]


@dataclass(frozen=True)
class Workload:
    name: str
    system: str  # "concat" | "single"
    designed: bool  # escalate the seed-7 interleaver during set-up
    ebno_db: float
    workers: int
    blocks: int  # blocks per timed run_curve call
    setups: int  # set-up samples per run; setup_s is their median


# Block counts make one run_curve call take 0.5 s (single) or 2-4 s (concat)
# on a 2-core Xeon VM, so a 20 s run holds six or more repeats, each followed
# by its calibration, and the fixed cost of a call (reload, pool start) is a
# few percent of it.  A set-up sample costs 0.6 s (single), 1.1 s
# (waterfall) or 5-7 s (floor), hence fewer samples on the slower ones.  A
# block is one N x N concatenated block or one N-bit codeword of the single
# system.
WORKLOADS = {
    w.name: w
    for w in (
        # Waterfall: FER about 0.31, 4.0 outer iterations per block; SPA
        # arithmetic is over 90% of trial time, no pool, no escalation.
        Workload("concat-waterfall", "concat", False, 3.0, 1, 24, 9),
        # Floor: designed interleaver, FER about 6e-3, nearly every block stops
        # after 2 outer iterations, so per-block fixed costs and pool dispatch
        # weigh more; set-up is mostly escalation.  The only pooled workload.
        Workload("concat-floor", "concat", True, 4.0, 2, 128, 4),
        # Single code with up to 100 SPA iterations at batch size one: per-call
        # NumPy overhead dominates the decoder.
        Workload("single-longiter", "single", False, 3.0, 1, 500, 11),
    )
}


def repeat_seed(seed: int, r: int) -> int:
    """Trial master seed of repeat r of a run started with --seed seed."""
    return 1000 * seed + r


def host_facts() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "limits": LIMITS,
    }


def set_up(wl: Workload, workdir: Path) -> SimConfig:
    """From the workload's seeds to a runnable system: build and write the
    codes, write the interleaver (escalated on concat-floor), and load the
    whole system back.  Calls go through module attributes so that a tracer
    sees them."""
    outer = ira.build_code(K, N, seed=OUTER_SEED)
    ira.save_code(outer, workdir / "outer")
    common = dict(ebno_db=(wl.ebno_db,), output=str(workdir / "curve.csv"), workers=wl.workers)
    if wl.system == "single":
        config = SimConfig(system="single", code=str(workdir / "outer"),
                           max_iter=SINGLE_MAX_ITER, **common)
    else:
        inner = ira.build_code(K, N, seed=INNER_SEED)
        ira.save_code(inner, workdir / "inner")
        perm = interleave.random_permutation(K, N, PERM_SEED)
        if wl.designed:
            hist_row = stopping.sensitivity_histogram(outer.graph)
            hist_col = stopping.sensitivity_histogram(inner.graph)
            perm = interleave.escalate_design(
                hist_row, hist_col, perm, np.random.default_rng(PERM_SEED)
            )
        interleave.save_permutation(perm, workdir / "pi.perm")
        config = SimConfig(
            system="concat", outer_code=str(workdir / "outer"),
            inner_code=str(workdir / "inner"), interleaver=str(workdir / "pi.perm"),
            schedule=SCHEDULE, **common,
        )
    bench.load_system(config)
    return config


def curve_config(base: SimConfig, blocks: int, master_seed: int, workers: int) -> SimConfig:
    return dataclasses.replace(
        base,
        stop=StopRule(min_block_errors=blocks + 1, max_blocks=blocks),
        master_seed=master_seed,
        workers=workers,
    )


def run_row(config: SimConfig) -> tuple[float, str]:
    """One timed run_curve call on a fresh output file: (wall seconds, CSV row)."""
    out = Path(config.output)
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    bench.run_curve(config)
    wall = perf_counter() - t0
    lines = out.read_text(encoding="utf-8").splitlines()
    if len(lines) != 2 or lines[0] != bench.CSV_HEADER:
        raise ValueError(f"curve file holds {len(lines)} lines, expected header and one row")
    return wall, lines[1]


def row_problems(row: str, config: SimConfig, blocks: int, reference: dict) -> list[str]:
    """Why a curve row is wrong; empty when it is right.  The row must agree
    with itself and the stop rule, and with the stored reference row when
    one exists for its master seed."""
    fields = row.split(",")
    if len(fields) != 9:
        return [f"row has {len(fields)} fields: {row}"]
    try:
        n_blocks, bit_errors, block_errors, seed = (int(fields[i]) for i in (1, 2, 3, 8))
        ber, fer = float(fields[4]), float(fields[5])
    except ValueError:
        return [f"row does not parse: {row}"]
    problems = []
    bits = K * K if config.system == "concat" else K
    if n_blocks != blocks:
        problems.append(f"{n_blocks} blocks, expected {blocks}")
    if n_blocks < 1 or ber != bit_errors / (n_blocks * bits) or fer != block_errors / n_blocks:
        problems.append(f"ber/fer disagree with the error counts: {row}")
    if seed != config.master_seed:
        problems.append(f"seed column {seed} != {config.master_seed}")
    expected = reference.get(str(config.master_seed))
    if expected is not None and row != expected:
        problems.append(f"row {row!r} != reference {expected!r}")
    return problems


def peak_rss_mb(pooled: bool) -> float:
    """Peak resident set of this process, plus that of its largest finished
    child when the timed calls ran a pool, in MiB; ru_maxrss is in KiB on
    Linux.  Read before the replay at the other worker count, the only
    children that count are the pool workers of the timed calls.  (A
    launcher that execs Python may leave children of its own, so the child
    term is left out when no pool ran.)"""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pooled else 0
    print(f"peak rss: self {own / 1024.0:.2f} MiB, largest child {children / 1024.0:.2f} MiB")
    return (own + children) / 1024.0


class Run:
    """The checked run_curve calls of one benchmark run and their outcomes."""

    def __init__(self, blocks: int, reference: dict):
        self.blocks = blocks
        self.reference = reference
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def fail(self, r: int, problems: list[str]) -> None:
        if problems:
            self.failed.add(r)
            self.problems.extend(f"repeat {r}: {p}" for p in problems)

    def attempt(self, r: int, config: SimConfig):
        """Run and check one call of repeat r; (wall, row), or None when it raised."""
        try:
            wall, row = run_row(config)
        except Exception as exc:  # a failed run is counted, not fatal
            self.fail(r, [f"{type(exc).__name__}: {exc}"])
            return None
        self.fail(r, row_problems(row, config, self.blocks, self.reference))
        return wall, row


def measure(wl: Workload, seed: int, seconds: float, run: Run, workdir: Path) -> dict:
    """Timed repeats at the workload's worker count, with the workload's
    set-up samples spread from the start to the end of them; then an untimed
    replay of repeat 0 at the other worker count, which must give the same
    row.

    The host's speed drifts over seconds to minutes.  Each timed call and
    set-up is followed by calibration units (hostspeed.py) for
    CALIBRATION_SHARE of its time.  blocks_per_s is all blocks over all call
    time, times the units' mean time over the run relative to the reference
    (the host factor).  Each set-up is scaled by the units run just before
    and just after it, and setup_s is the median of the scaled set-ups."""
    setup_times, setup_scaled = [], []
    setup_spent = 0.0  # set-ups and their calibration, outside the timed budget
    speed = hostspeed.HostSpeed()
    speed.sample(FIRST_CALIBRATION_S)

    def timed_set_up() -> SimConfig:
        nonlocal setup_spent
        before = speed.last_unit_s
        t0 = perf_counter()
        config = set_up(wl, workdir)
        took = perf_counter() - t0
        after = speed.sample(CALIBRATION_SHARE * took)
        setup_spent += perf_counter() - t0
        setup_times.append(took)
        setup_scaled.append(took * hostspeed.REFERENCE_UNIT_S / (0.5 * (before + after)))
        return config

    base = timed_set_up()
    blocks = run.blocks
    walls, rows = [], {}
    started = perf_counter()
    setup_spent = 0.0
    r = 0
    while True:
        timed = perf_counter() - started - setup_spent
        if r >= MAX_REPEATS or (r >= MIN_REPEATS and timed >= seconds):
            break
        # Set-up i of the first setups - 1 is due after i / (setups - 1) of
        # the timed phase; the last one follows the last repeat.
        if len(setup_times) < wl.setups - 1 and timed >= seconds * len(setup_times) / (wl.setups - 1):
            base = timed_set_up()
        config = curve_config(base, blocks, repeat_seed(seed, r), wl.workers)
        run.attempted += 1
        got = run.attempt(r, config)
        if got is not None:
            wall, rows[r] = got
            walls.append(wall)
            speed.sample(CALIBRATION_SHARE * wall)
            print(f"repeat {r}: {wall:.4f} s  {blocks / wall:.4f} blocks/s  {rows[r]}")
        r += 1
    while len(setup_times) < wl.setups:
        timed_set_up()
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times))
    factor = speed.factor()
    raw_rate = blocks * len(walls) / sum(walls) if walls else None
    raw_setup = statistics.median(setup_times)
    print("setup_s scaled " + " ".join(f"{t:.4f}" for t in setup_scaled))
    print(f"host factor {factor:.4f} over {speed.units} units; unscaled "
          f"blocks/s {raw_rate!r}, setup s {raw_setup!r}")
    metrics = {
        "blocks_per_s": raw_rate * factor if walls else None,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(wl.workers > 1),
    }
    other = 1 if wl.workers > 1 else 2
    replay = run.attempt(0, curve_config(base, blocks, repeat_seed(seed, 0), other))
    if replay is not None and 0 in rows and replay[1] != rows[0]:
        run.fail(0, [f"workers={other} row {replay[1]!r} != workers={wl.workers} row {rows[0]!r}"])
    return metrics


def measure_traced(wl: Workload, base: SimConfig, seed: int, run: Run, tracer: layers.Tracer) -> dict:
    """Replay repeats 0..TRACED_REPEATS-1 at workers=1, untraced and traced in
    alternating order, then repeat 0 untraced at workers=2, and time the fixed
    cost of a run_curve call."""
    per_call, ratios, walls_w1 = [], [], {}
    for r in range(TRACED_REPEATS):
        config = curve_config(base, run.blocks, repeat_seed(seed, r), 1)
        run.attempted += 1
        got = {}
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    got[traced] = run.attempt(r, config)
                spans = tracer.take()
            else:
                got[traced] = run.attempt(r, config)
        if got[False] is None or got[True] is None:
            continue
        if got[True][1] != got[False][1]:
            run.fail(r, [f"traced row {got[True][1]!r} != untraced row {got[False][1]!r}"])
        per_call.append(layers.curve_layers(spans))
        walls_w1[r] = got[False][0]
        ratios.append(got[True][0] / got[False][0])
        print(f"repeat {r}: untraced {got[False][0]:.4f} s  traced {got[True][0]:.4f} s  {got[True][1]}")
    if not per_call:
        return {}
    metrics = layers.reduce_curves(per_call)
    print(f"traced run_curve wall: {sum(c['wall_s'] for c in per_call):.4f} s in {len(per_call)} calls")
    metrics["bench.trace_overhead"] = statistics.median(ratios) - 1.0
    pooled = run.attempt(0, curve_config(base, run.blocks, repeat_seed(seed, 0), 2))
    if pooled is not None and 0 in walls_w1:
        metrics["bench.pool_efficiency"] = walls_w1[0] / (2.0 * pooled[0])
    # A one-block call at the workload's worker count times the fixed cost of
    # a call (load_system, pool start and stop, the CSV write) plus one block.
    fixed = curve_config(base, 1, repeat_seed(seed, 0), wl.workers)
    metrics["bench.call_fixed_s"] = statistics.median(run_row(fixed)[0] for _ in range(3))
    return metrics


def load_reference(wl: Workload, seed: int) -> dict:
    """Reference rows (keyed by master seed) that apply to this run."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["rows"].get(wl.name, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base trial master seed (default %(default)s, which has reference rows)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not Path(concat_ira.__file__).resolve().is_relative_to(ROOT):
        print(f"error: concat_ira imported from outside {ROOT}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("host " + json.dumps(host_facts()))
    print(f"workload {wl.name}  seed {args.seed}  blocks/repeat {wl.blocks}  trace {args.trace}")

    run = Run(wl.blocks, load_reference(wl, args.seed))
    work_parent = ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_parent))
    try:
        if args.trace:
            tracer = layers.Tracer()
            with tracer.installed():
                base = set_up(wl, workdir)
            metrics = layers.setup_layers(tracer.take())
            metrics.update(measure_traced(wl, base, args.seed, run, tracer))
            names = [m["name"] for m in spec["per_layer"]]
        else:
            metrics = measure(wl, args.seed, args.seconds, run, workdir)
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"check failed: {problem}")
    missing = [name for name in names if metrics.get(name) is None]
    if missing:
        print(f"error: no successful repeat to measure {missing}", file=sys.stderr)
        return 1
    for name in names:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(f"failed_frac = {len(run.failed) / run.attempted!r} ratio "
          f"({len(run.failed)} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
