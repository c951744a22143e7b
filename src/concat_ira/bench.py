"""Monte Carlo BER/FER measurement with per-trial streams and resumable CSV.

Every trial draws its source bits and noise from a stream derived from
(master_seed, trial_index), and the stop rule is evaluated by scanning
results in trial order, so a curve point is a pure function of its
configuration no matter how many workers ran it or how they were scheduled.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import spa
from .channel import RngStream, awgn, channel_llr, ebno_sigma, gaussian_q, modulate
from .concat import ConcatCode, Schedule, concat_decode, concat_encode
from .interleave import BlockPermutation, load_permutation, random_permutation
# perfbench/layers.py patches bench.encode, so the name stays importable here
from .ira import IraCode, encode, encode_batch, load_code  # noqa: F401

__all__ = [
    "ConfigError",
    "StopRule",
    "CurvePoint",
    "SimConfig",
    "CSV_HEADER",
    "ConcatSystem",
    "SingleSystem",
    "load_system",
    "measure_point",
    "format_row",
    "run_curve",
    "pilot_select",
    "two_proportion_z",
]

CSV_HEADER = (
    "ebno_db,blocks,bit_errors,block_errors,ber,fer,"
    "mean_outer_iters,mean_component_iters,seed"
)
NOISELESS_LLR = 20.0


class ConfigError(ValueError):
    """A simulation configuration that cannot be run as given."""


@dataclass(frozen=True)
class StopRule:
    min_block_errors: int = 100
    max_blocks: int = 1_000_000

    def __post_init__(self):
        if self.min_block_errors < 1 or self.max_blocks < 1:
            raise ConfigError("stop rule bounds must be >= 1")


@dataclass(frozen=True)
class CurvePoint:
    ebno_db: float
    blocks_run: int
    bit_errors: int
    block_errors: int
    ber: float
    fer: float
    mean_outer_iters: float
    mean_component_iters: float
    wall_seconds: float


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulate run needs; file paths are code/permutation
    prefixes as written by the construct and design-interleaver commands."""

    system: str  # "concat" | "single"
    ebno_db: tuple[float, ...]
    output: str
    master_seed: int = 0
    workers: int = 1
    stop: StopRule = field(default_factory=StopRule)
    noiseless: bool = False
    outer_code: str | None = None
    inner_code: str | None = None
    interleaver: str | None = None
    schedule: Schedule = field(default_factory=Schedule)
    code: str | None = None
    max_iter: int = 100

    def __post_init__(self):
        if self.system not in ("concat", "single"):
            raise ConfigError(f"unknown system {self.system!r}")
        if not self.ebno_db:
            raise ConfigError("ebno_db list must be nonempty")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        object.__setattr__(self, "ebno_db", tuple(float(e) for e in self.ebno_db))
        if not all(map(math.isfinite, self.ebno_db)):
            raise ConfigError(f"ebno_db must be finite, not {self.ebno_db!r}")

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "system", "ebno_db", "output", "master_seed", "workers",
            "min_block_errors", "max_blocks", "noiseless", "outer_code",
            "inner_code", "interleaver", "schedule", "code", "max_iter",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        sched = raw.get("schedule", {})
        if not isinstance(sched, dict):
            raise ConfigError("schedule must be an object")
        ebno = _json_value(raw, "ebno_db", [], list)
        if any(isinstance(e, bool) or not isinstance(e, (int, float)) for e in ebno):
            raise ConfigError(f"ebno_db must be a list of numbers, not {ebno!r}")
        try:
            return cls(
                system=raw.get("system", "concat"),
                ebno_db=tuple(ebno),
                output=_json_value(raw, "output", "curve.csv", str),
                master_seed=_json_value(raw, "master_seed", 0, int),
                workers=_json_value(raw, "workers", 1, int),
                stop=StopRule(
                    min_block_errors=_json_value(raw, "min_block_errors", 100, int),
                    max_blocks=_json_value(raw, "max_blocks", 1_000_000, int),
                ),
                noiseless=_json_value(raw, "noiseless", False, bool),
                outer_code=_json_value(raw, "outer_code", None, str),
                inner_code=_json_value(raw, "inner_code", None, str),
                interleaver=_json_value(raw, "interleaver", None, str),
                schedule=Schedule(
                    outer_iters=_json_value(sched, "outer_iters", 10, int),
                    inner_iters=_json_value(sched, "inner_iters", 10, int),
                    freeze_converged=_json_value(sched, "freeze_converged", True, bool),
                ),
                code=_json_value(raw, "code", None, str),
                max_iter=_json_value(raw, "max_iter", 100, int),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


_JSON_TYPES = {int: "an integer", str: "a string", bool: "true or false", list: "a list of numbers"}


def _json_value(raw: dict, key: str, default, kind: type):
    """raw[key], or default when absent, refused unless it has the JSON type
    kind: int() would read 1.5 as 1, bool() the string "false" as True, and a
    JSON true is no integer."""
    if key not in raw:
        return default
    value = raw[key]
    if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
        raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


# --- runnable systems ----------------------------------------------------------
#
# A system runs trials lo..hi-1 at one noise level and returns, per trial,
# (bit errors, block error, outer iterations, component decodes, component
# iterations).  Each trial draws its source bits and noise from its own
# stream.  trials_per_task is the work of one task, in-process or on a pool.


def _received(tx: np.ndarray, sigma: float, gen: np.random.Generator, noiseless: bool) -> np.ndarray:
    """Channel LLRs of a transmitted bit array."""
    symbols = modulate(tx)
    if noiseless:
        return NOISELESS_LLR * symbols
    return channel_llr(awgn(symbols, sigma, gen), sigma)


@dataclass(frozen=True, eq=False)
class ConcatSystem:
    """Two component codes through an interleaver; blocks decode one by one,
    as the decoder already batches each block's rows and columns."""

    code: ConcatCode
    schedule: Schedule
    trials_per_task = 1

    @property
    def rate(self) -> float:
        return self.code.rate

    @property
    def source_bits(self) -> int:
        return self.code.K * self.code.K

    def run(self, lo: int, hi: int, sigma: float, master_seed: int, noiseless: bool) -> list:
        cc = self.code
        results = []
        for index in range(lo, hi):
            gen = RngStream(master_seed, index).generator()
            source = gen.integers(0, 2, size=(cc.K, cc.K), dtype=np.uint8)
            tx = concat_encode(cc, source)
            res = concat_decode(cc, _received(tx, sigma, gen, noiseless), self.schedule)
            bit_errors = int((res.source_bits != source).sum())
            results.append((
                bit_errors,
                1 if bit_errors else 0,
                res.outer_iters_used,
                res.component_decode_calls,
                res.component_iterations,
            ))
        return results


@dataclass(frozen=True, eq=False)
class SingleSystem:
    """One component code; a task's trials encode as one batch and decode as
    one batch, which gives every row the result it would have on its own.
    Wide tasks let the rows that never converge share their iterations."""

    code: IraCode
    max_iter: int
    trials_per_task = 256

    @property
    def rate(self) -> float:
        return self.code.rate

    @property
    def source_bits(self) -> int:
        return self.code.K

    def run(self, lo: int, hi: int, sigma: float, master_seed: int, noiseless: bool) -> list:
        code = self.code
        gens = [RngStream(master_seed, index).generator() for index in range(lo, hi)]
        # each stream draws its source bits, then its noise, as one trial alone would
        sources = np.stack([gen.integers(0, 2, size=code.K, dtype=np.uint8) for gen in gens])
        llrs = np.stack([
            _received(tx, sigma, gen, noiseless)
            for tx, gen in zip(encode_batch(code, sources), gens)
        ])
        res = spa.decode_batch(code, llrs, None, self.max_iter)
        errors = (res.hard_bits[:, : code.K] != sources).sum(axis=1)
        return [
            (bit_errors, 1 if bit_errors else 0, 0, 1, iters)
            for bit_errors, iters in zip(errors.tolist(), res.iterations_used.tolist())
        ]


def load_system(config: SimConfig) -> ConcatSystem | SingleSystem:
    """Resolve and validate the files a config references."""
    if config.system == "concat":
        if not (config.outer_code and config.inner_code and config.interleaver):
            raise ConfigError("concat system needs outer_code, inner_code, interleaver")
        outer = load_code(config.outer_code)
        inner = load_code(config.inner_code)
        pi = load_permutation(config.interleaver)
        return ConcatSystem(ConcatCode(outer, inner, pi), config.schedule)
    if not config.code:
        raise ConfigError("single system needs a code path")
    return SingleSystem(load_code(config.code), config.max_iter)


# --- curve points ----------------------------------------------------------------

_WORKER: tuple = ()  # (system, master_seed, noiseless) inside a pool worker


def _init_worker(system: ConcatSystem | SingleSystem, master_seed: int, noiseless: bool) -> None:
    global _WORKER
    _WORKER = (system, master_seed, noiseless)


def _run_task(args: tuple[int, int, float]) -> list:
    lo, hi, sigma = args
    system, master_seed, noiseless = _WORKER
    return system.run(lo, hi, sigma, master_seed, noiseless)


def _trial_results(system, sigma: float, max_blocks: int, master_seed: int, noiseless: bool, workers: int):
    """Results of trials 0 .. max_blocks-1 in trial order: in-process one task at a time, on a
    pool at most 2 * workers tasks in flight, the queued ones cancelled when the generator closes."""
    step = system.trials_per_task
    tasks = ((lo, min(lo + step, max_blocks), sigma) for lo in range(0, max_blocks, step))
    if workers == 1:
        yield from chain.from_iterable(system.run(*task, master_seed, noiseless) for task in tasks)
        return
    pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(system, master_seed, noiseless))
    try:
        in_flight = deque(pool.submit(_run_task, task) for task in islice(tasks, 2 * workers - 1))
        while in_flight:
            in_flight.extend(pool.submit(_run_task, task) for task in islice(tasks, 1))
            yield from in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def measure_point(
    system: ConcatSystem | SingleSystem,
    ebno_db: float,
    stop: StopRule,
    master_seed: int,
    noiseless: bool = False,
    workers: int = 1,
) -> CurvePoint:
    """Run trials 0, 1, 2, ... until the stop rule holds, scanning results in
    trial order, in-process or on a pool of several workers."""
    sigma = 1.0 if noiseless else ebno_sigma(ebno_db, system.rate)
    t0 = time.perf_counter()
    bit_errors = block_errors = blocks = 0
    outer_total = comp_calls = comp_iters = 0
    trials = _trial_results(system, sigma, stop.max_blocks, master_seed, noiseless, workers)
    with contextlib.closing(trials):
        for be, blk, outer_used, calls, iters in trials:
            blocks += 1
            bit_errors += be
            block_errors += blk
            outer_total += outer_used
            comp_calls += calls
            comp_iters += iters
            if block_errors >= stop.min_block_errors:
                break
    return CurvePoint(
        ebno_db=ebno_db,
        blocks_run=blocks,
        bit_errors=bit_errors,
        block_errors=block_errors,
        ber=bit_errors / (blocks * system.source_bits),
        fer=block_errors / blocks,
        mean_outer_iters=outer_total / blocks,
        mean_component_iters=comp_iters / comp_calls if comp_calls else 0.0,
        wall_seconds=time.perf_counter() - t0,
    )


def format_row(point: CurvePoint, seed: int) -> str:
    """A curve point as one CSV row under CSV_HEADER."""
    return (
        f"{point.ebno_db:g},{point.blocks_run},{point.bit_errors},"
        f"{point.block_errors},{point.ber!r},{point.fer!r},"
        f"{point.mean_outer_iters!r},{point.mean_component_iters!r},{seed}"
    )


def _existing_rows(path: Path, seed: int) -> dict[str, CurvePoint]:
    """Map ebno key -> point for an existing curve file.  A file whose last
    write tore, or that holds a row of another master seed, is refused."""
    if not path.exists():
        return {}
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: existing output has a different header")
    if not text.endswith("\n"):
        raise ConfigError(f"{path}: last row {lines[-1]!r} is torn; remove it to resume")
    rows = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            point, row_seed = _parse_row(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: malformed row {raw!r}") from exc
        if row_seed != seed:
            raise ConfigError(
                f"{path}:{line_no}: row was measured with seed {row_seed}, "
                f"the config has master_seed {seed}"
            )
        rows[raw.split(",", 1)[0]] = point
    return rows


def run_curve(config: SimConfig) -> list[CurvePoint]:
    """Measure every configured point, appending to the output CSV as each
    completes.  Points already present in a compatible output file are kept
    as they are, so interrupted runs resume and finished runs are no-ops."""
    system = load_system(config)
    path = Path(config.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = _existing_rows(path, config.master_seed)
    if not path.exists():
        path.write_text(CSV_HEADER + "\n", encoding="utf-8")

    points: list[CurvePoint] = []
    seen: set[str] = set()
    for ebno in config.ebno_db:
        key = f"{ebno:g}"
        if key in seen:
            continue
        seen.add(key)
        if key in existing:
            points.append(existing[key])
            continue
        point = measure_point(
            system, ebno, config.stop, config.master_seed, config.noiseless, config.workers
        )
        points.append(point)
        with open(path, "a", encoding="utf-8") as f:
            f.write(format_row(point, config.master_seed) + "\n")
            f.flush()
            os.fsync(f.fileno())
    return points


def _parse_row(row: str) -> tuple[CurvePoint, int]:
    """A curve row as its point and seed; ValueError if it is not one."""
    parts = row.split(",")
    if len(parts) != CSV_HEADER.count(",") + 1:
        raise ValueError(f"{len(parts)} fields")
    point = CurvePoint(
        ebno_db=float(parts[0]),
        blocks_run=int(parts[1]),
        bit_errors=int(parts[2]),
        block_errors=int(parts[3]),
        ber=float(parts[4]),
        fer=float(parts[5]),
        mean_outer_iters=float(parts[6]),
        mean_component_iters=float(parts[7]),
        wall_seconds=0.0,
    )
    return point, int(parts[8])


# --- interleaver pilot selection -------------------------------------------------


def pilot_select(
    outer: IraCode,
    inner: IraCode,
    schedule: Schedule,
    n_candidates: int,
    pilot_ebno: float,
    pilot_blocks: int,
    master_seed: int,
) -> tuple[BlockPermutation, list[tuple[int, int, int]]]:
    """Score candidate random permutations by a short shared-noise pilot run
    and keep the best (fewest block errors, then bit errors, then index).

    Candidate i uses seed master_seed + i; pilots share trial streams so the
    comparison uses common random numbers.  Returns the winner and the per
    candidate (block_errors, bit_errors, seed) scores.
    """
    if n_candidates < 1 or pilot_blocks < 1:
        raise ValueError("need at least one candidate and one pilot block")
    scores = []
    best = None
    best_key = None
    for i in range(n_candidates):
        perm = random_permutation(outer.K, outer.N, master_seed + i)
        point = measure_point(
            ConcatSystem(ConcatCode(outer, inner, perm), schedule), pilot_ebno,
            StopRule(min_block_errors=pilot_blocks + 1, max_blocks=pilot_blocks), master_seed,
        )
        scores.append((point.block_errors, point.bit_errors, perm.seed))
        key = (point.block_errors, point.bit_errors, i)
        if best_key is None or key < best_key:
            best, best_key = perm, key
    return best, scores


def two_proportion_z(errors_a: int, n_a: int, errors_b: int, n_b: int) -> tuple[float, float]:
    """One-sided z statistic and p-value for H1: rate_a < rate_b (pooled)."""
    p_a, p_b = errors_a / n_a, errors_b / n_b
    pooled = (errors_a + errors_b) / (n_a + n_b)
    denom = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    if denom == 0.0:
        return 0.0, 0.5
    z = (p_b - p_a) / denom
    return z, gaussian_q(z)
