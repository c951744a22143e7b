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
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import spa
# perfbench/layers.py patches bench.modulate, awgn, channel_llr and encode, which no trial
# calls, so the names stay importable here
from .channel import TrialStreams, awgn, channel_llr, ebno_sigma, modulate  # noqa: F401
from .concat import ConcatCode, Schedule, concat_decode, concat_encode
from .interleave import load_permutation
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
    "read_curve",
    "run_curve",
    "gaussian_q",
    "two_proportion_z",
]

CSV_HEADER = (
    "ebno_db,blocks,bit_errors,block_errors,ber,fer,"
    "mean_outer_iters,mean_component_iters,seed"
)


class ConfigError(ValueError):
    """A simulation configuration that cannot be run as given."""


@dataclass(frozen=True)
class StopRule:
    min_block_errors: int = 100
    max_blocks: int = 1_000_000

    def __post_init__(self):
        if self.min_block_errors < 1 or self.max_blocks < 1:
            raise ConfigError("stop rule bounds must be >= 1")
        # trial streams are defined for indices below 2^32 (channel.TrialStreams)
        if self.max_blocks > 2**32:
            raise ConfigError(f"max_blocks must be <= 2**32, not {self.max_blocks}")


@dataclass(frozen=True)
class CurvePoint:
    """A measured point: its counts fix its frame error rate, and only counts
    a run can write are accepted.  In both systems a block fails exactly when
    one of its source bits is wrong.  An undetected error is a failed block
    whose decode ended valid, on a codeword that is not the one sent; a curve
    row does not hold their count, so a point read back has None."""

    ebno_db: float
    blocks_run: int
    bit_errors: int
    block_errors: int
    ber: float
    mean_outer_iters: float
    mean_component_iters: float
    wall_seconds: float
    undetected: int | None = None

    def __post_init__(self):
        if self.blocks_run < 1:
            raise ValueError(f"a point runs at least one block, not {self.blocks_run}")
        if not 0 <= self.block_errors <= self.blocks_run:
            raise ValueError(f"{self.block_errors} block errors in {self.blocks_run} blocks")
        if self.bit_errors < self.block_errors or (self.bit_errors and not self.block_errors):
            raise ValueError(f"{self.bit_errors} bit errors in {self.block_errors} failed blocks")
        if not (0.0 < self.ber <= 1.0 if self.bit_errors else self.ber == 0.0):
            raise ValueError(f"ber {self.ber!r} with {self.bit_errors} bit errors")
        if self.undetected is not None and not 0 <= self.undetected <= self.block_errors:
            raise ValueError(f"{self.undetected} undetected of {self.block_errors} block errors")
        if not all(0.0 <= m < math.inf for m in (self.mean_outer_iters, self.mean_component_iters)):
            raise ValueError("mean iterations must be finite and >= 0")

    @property
    def fer(self) -> float:
        return self.block_errors / self.blocks_run


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
    outer_code: str | None = None
    inner_code: str | None = None
    interleaver: str | None = None
    schedule: Schedule = field(default_factory=Schedule)
    code: str | None = None
    max_iter: int = 100

    def __post_init__(self):
        if self.system not in tuple(_SYSTEM_KEYS):
            raise ConfigError(f"unknown system {self.system!r}")
        if not self.ebno_db:
            raise ConfigError("ebno_db list must be nonempty")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, not {self.max_iter}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, not {self.master_seed}")
        # + 0.0 makes -0.0 the 0.0 it equals, so both are one point, written "0"
        object.__setattr__(self, "ebno_db", tuple(float(e) + 0.0 for e in self.ebno_db))
        if not all(map(math.isfinite, self.ebno_db)):
            raise ConfigError(f"ebno_db must be finite, not {self.ebno_db!r}")
        for e in self.ebno_db:  # a curve row names its point by f"{e:g}"
            if float(f"{e:g}") != e:
                raise ConfigError(
                    f"ebno_db value {e!r} would be written as {e:g}: "
                    "give at most 6 significant digits"
                )

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        system = raw.get("system", "concat")
        if system not in tuple(_SYSTEM_KEYS):  # compared, not hashed: it may be a JSON list
            raise ConfigError(f"unknown system {system!r}")
        keys = {**_CONFIG_KEYS, **_SYSTEM_KEYS[system]}
        unknown = set(raw) - {"system", "ebno_db", *keys, *_STOP_KEYS}
        if unknown:
            raise ConfigError(f"unknown config keys for a {system} system: {sorted(unknown)}")
        fields = {"output": "curve.csv", **_json_fields(raw, keys)}
        sched = fields.pop("schedule", {})
        unknown = set(sched) - set(_SCHEDULE_KEYS)
        if unknown:
            raise ConfigError(f"unknown schedule keys: {sorted(unknown)}")
        ebno = raw.get("ebno_db", [])
        if not isinstance(ebno, list) or any(
            isinstance(e, bool) or not isinstance(e, (int, float)) for e in ebno
        ):
            raise ConfigError(f"ebno_db must be a list of numbers, not {ebno!r}")
        try:
            return cls(system=system, ebno_db=tuple(ebno), **fields,
                       stop=StopRule(**_json_fields(raw, _STOP_KEYS)),
                       schedule=Schedule(**_json_fields(sched, _SCHEDULE_KEYS)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


# JSON key -> type, one table per level, and for the top level one table per
# system besides the keys of every config: a config may name no key of the
# other system.  An absent key takes its dataclass default.
_CONFIG_KEYS = {"output": str, "master_seed": int, "workers": int}
_SYSTEM_KEYS = {
    "concat": {"outer_code": str, "inner_code": str, "interleaver": str, "schedule": dict},
    "single": {"code": str, "max_iter": int},
}
_STOP_KEYS = {"min_block_errors": int, "max_blocks": int}
_SCHEDULE_KEYS = {"outer_iters": int, "inner_iters": int, "freeze_converged": bool}
_JSON_TYPES = {int: "an integer", str: "a string", bool: "true or false", dict: "an object"}


def _json_fields(raw: dict, kinds: dict[str, type]) -> dict:
    """The keys of kinds that raw holds, each refused unless its value has
    its JSON type: int() would read 1.5 as 1, bool() the string "false" as
    True, and a JSON true is no integer."""
    fields = {}
    for key, kind in kinds.items():
        if key in raw:
            value = raw[key]
            if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
                raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, not {value!r}")
            fields[key] = value
    return fields


# --- runnable systems ----------------------------------------------------------
#
# A system's encode maps a task's source bits, one row per trial, to one codeword
# row per trial, and its decode maps their channel LLRs to the decided source bits
# and, per trial, outer iterations, component decodes, component iterations and
# whether the decode ended valid; a count that every trial shares may be given once.
# trials_per_task is the work of one in-process task.


@dataclass(frozen=True, eq=False)
class ConcatSystem:
    """Two component codes through an interleaver; a task's blocks encode and decode
    one by one, as the decoder already batches each block's rows and columns."""

    code: ConcatCode
    schedule: Schedule
    trials_per_task = 1

    @property
    def rate(self) -> float:
        return self.code.rate

    @property
    def source_bits(self) -> int:
        return self.code.K * self.code.K

    def encode(self, sources: np.ndarray) -> np.ndarray:
        k = self.code.K
        return np.stack([concat_encode(self.code, s.reshape(k, k)).ravel() for s in sources])

    def decode(self, llrs: np.ndarray) -> tuple:
        n = self.code.N
        results = [concat_decode(self.code, r.reshape(n, n), self.schedule) for r in llrs]
        counts = [(r.outer_iters_used, r.component_decode_calls, r.component_iterations,
                   r.converged) for r in results]
        return np.array([r.source_bits.ravel() for r in results]), np.array(counts).T


@dataclass(frozen=True, eq=False)
class SingleSystem:
    """One component code; a task's trials encode as one batch and decode as one
    batch, which gives each row the result it would have on its own and lets the
    rows that never converge share their iterations."""

    code: IraCode
    max_iter: int
    trials_per_task = 512

    @property
    def rate(self) -> float:
        return self.code.rate

    @property
    def source_bits(self) -> int:
        return self.code.K

    def encode(self, sources: np.ndarray) -> np.ndarray:
        return encode_batch(self.code, sources)

    def decode(self, llrs: np.ndarray) -> tuple:
        extrinsic, posterior = _task_buffer(1, llrs.shape), _task_buffer(2, llrs.shape)
        res = spa.decode_indexed(self.code, None, None, llrs, None, extrinsic, posterior,
                                 self.max_iter)
        return posterior[:, : self.code.K] < 0.0, (0, 1, res.iterations_used, res.valid)


# This process's grow-only task buffers, kept as ``spa._CompiledGraph`` keeps its
# tiles (so not for two threads at once): any task's channel LLRs, and a single-code
# task's extrinsic and posterior outputs, flat; a task views the start of each.
_TASK_BUFFERS = [np.empty(0) for _ in range(3)]


def _task_buffer(i: int, shape: tuple[int, int]) -> np.ndarray:
    if _TASK_BUFFERS[i].size < shape[0] * shape[1]:
        _TASK_BUFFERS[i] = np.empty(shape[0] * shape[1])
    return _TASK_BUFFERS[i][: shape[0] * shape[1]].reshape(shape)


def _run_trials(system, lo: int, hi: int, sigma: float, master_seed: int) -> np.ndarray:
    """Trials lo..hi-1 of system at noise level sigma as an int64 array, one row per
    trial and six columns: bit errors, block error, outer iterations, component
    decodes, component iterations and undetected error (``CurvePoint``).  Each trial
    draws its source bits and noise from its own stream (``channel.TrialStreams``)."""
    streams = TrialStreams(master_seed, lo, hi)
    sources = streams.bits(system.source_bits)
    tx = system.encode(sources)
    llrs = streams.llrs(tx, sigma, out=_task_buffer(0, tx.shape))
    decided, (outer, calls, iters, valid) = system.decode(llrs)
    bit_errors = (decided != sources).sum(axis=1)
    failed = bit_errors > 0
    columns = bit_errors, failed, outer, calls, iters, failed & valid
    return np.column_stack(np.broadcast_arrays(*columns))


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

_WORKER: tuple = ()  # (system, master_seed) inside a pool worker


def _init_worker(system: ConcatSystem | SingleSystem, master_seed: int) -> None:
    global _WORKER
    _WORKER = (system, master_seed)


def _run_task(task: tuple[int, int, float]) -> np.ndarray:
    system, master_seed = _WORKER
    return _run_trials(system, *task, master_seed)


# the fewest trials a pooled task holds, so that each short concat block does not
# pay its own submit, two pickles, pipe write and worker wake-up
_POOLED_TASK_TRIALS = 4


def _task_results(system, sigma: float, max_blocks: int, master_seed: int, workers: int):
    """Result arrays of the tasks of trials 0 .. max_blocks-1 in trial order.  In-process a task
    is system.trials_per_task trials, run when it is reached, so nothing runs past the stop
    rule's round.  On a pool a task is max(trials_per_task, _POOLED_TASK_TRIALS) trials; a first
    wave of one task per worker, then, once the first task's results are taken, 2 * workers
    tasks in flight; the queued ones are cancelled when the generator closes.  So a pooled point
    decodes at most 2 * workers tasks from the one holding its stop on, and one that stops inside
    its first task no more than the first wave.  The pool starts no more processes than the
    point has tasks."""
    step = system.trials_per_task
    if workers > 1:
        step = max(step, _POOLED_TASK_TRIALS)
    tasks = ((lo, min(lo + step, max_blocks), sigma) for lo in range(0, max_blocks, step))
    if workers == 1:
        yield from (_run_trials(system, *task, master_seed) for task in tasks)
        return
    workers = min(workers, -(-max_blocks // step))
    pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(system, master_seed))
    try:
        in_flight = deque(pool.submit(_run_task, task) for task in islice(tasks, workers))
        while in_flight:
            yield in_flight.popleft().result()
            top_up = islice(tasks, 2 * workers - len(in_flight))
            in_flight.extend(pool.submit(_run_task, task) for task in top_up)
    finally:
        pool.shutdown(cancel_futures=True)


def measure_point(
    system: ConcatSystem | SingleSystem,
    ebno_db: float,
    stop: StopRule,
    master_seed: int,
    workers: int = 1,
) -> CurvePoint:
    """Run trials 0, 1, 2, ... until the stop rule holds, scanning results in
    trial order, in-process or on a pool of several workers."""
    sigma = ebno_sigma(ebno_db, system.rate)
    t0 = time.perf_counter()
    totals = np.zeros(6, dtype=np.int64)
    blocks = 0
    tasks = _task_results(system, sigma, stop.max_blocks, master_seed, workers)
    with contextlib.closing(tasks):
        for results in tasks:
            # block errors are 0 or 1, so their running count is sorted
            errors = totals[1] + np.cumsum(results[:, 1])
            end = int(np.searchsorted(errors, stop.min_block_errors)) + 1
            totals += results[:end].sum(axis=0)
            blocks += min(end, len(results))
            if end <= len(results):
                break
    bit_errors, block_errors, outer_total, comp_calls, comp_iters, undetected = totals.tolist()
    return CurvePoint(
        ebno_db=ebno_db,
        blocks_run=blocks,
        bit_errors=bit_errors,
        block_errors=block_errors,
        ber=bit_errors / (blocks * system.source_bits),
        mean_outer_iters=outer_total / blocks,
        mean_component_iters=comp_iters / comp_calls if comp_calls else 0.0,
        wall_seconds=time.perf_counter() - t0,
        undetected=undetected,
    )


def format_row(point: CurvePoint, seed: int) -> str:
    """A curve point as one CSV row under CSV_HEADER."""
    return (
        f"{point.ebno_db:g},{point.blocks_run},{point.bit_errors},"
        f"{point.block_errors},{point.ber!r},{point.fer!r},"
        f"{point.mean_outer_iters!r},{point.mean_component_iters!r},{seed}"
    )


def read_curve(path: Path) -> list[tuple[int, str, CurvePoint, int]]:
    """The rows of a curve file as (line number, row, point, seed), read only
    in the form ``run_curve`` writes: the header, then ``format_row`` of each
    point with an LF.  A file with another header, whose last write tore, or
    with a row that is not as written is refused at its line: a row whose
    counts no run writes, or whose fer is not its counts', is one (a byte
    that is not UTF-8 reads as U+FFFD, which no row holds)."""
    text = path.read_bytes().decode("utf-8", "replace")
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a curve CSV (header mismatch)")
    if lines[-1]:
        raise ConfigError(f"{path}: last row {lines[-1]!r} is torn; remove it first")
    rows = []
    for line_no, raw in enumerate(lines[1:-1], start=2):
        try:
            rows.append((line_no, raw, *_parse_row(raw)))
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{line_no}: malformed row {raw!r}, not as simulate writes it"
            ) from exc
    return rows


def run_curve(
    config: SimConfig, on_point: Callable[[CurvePoint], None] | None = None
) -> list[CurvePoint]:
    """Measure every configured point, appending to the output CSV as each
    completes, and pass each measured point to on_point once its row is
    written.  Points already present in a compatible output file are kept
    as they are, so interrupted runs resume and finished runs are no-ops."""
    system = load_system(config)
    for ebno in config.ebno_db:
        ebno_sigma(ebno, system.rate)  # refuse before the output file is made
    path = Path(config.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing: dict[str, CurvePoint] = {}
    header = CSV_HEADER + "\n"  # written with the first row: a failed decode leaves no file
    if path.exists():
        header = ""
        for line_no, row, point, seed in read_curve(path):
            if seed != config.master_seed:
                raise ConfigError(
                    f"{path}:{line_no}: row was measured with seed {seed}, "
                    f"the config has master_seed {config.master_seed}"
                )
            # a row of another block size: a single-code row under a concat config, or another K
            sent = point.blocks_run * system.source_bits
            if point.bit_errors > sent or point.ber != point.bit_errors / sent:
                raise ConfigError(
                    f"{path}:{line_no}: row's ber is not {point.bit_errors} bit errors in "
                    f"{point.blocks_run} blocks of {system.source_bits} source bits"
                )
            existing[row.split(",", 1)[0]] = point

    points: list[CurvePoint] = []
    for ebno in dict.fromkeys(config.ebno_db):  # a repeated point is measured once
        key = f"{ebno:g}"
        if key in existing:
            points.append(existing[key])
            continue
        point = measure_point(system, ebno, config.stop, config.master_seed, config.workers)
        points.append(point)
        with open(path, "a", encoding="utf-8") as f:
            f.write(header + format_row(point, config.master_seed) + "\n")
            f.flush()
            os.fsync(f.fileno())
        header = ""
        if on_point is not None:
            on_point(point)
    return points


def _parse_row(row: str) -> tuple[CurvePoint, int]:
    """A curve row as its point and seed; ValueError unless ``format_row`` writes it
    for a run (finite Eb/N0, seed >= 0; the round trip checks the fer column)."""
    parts = row.split(",")
    if len(parts) != CSV_HEADER.count(",") + 1:
        raise ValueError(f"{len(parts)} fields")
    point = CurvePoint(
        ebno_db=float(parts[0]),
        blocks_run=int(parts[1]),
        bit_errors=int(parts[2]),
        block_errors=int(parts[3]),
        ber=float(parts[4]),
        mean_outer_iters=float(parts[6]),
        mean_component_iters=float(parts[7]),
        wall_seconds=0.0,
    )
    seed = int(parts[8])
    if seed < 0 or not math.isfinite(point.ebno_db) or format_row(point, seed) != row:
        raise ValueError("not as format_row writes it")
    return point, seed


def gaussian_q(x: float) -> float:
    """Upper-tail probability of the standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def two_proportion_z(errors_a: int, n_a: int, errors_b: int, n_b: int) -> tuple[float, float]:
    """One-sided z statistic and p-value for H1: rate_a < rate_b (pooled)."""
    p_a, p_b = errors_a / n_a, errors_b / n_b
    pooled = (errors_a + errors_b) / (n_a + n_b)
    denom = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    if denom == 0.0:
        return 0.0, 0.5
    z = (p_b - p_a) / denom
    return z, gaussian_q(z)
