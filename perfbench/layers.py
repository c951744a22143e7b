"""Timing wrappers around the program's public entry points, and the
reduction of the spans they record to per-layer metrics.

A Tracer replaces module and class attributes for the duration of a
``with tracer.installed():`` block and records one span per call: name,
start, end, the span that was open when the call began, and counters read
from the call's result.  Spans stay in memory until the benchmark reduces
them.  Nothing under ``src/`` is edited: the wrappers sit at the module
boundaries the program already calls through.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from concat_ira import bench, channel, concat, interleave, ira, spa, stopping


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _batch_counts(res) -> dict:
    return {
        "rows": len(res.valid),
        "iters": int(res.iterations_used.sum()),
        "valid": int(res.valid.sum()),
    }


def _single_counts(res) -> dict:
    return {"rows": 1, "iters": int(res.iterations_used), "valid": int(res.valid)}


def _permutation_counts(perm) -> dict:
    return {"design_t": perm.design_t, "repairs": perm.repairs}


# (owner, attribute, span name, counters read from the result).  Owners are
# the namespaces the program resolves these names in at call time: bench
# imported its channel, codec and file helpers by name, concat decodes
# through its _decode_batch alias and encodes through its own encode_batch.
PATCHES: list[tuple[object, str, str, Callable | None]] = [
    (bench, "run_curve", "bench.run_curve", None),
    (bench, "load_system", "bench.load_system", None),
    (bench, "load_permutation", "interleave.load_permutation", None),
    (bench, "concat_encode", "concat.encode", None),
    (bench, "concat_decode", "concat.decode", lambda r: {"outer": r.outer_iters_used}),
    (bench, "encode", "ira.encode", None),
    (bench, "modulate", "channel.modulate", None),
    (bench, "awgn", "channel.awgn", None),
    (bench, "channel_llr", "channel.channel_llr", None),
    (channel.RngStream, "generator", "channel.generator", None),
    (concat, "_decode_batch", "spa.decode_batch", _batch_counts),
    (concat, "encode_batch", "ira.encode_batch", None),
    (spa, "decode", "spa.decode", _single_counts),
    (interleave.BlockPermutation, "apply", "interleave.apply", None),
    (interleave, "escalate_design", "interleave.escalate_design", _permutation_counts),
    (interleave, "save_permutation", "interleave.save_permutation", None),
    (ira, "build_code", "ira.build_code", None),
    (ira, "save_alist", "gf2.save_alist", None),
    (ira, "load_alist", "gf2.load_alist", None),
    (stopping, "sensitivity_histogram", "stopping.sensitivity_histogram", None),
]


class Tracer:
    """Records spans for calls made through the patched attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, counts in PATCHES:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counts))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _total(spans: list[Span], prefix: str) -> float:
    return sum(s.seconds for s in spans if s.name.startswith(prefix))


def _count(spans: list[Span], prefix: str) -> int:
    return sum(1 for s in spans if s.name.startswith(prefix))


def _child_seconds(spans: list[Span]) -> list[float]:
    """Per span, the time its direct children cover (self time = span - this)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return child


def setup_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    escalations = [s for s in spans if s.name == "interleave.escalate_design"]
    return {
        "ira.build_s": _total(spans, "ira.build_code"),
        "stopping.histogram_s": _total(spans, "stopping.sensitivity_histogram"),
        "interleave.escalate_s": _total(spans, "interleave.escalate_design"),
        "interleave.design_t": escalations[-1].counts["design_t"] if escalations else 0,
        "interleave.repairs": escalations[-1].counts["repairs"] if escalations else 0,
        "interleave.perm_io_s": _total(spans, "interleave.save_permutation")
        + _total(spans, "interleave.load_permutation"),
        "gf2.alist_io_s": _total(spans, "gf2."),
    }


def curve_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run_curve call; spans[0] is its root."""
    root = spans[0]
    if root.name != "bench.run_curve" or any(s.parent < 0 for s in spans[1:]):
        raise ValueError("spans must hold exactly one run_curve call and its children")
    child = _child_seconds(spans)
    spa_spans = [s for s in spans if s.name.startswith("spa.")]
    rows = sum(s.counts["rows"] for s in spa_spans)
    iters = sum(s.counts["iters"] for s in spa_spans)
    decodes = [(s, c) for s, c in zip(spans, child) if s.name == "concat.decode"]
    # load_system re-reads the code and permutation files inside every
    # run_curve call; it is attributed, but it is harness, not trial, work.
    load = sum(s.seconds for s in spans if s.parent == 0 and s.name == "bench.load_system")
    return {
        "wall_s": root.seconds,
        "spa.busy_s": _total(spans, "spa."),
        "spa.calls": len(spa_spans),
        "spa.rows": rows,
        "spa.codeword_iters": iters,
        "spa.valid": sum(s.counts["valid"] for s in spa_spans),
        "concat.encode_s": _total(spans, "concat.encode"),
        "concat.self_s": sum(s.seconds - c for s, c in decodes),
        "concat.outer_iters": sum(s.counts["outer"] for s, _ in decodes),
        "block_ms": [1e3 * s.seconds for s, _ in decodes],
        "interleave.apply_calls": _count(spans, "interleave.apply"),
        "interleave.apply_s": _total(spans, "interleave.apply"),
        "ira.encode_s": _total(spans, "ira.encode"),
        "channel.busy_s": _total(spans, "channel."),
        "channel.calls": _count(spans, "channel."),
        "bench.harness_s": root.seconds - child[0] + load,
        "unattributed_s": root.seconds - child[0],
    }


def reduce_curves(per_call: list[dict]) -> dict[str, float]:
    """Combine the traced run_curve calls of one run into per-layer metrics:
    times and counts summed over the calls, ratios of those sums, and
    block-time quantiles over every block decoded."""
    total = {name: sum(c[name] for c in per_call) for name in per_call[0] if name != "block_ms"}
    calls, rows, iters = total["spa.calls"], total["spa.rows"], total["spa.codeword_iters"]
    out = {name: total[name] for name in (
        "spa.busy_s", "spa.calls", "spa.codeword_iters", "concat.encode_s", "concat.self_s",
        "concat.outer_iters", "interleave.apply_calls", "interleave.apply_s", "ira.encode_s",
        "channel.busy_s", "channel.calls", "bench.harness_s",
    )}
    out.update({
        "spa.us_per_codeword_iter": 1e6 * total["spa.busy_s"] / iters if iters else 0.0,
        "spa.rows_per_call": rows / calls if calls else 0.0,
        "spa.converged_frac": total["spa.valid"] / rows if rows else 0.0,
        "bench.unattributed_frac": total["unattributed_s"] / total["wall_s"],
    })
    blocks = sorted(ms for c in per_call for ms in c["block_ms"])
    if len(blocks) >= 2:
        deciles = statistics.quantiles(blocks, n=10)
        out["concat.block_ms_p50"], out["concat.block_ms_p90"] = deciles[4], deciles[8]
    else:
        out["concat.block_ms_p50"] = out["concat.block_ms_p90"] = blocks[0] if blocks else 0.0
    return out
