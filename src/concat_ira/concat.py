"""Serially concatenated encoder and iterative decoder.

A K x K source block is encoded row-wise by the outer code, passed through
the block permutation, then encoded column-wise by the inner code into an
N x N array at overall rate K^2/N^2.  Decoding alternates a column pass and
a row pass per outer iteration, exchanging extrinsic information through
the permutation; each transmitted bit has exactly one channel observation,
routed to the column decoder directly and to the row decoder through the
inverse permutation (systematic rows only - inner parity rows exist only in
the column code).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spa
from .interleave import BlockPermutation
from .ira import IraCode, encode_batch

__all__ = ["ConcatCode", "Schedule", "ConcatDecodeResult", "concat_encode", "concat_decode"]

# module-level alias so tests can intercept component decodes
_decode_batch = spa.decode_batch


@dataclass(frozen=True, eq=False)
class ConcatCode:
    """Outer (row) and inner (column) [N, K] codes joined by a K x N permutation."""

    outer: IraCode
    inner: IraCode
    pi: BlockPermutation

    def __post_init__(self):
        if (self.outer.K, self.outer.N) != (self.inner.K, self.inner.N):
            raise ValueError("component codes must share (N, K)")
        if (self.pi.K, self.pi.N) != (self.outer.K, self.outer.N):
            raise ValueError("permutation shape must be (K, N)")

    @property
    def K(self) -> int:
        return self.outer.K

    @property
    def N(self) -> int:
        return self.outer.N

    @property
    def rate(self) -> float:
        return (self.K * self.K) / (self.N * self.N)

    @cached_property
    def pi_inv(self) -> BlockPermutation:
        return self.pi.invert()


@dataclass(frozen=True)
class Schedule:
    """Outer iterations between the codes; inner SPA iterations per component
    decode.  With freeze_converged, a row or column whose hard decision was a
    valid codeword keeps its extrinsic and is never re-decoded."""

    outer_iters: int = 10
    inner_iters: int = 10
    freeze_converged: bool = True

    def __post_init__(self):
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration counts must be >= 1")


@dataclass(frozen=True, eq=False)
class ConcatDecodeResult:
    source_bits: np.ndarray  # (K, K) uint8
    converged: bool
    outer_iters_used: int
    column_valid: np.ndarray  # (N,) bool
    row_valid: np.ndarray  # (K,) bool
    pass_validity: tuple[tuple[int, int], ...]  # (valid cols, valid rows) per outer iter
    component_decode_calls: int
    component_iterations: int


def concat_encode(cc: ConcatCode, source) -> np.ndarray:
    """Encode a K x K source block into the N x N transmitted array."""
    source = np.asarray(source)
    if source.shape != (cc.K, cc.K):
        raise ValueError(f"expected ({cc.K}, {cc.K}) source block")
    row_block = encode_batch(cc.outer, source)  # (K, N), rows are outer codewords
    mixed = cc.pi.apply(row_block)
    columns = encode_batch(cc.inner, mixed.T)  # (N, N), each row encodes one column
    return np.ascontiguousarray(columns.T, dtype=np.uint8)


def concat_decode(cc: ConcatCode, channel_llrs, schedule: Schedule) -> ConcatDecodeResult:
    """Iterative column/row decoding of an N x N channel-LLR array."""
    lch = np.asarray(channel_llrs, dtype=np.float64)
    if lch.shape != (cc.N, cc.N):
        raise ValueError(f"expected ({cc.N}, {cc.N}) channel LLR array")
    k, n = cc.K, cc.N

    lch_rows = cc.pi_inv.apply(lch[:k, :])  # channel observations seen by the row code
    row_ext = np.zeros((k, n))              # row-decoder extrinsic, row-code alignment
    col_ext_mixed = np.zeros((k, n))        # column-decoder extrinsic, column-code alignment
    row_post = np.zeros((k, n))
    col_valid = np.zeros(n, dtype=bool)
    row_valid = np.zeros(k, dtype=bool)
    calls = 0
    iters = 0
    history: list[tuple[int, int]] = []
    outer_used = 0

    for outer_it in range(1, schedule.outer_iters + 1):
        outer_used = outer_it

        # column pass: channel enters here; prior is the permuted row extrinsic
        cols = np.flatnonzero(~col_valid) if schedule.freeze_converged else np.arange(n)
        if len(cols):
            prior_mixed = cc.pi.apply(row_ext)
            prior = np.zeros((len(cols), n))
            prior[:, :k] = prior_mixed[:, cols].T
            res = _decode_batch(cc.inner, lch[:, cols].T, prior, schedule.inner_iters)
            col_ext_mixed[:, cols] = res.extrinsic[:, :k].T
            col_valid[cols] = res.valid
            calls += len(cols)
            iters += int(res.iterations_used.sum())

        # row pass: de-interleaved channel plus the column extrinsic as prior
        rows = np.flatnonzero(~row_valid) if schedule.freeze_converged else np.arange(k)
        if len(rows):
            prior = cc.pi_inv.apply(col_ext_mixed)[rows]
            res = _decode_batch(cc.outer, lch_rows[rows], prior, schedule.inner_iters)
            row_ext[rows] = res.extrinsic
            row_post[rows] = res.posterior
            row_valid[rows] = res.valid
            calls += len(rows)
            iters += int(res.iterations_used.sum())

        history.append((int(col_valid.sum()), int(row_valid.sum())))
        if col_valid.all() and row_valid.all():
            break

    return ConcatDecodeResult(
        source_bits=(row_post[:, :k] < 0).astype(np.uint8),
        converged=bool(col_valid.all() and row_valid.all()),
        outer_iters_used=outer_used,
        column_valid=col_valid,
        row_valid=row_valid,
        pass_validity=tuple(history),
        component_decode_calls=calls,
        component_iterations=iters,
    )
