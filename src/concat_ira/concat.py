"""Serially concatenated encoder and iterative decoder.

A K x K source block is encoded row-wise by the outer code, passed through
the block permutation, then encoded column-wise by the inner code into an
N x N array at overall rate K^2/N^2.  Decoding alternates a column pass and
a row pass per outer iteration, exchanging extrinsic information through
the permutation; each transmitted bit has exactly one channel observation,
routed to the column decoder directly and to the row decoder through the
inverse permutation (systematic rows only - inner parity rows exist only in
the column code).

The decoder holds every array as the column code sees the block: the
channel array as received, and each extrinsic and the row posterior at the
image of its position.  Both passes decode in place through index tables
(``ConcatCode.pass_tables``): variable v of column c sits at flat index
v*N + c, and variable v of row r at ``pi.forward[r*N + v]``, so no pass
gathers, permutes or scatters a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spa
from .interleave import BlockPermutation
from .ira import IraCode, encode_batch

__all__ = ["ConcatCode", "Schedule", "ConcatDecodeResult", "concat_encode", "concat_decode"]

# module-level alias through which every component pass decodes, so tests
# and tracers can intercept it
_decode_batch = spa.decode_indexed


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
    def pass_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """int32 index tables of the column pass, (N, N), and the row pass,
        (K, N): where each codeword's variables sit in the decoder's block
        arrays, flat, in column-code alignment."""
        n = self.N
        columns = np.arange(n * n, dtype=np.int32).reshape(n, n).T.copy()
        rows = self.pi.forward.astype(np.int32).reshape(self.K, n)
        return columns, rows


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
    column_valid: np.ndarray  # (N,) bool
    row_valid: np.ndarray  # (K,) bool
    pass_validity: tuple[tuple[int, int], ...]  # (valid cols, valid rows) per outer iter
    component_decode_calls: int
    component_iterations: int

    @property
    def converged(self) -> bool:
        return bool(self.column_valid.all() and self.row_valid.all())

    @property
    def outer_iters_used(self) -> int:
        return len(self.pass_validity)


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
    lch = np.ascontiguousarray(channel_llrs, dtype=np.float64)
    if lch.shape != (cc.N, cc.N):
        raise ValueError(f"expected ({cc.N}, {cc.N}) channel LLR array")
    k, n = cc.K, cc.N
    col_at, row_at = cc.pass_tables

    # K x N, column-code alignment: the column pass reads row_ext as its
    # prior on the systematic rows; the row pass reads col_ext
    row_ext = np.zeros((k, n))
    col_ext = np.zeros((k, n))
    row_post = np.zeros((k, n))
    col_valid = np.zeros(n, dtype=bool)
    row_valid = np.zeros(k, dtype=bool)
    calls = 0
    iters = 0
    history: list[tuple[int, int]] = []

    for _ in range(schedule.outer_iters):
        # column pass: channel enters here, prior is the permuted row
        # extrinsic; row pass: de-interleaved channel, column extrinsic as prior
        for code, at, valid, prior, out, post in (
            (cc.inner, col_at, col_valid, row_ext, col_ext, None),
            (cc.outer, row_at, row_valid, col_ext, row_ext, row_post),
        ):
            todo = np.flatnonzero(~valid) if schedule.freeze_converged else np.arange(len(valid))
            if len(todo):
                res = _decode_batch(code, at, todo, lch, prior, out, post, schedule.inner_iters)
                valid[todo] = res.valid
                calls += len(todo)
                iters += int(res.iterations_used.sum())

        history.append((int(col_valid.sum()), int(row_valid.sum())))
        if col_valid.all() and row_valid.all():
            break

    return ConcatDecodeResult(
        source_bits=(row_post.ravel()[row_at[:, :k]] < 0).astype(np.uint8),
        column_valid=col_valid,
        row_valid=row_valid,
        pass_validity=tuple(history),
        component_decode_calls=calls,
        component_iterations=iters,
    )
