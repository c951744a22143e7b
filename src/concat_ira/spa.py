"""Log-domain sum-product decoding with a-priori input and extrinsic output.

LLR sign convention: positive favors bit 0.  The flooding schedule updates
all checks, then all variables, once per iteration; decoding stops at the
first iteration whose hard decision satisfies every check.  The extrinsic
output for a variable is the sum of its final check-to-variable messages,
excluding both the channel and the prior term, so the value can be handed
to another decoder that holds its own copy of the channel observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2 import SparseBinaryMatrix

__all__ = [
    "LLR_CLAMP",
    "DecodeResult",
    "BatchDecodeResult",
    "decode",
    "decode_batch",
]

LLR_CLAMP = 50.0  # applied to variable-to-check messages before tanh
_ATANH_GUARD = 1.0 - 1e-12  # keeps products away from +-1 before arctanh


@dataclass(frozen=True)
class DecodeResult:
    hard_bits: np.ndarray
    posterior: np.ndarray
    extrinsic: np.ndarray
    iterations_used: int
    valid: bool


@dataclass(frozen=True)
class BatchDecodeResult:
    """Per-row results of decoding a batch of independent LLR vectors."""

    hard_bits: np.ndarray  # (B, N) uint8
    posterior: np.ndarray  # (B, N)
    extrinsic: np.ndarray  # (B, N)
    iterations_used: np.ndarray  # (B,)
    valid: np.ndarray  # (B,) bool


@dataclass(frozen=True, eq=False)
class _CompiledGraph:
    """Slot-major edge numbering for batch-last flooding updates.

    Every check owns ``check_deg`` slots, numbered ``slot * n_checks +
    check``, so the k-th slots of all checks are one contiguous block of
    rows; a check with fewer edges leaves its last slots as padding.
    Message arrays are ``(n_slots + 1, B)``, the extra last row being a zero
    slot; variable arrays are ``(n_vars + 1, B)`` with a zero last row.
    """

    n_checks: int
    n_vars: int
    check_deg: int
    slot_var: np.ndarray  # (n_slots,) variable of each slot; padding -> zero row n_vars
    var_slots: np.ndarray  # (n_vars, var_deg) slots of each variable, check order; padding -> zero slot
    pad: np.ndarray  # padded slots, whose tanh term is held at 1.0


@lru_cache(maxsize=64)
def _compile(matrix: SparseBinaryMatrix) -> _CompiledGraph:
    m, n = matrix.n_rows, matrix.n_cols
    check_deg = max(max(len(r) for r in matrix.row_support), 1)
    var_deg = max(max(len(c) for c in matrix.col_support), 1)
    n_slots = check_deg * m
    slot_var = np.full(n_slots, n, dtype=np.intp)
    var_slots = np.full((n, var_deg), n_slots, dtype=np.intp)
    filled = np.zeros(n, dtype=np.intp)
    for c, row in enumerate(matrix.row_support):
        for k, v in enumerate(row):
            slot_var[k * m + c] = v
            var_slots[v, filled[v]] = k * m + c
            filled[v] += 1
    return _CompiledGraph(
        n_checks=m,
        n_vars=n,
        check_deg=check_deg,
        slot_var=slot_var,
        var_slots=var_slots,
        pad=np.flatnonzero(slot_var == n),
    )


def _as_matrix(code_or_matrix) -> SparseBinaryMatrix:
    h = getattr(code_or_matrix, "H", code_or_matrix)
    if not isinstance(h, SparseBinaryMatrix):
        raise TypeError("expected an IraCode or SparseBinaryMatrix")
    return h


def decode_batch(
    code_or_matrix,
    channel,
    prior=None,
    max_iter: int = 100,
    early_stop: bool = True,
) -> BatchDecodeResult:
    """Decode B independent LLR vectors against one parity-check matrix.

    Rows that produce a zero syndrome stop updating immediately (their
    messages and outputs freeze), so results per row are identical to
    decoding that row on its own.  With ``early_stop=False`` every row runs
    all ``max_iter`` iterations, which is what an exactness comparison
    against true marginals wants.

    Messages are held batch-last, one row per check slot (see
    ``_CompiledGraph``), and every sum and product runs in slot order, so
    the arithmetic does not depend on B.  Stopped rows write their outputs
    once and leave the working arrays.
    """
    h = _as_matrix(code_or_matrix)
    g = _compile(h)
    channel = np.atleast_2d(np.asarray(channel, dtype=np.float64))
    if channel.shape[1] != g.n_vars:
        raise ValueError(f"channel LLR rows must have length {g.n_vars}")
    if prior is None:
        prior = np.zeros_like(channel)
    else:
        prior = np.atleast_2d(np.asarray(prior, dtype=np.float64))
    if prior.shape != channel.shape:
        raise ValueError("prior shape must match channel shape")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    batch = channel.shape[0]
    m, n, dc = g.n_checks, g.n_vars, g.check_deg
    n_slots = dc * m
    lam = np.zeros((n + 1, batch))
    lam[:n] = (channel + prior).T
    msg_vc = lam[g.slot_var]
    msg_cv = np.zeros((n_slots + 1, batch))
    post = np.zeros((n + 1, batch))

    hard = np.empty((batch, n), dtype=np.uint8)
    posterior = np.empty((batch, n))
    extrinsic = np.empty((batch, n))
    iterations = np.empty(batch, dtype=np.int64)
    valid = np.empty(batch, dtype=bool)

    active = np.arange(batch)
    for it in range(1, max_iter + 1):
        # check update: the product of a check's other tanh terms is a prefix
        # times a suffix running product over its slots, each slot one
        # contiguous (n_checks, B) block
        t = np.clip(msg_vc, -LLR_CLAMP, LLR_CLAMP, out=msg_vc)
        t *= 0.5
        np.tanh(t, out=t)
        t[g.pad] = 1.0
        t = t.reshape(dc, m, -1)
        prefix = np.empty_like(t)
        suffix = np.empty_like(t)
        prefix[0] = suffix[dc - 1] = 1.0
        for k in range(1, dc):
            np.multiply(prefix[k - 1], t[k - 1], out=prefix[k])
            np.multiply(suffix[dc - k], t[dc - k], out=suffix[dc - k - 1])
        prefix *= suffix
        cv = msg_cv[:n_slots]
        np.clip(prefix.reshape(n_slots, -1), -_ATANH_GUARD, _ATANH_GUARD, out=cv)
        np.arctanh(cv, out=cv)
        cv *= 2.0

        # variable update: summed in slot order, the zero slot padding the sum
        ext = msg_cv[g.var_slots[:, 0]]
        for k in range(1, g.var_slots.shape[1]):
            ext += msg_cv[g.var_slots[:, k]]
        np.add(lam[:n], ext, out=post[:n])
        msg_vc = post[g.slot_var]
        msg_vc -= cv

        bits = post < 0
        parity = np.bitwise_xor.reduce(bits[g.slot_var].reshape(dc, m, -1), axis=0)
        zero_syndrome = ~parity.any(axis=0)

        # a row stops at its first zero syndrome or after max_iter; it then
        # writes its outputs once and leaves the working arrays
        if it == max_iter:
            stop = np.ones_like(zero_syndrome)
        elif early_stop and zero_syndrome.any():
            stop = zero_syndrome
        else:
            continue
        rows = active[stop]
        hard[rows] = bits[:n, stop].T
        posterior[rows] = post[:n, stop].T
        extrinsic[rows] = ext[:, stop].T
        iterations[rows] = it
        valid[rows] = zero_syndrome[stop]
        keep = ~stop
        if not keep.any():
            break
        active = active[keep]
        lam, msg_vc, msg_cv, post = lam[:, keep], msg_vc[:, keep], msg_cv[:, keep], post[:, keep]

    return BatchDecodeResult(hard, posterior, extrinsic, iterations, valid)


def decode(
    code_or_matrix,
    channel,
    prior=None,
    max_iter: int = 100,
    early_stop: bool = True,
) -> DecodeResult:
    """Decode one LLR vector; see :func:`decode_batch` for semantics."""
    channel = np.asarray(channel, dtype=np.float64)
    if channel.ndim != 1:
        raise ValueError("decode expects a flat LLR vector")
    res = decode_batch(
        code_or_matrix,
        channel[np.newaxis, :],
        None if prior is None else np.asarray(prior, dtype=np.float64)[np.newaxis, :],
        max_iter=max_iter,
        early_stop=early_stop,
    )
    return DecodeResult(
        hard_bits=res.hard_bits[0],
        posterior=res.posterior[0],
        extrinsic=res.extrinsic[0],
        iterations_used=int(res.iterations_used[0]),
        valid=bool(res.valid[0]),
    )
