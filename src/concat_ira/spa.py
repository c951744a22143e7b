"""Log-domain sum-product decoding with a-priori input and extrinsic output.

LLR sign convention: positive favors bit 0.  The flooding schedule updates
all checks, then all variables, once per iteration; decoding stops at the
first iteration whose hard decision satisfies every check.  The extrinsic
output for a variable is the sum of its final check-to-variable messages,
excluding both the channel and the prior term, so the value can be handed
to another decoder that holds its own copy of the channel observation.

Inside the loop every LLR is at half scale: channel + prior is halved on
entry, a check output is the ``arctanh`` of its product without the factor
2, and the extrinsic output is doubled on exit.  A power-of-two scale
commutes with rounding, so outputs are bit-identical to full-scale
``2 * arctanh(prod tanh(L/2))`` unless ``|channel + prior| < 2**-1021``.
There is no clamp before ``tanh``: NumPy's float64 ``tanh`` is exactly +-1.0
for |x| >= 19.1 and at +-inf, so a +-50 clamp (+-25 at half scale) changes
no output.

The working arrays come in two pairs of equal buffers, channel terms with
posteriors and variable-to-check with check-to-variable messages.  When rows
stop, the kept columns of the state move into the other buffer of each pair,
whose array is dead at that point, and the two swap roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2 import SparseBinaryMatrix

__all__ = [
    "DecodeResult",
    "BatchDecodeResult",
    "decode",
    "decode_batch",
]

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


class _Workspace:
    """Grow-only working storage of one compiled graph.

    Each buffer is a flat storage of ``rows * capacity`` elements, viewed as
    a contiguous ``(rows, b)`` array at the current active width ``b``, so
    neither an iteration nor a row stop allocates a working array.  ``lam``
    and ``msg_vc``, the only state carried between iterations, each share a
    pair of buffers with an array that is dead at a row stop: ``lam`` with
    ``post`` (``var0``/``var1``) and ``msg_vc`` with ``msg_cv``
    (``slot0``/``slot1``).  A compaction copies the kept columns of ``lam``
    into the storage of ``post`` and those of ``msg_vc`` into the storage of
    ``msg_cv``, and each pair swaps roles.
    """

    def __init__(self, rows: dict):
        self.rows = rows  # name -> (rows, dtype)
        self.capacity = 0
        self.storage = {name: np.empty(0, dtype) for name, (_, dtype) in rows.items()}

    def reserve(self, batch: int) -> None:
        if batch > self.capacity:
            self.storage = {
                name: np.empty(rows * batch, dtype) for name, (rows, dtype) in self.rows.items()
            }
            self.capacity = batch

    def view(self, name: str, b: int) -> np.ndarray:
        rows = self.rows[name][0]
        return self.storage[name][: rows * b].reshape(rows, b)


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
    var_slots: np.ndarray  # (var_deg, n_vars) k-th slot of each variable, check order; padding -> zero slot
    pad: np.ndarray  # padded slots, whose tanh term is held at 1.0
    workspace: _Workspace

    def working(self, b: int, swapped: bool) -> tuple:
        """The working arrays at width b: lam and msg_vc in the halves of
        their pairs that swapped picks, post and msg_cv in the other halves,
        ext and the syndrome buffers, then the per-slot (n_checks, b) views
        of msg_vc and msg_cv that the check update walks.  Nothing is
        written: the zero rows of post and msg_cv are the caller's to set
        once the state has moved out of their storage."""
        ws, s = self.workspace, int(swapped)
        msg_vc = ws.view(f"slot{s}", b)[:-1]
        msg_cv = ws.view(f"slot{1 - s}", b)
        shape = (self.check_deg, self.n_checks, b)
        return (
            ws.view(f"var{s}", b), msg_vc, msg_cv, ws.view(f"var{1 - s}", b),
            ws.view("ext", b), ws.view("slot_bits", b), ws.view("parity", b),
            list(msg_vc.reshape(shape)), list(msg_cv[:-1].reshape(shape)),
        )


@lru_cache(maxsize=64)
def _compile(matrix: SparseBinaryMatrix) -> _CompiledGraph:
    m, n = matrix.n_rows, matrix.n_cols
    check_deg = max(max(len(r) for r in matrix.row_support), 1)
    var_deg = max(max(len(c) for c in matrix.col_support), 1)
    n_slots = check_deg * m
    slot_var = np.full(n_slots, n, dtype=np.intp)
    var_slots = np.full((var_deg, n), n_slots, dtype=np.intp)
    filled = np.zeros(n, dtype=np.intp)
    for c, row in enumerate(matrix.row_support):
        for k, v in enumerate(row):
            slot_var[k * m + c] = v
            var_slots[filled[v], v] = k * m + c
            filled[v] += 1
    workspace = _Workspace({
        "var0": (n + 1, np.float64),  # lam and post
        "var1": (n + 1, np.float64),
        "slot0": (n_slots + 1, np.float64),  # msg_vc and msg_cv
        "slot1": (n_slots + 1, np.float64),
        "ext": (n, np.float64),
        "slot_bits": (n_slots, bool),
        "parity": (m, bool),
    })
    return _CompiledGraph(
        n_checks=m,
        n_vars=n,
        check_deg=check_deg,
        slot_var=slot_var,
        var_slots=var_slots,
        pad=np.flatnonzero(slot_var == n),
        workspace=workspace,
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
    the arithmetic does not depend on B.  Stopped rows write their extrinsic
    once and leave the working arrays.  The working arrays live in the
    graph's ``_Workspace``, which is reused by every call in this process
    and sized for the largest batch seen; it is not safe to decode on one
    graph from two threads at once.  The returned arrays are always new.
    """
    h = _as_matrix(code_or_matrix)
    g = _compile(h)
    channel = np.atleast_2d(np.asarray(channel, dtype=np.float64))
    if channel.shape[1] != g.n_vars:
        raise ValueError(f"channel LLR rows must have length {g.n_vars}")
    if prior is not None:
        prior = np.atleast_2d(np.asarray(prior, dtype=np.float64))
        if prior.shape != channel.shape:
            raise ValueError("prior shape must match channel shape")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    batch = channel.shape[0]
    m, n, dc = g.n_checks, g.n_vars, g.check_deg
    n_slots = dc * m
    g.workspace.reserve(batch)
    b = batch
    swapped = False  # whether lam and msg_vc are in the second halves of their pairs
    lam, msg_vc, msg_cv, post, ext, slot_bits, parity, t, p = g.working(b, swapped)
    # channel + a zero prior, as the prior-free sum has always been formed, halved
    np.add(channel.T, 0.0 if prior is None else prior.T, out=lam[:n])
    lam[:n] *= 0.5
    lam[n] = 0.0
    lam.take(g.slot_var, axis=0, out=msg_vc, mode="clip")
    msg_cv[-1] = post[-1] = 0.0

    extrinsic = np.empty((batch, n))
    iterations = np.empty(batch, dtype=np.int64)
    valid = np.empty(batch, dtype=bool)

    active = np.arange(batch)
    for it in range(1, max_iter + 1):
        # check update: the product of a check's other tanh terms is a prefix
        # times a suffix running product over its slots, each slot one
        # contiguous (n_checks, b) block, t[k] of msg_vc and p[k] of msg_cv.
        # Prefixes fill p[1:], then a running suffix held in p[0] multiplies
        # into them from the top; the products are those of separate prefix
        # and suffix passes starting from 1.0, without the exact factors of 1.0
        np.tanh(msg_vc, out=msg_vc)
        if g.pad.size:
            msg_vc[g.pad] = 1.0
        if dc == 1:
            p[0].fill(1.0)
        else:
            np.copyto(p[1], t[0])
            for k in range(2, dc):
                np.multiply(p[k - 1], t[k - 1], out=p[k])
            np.copyto(p[0], t[dc - 1])
            for k in range(dc - 2, 0, -1):
                np.multiply(p[k], p[0], out=p[k])
                np.multiply(p[0], t[k], out=p[0])
        cv = msg_cv[:n_slots]
        cv.clip(-_ATANH_GUARD, _ATANH_GUARD, out=cv)
        np.arctanh(cv, out=cv)

        # variable update: summed in slot order, the zero slot padding the
        # sum, the terms gathered into post[:n] before post is formed there;
        # every index is in range, and mode="clip" skips take's copy of out
        msg_cv.take(g.var_slots[0], axis=0, out=ext, mode="clip")
        for slots in g.var_slots[1:]:
            ext += msg_cv.take(slots, axis=0, out=post[:n], mode="clip")
        np.add(lam[:n], ext, out=post[:n])
        post.take(g.slot_var, axis=0, out=msg_vc, mode="clip")
        np.less(msg_vc, 0.0, out=slot_bits)  # hard decisions by slot, padding 0
        msg_vc -= cv

        np.bitwise_xor.reduce(slot_bits.reshape(dc, m, b), axis=0, out=parity)
        zero_syndrome = ~parity.any(axis=0)

        # a row stops at its first zero syndrome or after max_iter; it then
        # writes its extrinsic, iterations and validity once and leaves the
        # working arrays, of which only lam and msg_vc carry state onwards
        if it == max_iter:
            stop = np.ones_like(zero_syndrome)
        elif early_stop and zero_syndrome.any():
            stop = zero_syndrome
        else:
            continue
        rows = active[stop]
        extrinsic[rows] = ext[:, stop].T
        iterations[rows] = it
        valid[rows] = zero_syndrome[stop]
        keep = np.flatnonzero(~stop)
        if not keep.size:
            break
        active = active[keep]
        b = keep.size
        # post and msg_cv are dead here: the kept state moves into their
        # storage, and each pair swaps roles
        swapped = not swapped
        kept_lam, kept_vc, msg_cv, post, ext, slot_bits, parity, t, p = g.working(b, swapped)
        lam = lam.take(keep, axis=1, out=kept_lam, mode="clip")
        msg_vc = msg_vc.take(keep, axis=1, out=kept_vc, mode="clip")
        msg_cv[-1] = post[-1] = 0.0

    extrinsic *= 2.0  # full scale: this posterior rounds as the loop's post did
    posterior = np.add(channel, 0.0 if prior is None else prior, order="C")
    posterior += extrinsic
    hard = (posterior < 0.0).view(np.uint8)
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
    res = decode_batch(code_or_matrix, channel[np.newaxis, :], prior, max_iter, early_stop)
    return DecodeResult(
        hard_bits=res.hard_bits[0],
        posterior=res.posterior[0],
        extrinsic=res.extrinsic[0],
        iterations_used=int(res.iterations_used[0]),
        valid=bool(res.valid[0]),
    )
