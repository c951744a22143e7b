"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark's host shares physical cores with other tenants, and its speed
drifts by up to a factor of two over seconds to minutes.  ``HostSpeed.sample``
times a fixed unit of work in three parts of about 3 ms each, one for each
kind of work the benchmark times:

- sum-product iterations on one row, like the single-code decoder;
- one sum-product iteration on a 72-row batch, like the concatenated
  decoders;
- pure-Python dict and integer work, like code construction.

The sum-product parts are a frozen copy of the flooding schedule's array
operations on a random graph shaped like the [181,128] codes.  Nothing here
calls the program, so a change to the program cannot move the calibration.
The whole unit is timed, not each part: in one process a part can run
steadily faster or slower than in the next (memory layout differs), and the
sum of three parts varies less from process to process than any one part.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one unit takes on the 2-core Xeon VM the benchmark was written on,
# when the host is quiet.  Scaled timings read as if the run had that speed.
REFERENCE_UNIT_S = 0.0100

_N, _M, _DC = 181, 53, 14  # variables, checks, check degree
_rng = np.random.default_rng(20260)
_CHECK_OF = np.repeat(np.arange(_M), _DC)
_CHECK_SLOT = np.tile(np.arange(_DC), _M)
_EDGE_VAR = _rng.integers(0, _N, _M * _DC)
_VAR_SLOT = np.zeros(len(_EDGE_VAR), dtype=np.intp)
_next = np.zeros(_N, dtype=np.intp)
for _e, _v in enumerate(_EDGE_VAR):
    _VAR_SLOT[_e] = _next[_v]
    _next[_v] += 1
_DV = int(_next.max())
_LLR = {1: 2.0 + _rng.standard_normal((1, _N)), 72: 2.0 + _rng.standard_normal((72, _N))}


def _spa(lam: np.ndarray, iters: int) -> None:
    batch = lam.shape[0]
    msg = lam[:, _EDGE_VAR].copy()
    for _ in range(iters):
        t = np.ones((batch, _M, _DC))
        t[:, _CHECK_OF, _CHECK_SLOT] = np.tanh(0.5 * np.clip(msg, -50.0, 50.0))
        cp = np.cumprod(t, axis=2)
        prefix = np.concatenate([np.ones_like(t[:, :, :1]), cp[:, :, :-1]], axis=2)
        rcp = np.cumprod(t[:, :, ::-1], axis=2)[:, :, ::-1]
        suffix = np.concatenate([rcp[:, :, 1:], np.ones_like(t[:, :, :1])], axis=2)
        other = (prefix * suffix)[:, _CHECK_OF, _CHECK_SLOT]
        cv = 2.0 * np.arctanh(np.clip(other, -0.999999, 0.999999))
        planes = np.zeros((batch, _N, _DV))
        planes[:, _EDGE_VAR, _VAR_SLOT] = cv
        post = lam + planes.sum(axis=2)
        msg = post[:, _EDGE_VAR] - cv
        sat = np.zeros((batch, _M, _DC), dtype=np.uint8)
        sat[:, _CHECK_OF, _CHECK_SLOT] = (post < 0)[:, _EDGE_VAR]
        (sat.sum(axis=2) & 1).any(axis=1)


def _python() -> None:
    acc: dict[int, int] = {}
    for i in range(28000):
        k = (i * 7919) % 101
        acc[k] = acc.get(k, 0) + (i & 15)


def _unit() -> None:
    _spa(_LLR[1], 40)
    _spa(_LLR[72], 1)
    _python()


class HostSpeed:
    """Calibration units run over one benchmark run."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self.last_unit_s = float("nan")  # mean unit time of the latest sample

    def sample(self, seconds: float) -> float:
        """Run whole units until at least ``seconds`` have passed (one at
        least); return their mean time."""
        t0 = perf_counter()
        units = 0
        while True:
            _unit()
            units += 1
            spent = perf_counter() - t0
            if spent >= seconds:
                break
        self.units += units
        self.seconds += spent
        self.last_unit_s = spent / units
        return self.last_unit_s

    def factor(self) -> float:
        """Mean unit time over the run, over the reference time: above 1 on
        a slow host."""
        return self.seconds / self.units / REFERENCE_UNIT_S
