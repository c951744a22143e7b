"""BPSK over AWGN: modulation, noise, channel LLRs, and Eb/N0 bookkeeping.

Bit 0 maps to +1.0, so a positive LLR favors 0 throughout the package.
Noise is drawn from per-trial counter-derived streams, which keeps Monte
Carlo results independent of worker count and scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "ebno_sigma",
    "modulate",
    "awgn",
    "channel_llr",
    "gaussian_q",
]


def ebno_sigma(ebno_db: float, rate: float) -> float:
    """Noise standard deviation per real dimension for BPSK at a given rate.

    Raises ValueError for an Eb/N0 whose sigma is not a finite positive
    number: NaN, infinities, and magnitudes that overflow or underflow.
    """
    if rate <= 0 or rate > 1:
        raise ValueError("rate must lie in (0, 1]")
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"Eb/N0 of {ebno_db} dB gives no usable noise level")
    return sigma


@dataclass(frozen=True)
class RngStream:
    """One independent, reproducible random stream per Monte Carlo trial."""

    master_seed: int
    stream_index: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=(int(self.master_seed), int(self.stream_index)))
        )


def modulate(bits) -> np.ndarray:
    """BPSK map: 0 -> +1.0, 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def awgn(symbols, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    symbols = np.asarray(symbols, dtype=np.float64)
    return symbols + sigma * rng.standard_normal(symbols.shape)


def channel_llr(y, sigma: float) -> np.ndarray:
    """LLR of a BPSK observation on the AWGN channel: 2y / sigma^2."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)


def gaussian_q(x: float) -> float:
    """Upper-tail probability of the standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
