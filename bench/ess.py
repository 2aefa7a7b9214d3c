"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Statistical Science 7(4).
The asymptotic variance of a chain mean is estimated from sums of adjacent
autocovariance pairs Gamma_m = gamma_{2m} + gamma_{2m+1}, truncated at the
first non-positive pair and forced to be non-increasing.
"""

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Biased sample autocovariance at lags 0..n-1, computed by FFT."""
    x = np.asarray(x, dtype=float).ravel()
    n = len(x)
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:n] / n


def ess_geyer(x) -> float:
    """Effective sample size of a scalar chain.

    A constant series carries one sample's worth of information and gets 1.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = len(x)
    if n < 4:
        raise ValueError(f"need at least 4 draws, got {n}")
    acov = autocovariance(x)
    if acov[0] <= 0:
        return 1.0
    pairs = acov[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpos = np.nonzero(pairs <= 0)[0]
    if len(nonpos):
        pairs = pairs[: nonpos[0]]
    pairs = np.minimum.accumulate(pairs)
    var = -acov[0] + 2.0 * pairs.sum()
    return float(n * acov[0] / var)
