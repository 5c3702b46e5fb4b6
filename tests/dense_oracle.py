"""The dense worst-gain oracles, continuous band and sampled, and the window
primitive with one window per beam, for the tests that pin its kernel blocks."""

import numpy as np

from beamsquint import array_model
from beamsquint.array_model import gain_kernel_magnitude


def dense_worst_gain(psi, psi0s, band, n):
    """``max over psi0s of min over the band [band.xi_min, band.xi_max] of
    |g(xi*psi - psi0)|``, one beam at a time over every angle: a pair takes
    0 when its two band-edge offsets have a null ``2j/N`` (j not a multiple
    of N) between them, else its smaller band-edge value. No windows, and
    one beam's angles in memory at a time. Same shape as ``psi``."""
    psi = np.asarray(psi, dtype=float)
    best = np.full(psi.shape, -np.inf)
    for psi0 in np.asarray(psi0s, dtype=float).reshape(-1):
        lo, hi = psi * band.xi_min - psi0, psi * band.xi_max - psi0
        crosses = null_count(lo, n) != null_count(hi, n)
        edge_min = np.minimum(gain_kernel_magnitude(lo, n), gain_kernel_magnitude(hi, n))
        np.maximum(best, np.where(crosses, 0.0, edge_min), out=best)
    return best


def null_count(x, n):
    """The nulls ``2j/N`` of ``|g|`` up to ``x``, j not a multiple of N, less a
    constant: the multiples of 2/N up to x less the multiples of 2."""
    return np.floor(n * x / 2) - np.floor(x / 2)


def sampled_worst_gain(psi, psi0s, xis, n):
    """``max over psi0s of min over the sampled xis of |g(xi*psi - psi0)|``,
    every subcarrier, one beam at a time. Same shape as ``psi``."""
    best = np.full(np.shape(psi), -np.inf)
    for psi0 in np.asarray(psi0s, dtype=float).reshape(-1):
        x = np.multiply.outer(np.asarray(psi, dtype=float), xis) - psi0
        np.maximum(best, gain_kernel_magnitude(x, n).min(axis=-1), out=best)
    return best


def every_beam_windows(psi, psi0s, band, n):
    """``array_model._raise_to_window_mins`` with one window per beam over
    every angle of ``psi`` (1-D): the blocks of ``_band_min`` calls, without
    the window cascade."""
    angles, offsets = np.asarray(psi, dtype=float), np.asarray(psi0s, dtype=float)
    beams, best = np.arange(len(offsets)), np.full(len(angles), -np.inf)
    lo, hi = np.zeros_like(beams), np.full_like(beams, len(angles))
    array_model._raise_to_window_mins(angles, offsets, band, n, lo, hi, beams, best)
    return best
