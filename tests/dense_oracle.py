"""The dense worst-subcarrier oracle, and the pair primitive with one window
per beam, for the tests that pin its kernel blocks."""

import numpy as np

from beamsquint import array_model
from beamsquint.array_model import gain_kernel_magnitude


def dense_worst_gain(psi, psi0s, xis, n):
    """``max over psi0s of min over xis of |g(xi*psi - psi0)|``, one beam at
    a time over every angle: no lobe rule and no windows, and one beam's
    angles x subcarriers block in memory. Same shape as ``psi``."""
    best = np.full(np.shape(psi), -np.inf)
    for psi0 in np.asarray(psi0s, dtype=float).reshape(-1):
        x = np.multiply.outer(np.asarray(psi, dtype=float), xis) - psi0
        np.maximum(best, gain_kernel_magnitude(x, n).min(axis=-1), out=best)
    return best


def every_beam_windows(psi, psi0s, xis, n):
    """``array_model._raise_to_window_mins`` with one window per beam over
    every angle of ``psi`` (1-D) and no bar: the blocks and the per-angle bar
    of the pair primitive, without the window cascade."""
    angles, offsets = np.asarray(psi, dtype=float), np.asarray(psi0s, dtype=float)
    beams, best = np.arange(len(offsets)), np.full(len(angles), -np.inf)
    lo, hi = np.zeros_like(beams), np.full_like(beams, len(angles))
    array_model._raise_to_window_mins(angles, offsets, np.asarray(xis, dtype=float), n, lo, hi, beams, best, -np.inf)
    return best
