"""The dense worst-gain oracles, continuous band and sampled, and the dense
references for ``numeric_coverage`` and ``verify_codebook`` built on them.

Nothing here calls the window cascade, the coverage scan or verify's screen.
The references share one piece of the package, the threshold-crossing
refiner ``squint._refine_edges``, whose roots ``test_root_finder.py`` pins
against scipy's ``brentq``."""

import functools
import math

import numpy as np

from beamsquint.array_model import _check_n, gain_kernel_magnitude
from beamsquint.codebook import Codebook
from beamsquint.squint import _MAX_GRID_POINTS, BandSpec, CoverageInterval, GainThreshold, _refine_edges
from beamsquint.verification import CoverageReport, _to_db


def dense_worst_gain(psi, psi0s, band, n):
    """``max over psi0s of min over the band [band.xi_min, band.xi_max] of
    |g(xi*psi - psi0)|``, every beam at every angle (:func:`dense_band_mins`),
    in blocks of beams of at most 16,384 (angle, beam) pairs, or of one beam
    where its angles alone exceed that. No windows. Same shape as ``psi``."""
    psi = np.asarray(psi, dtype=float)
    psi0s = np.asarray(psi0s, dtype=float).reshape(-1)
    best = np.full(psi.shape, -np.inf)
    step = max(1, 2**14 // max(psi.size, 1))
    for k in range(0, len(psi0s), step):
        np.maximum(best, dense_band_mins(psi, psi0s[k : k + step], band, n).max(axis=-1), out=best)
    return best


def dense_band_mins(psi, psi0s, band, n):
    """``min over the band of |g(xi*psi - psi0)|`` for every angle of ``psi``
    (leading axes) and focus of ``psi0s`` (last axis): a pair takes 0 when
    its two band-edge offsets have a null ``2j/N`` (j not a multiple of N)
    between them, else its smaller band-edge value."""
    lo, hi = (np.subtract.outer(np.asarray(psi, dtype=float) * xi, psi0s) for xi in (band.xi_min, band.xi_max))
    crosses = null_count(lo, n) != null_count(hi, n)
    return np.where(crosses, 0.0, np.minimum(gain_kernel_magnitude(lo, n), gain_kernel_magnitude(hi, n)))


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


def refined_edge(margin, inside, outside):
    """The refiner's root of ``margin``, an array of angles to an array,
    between a passing and a failing angle. The refiner's margin takes and
    gives lists of Python floats."""
    (root,) = _refine_edges(lambda angles: margin(np.array(angles)).tolist(), [(inside, outside)])
    return root


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) index of every run of True in a 1-D boolean array."""
    flips = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    # a run starts where the mask turns on and ends one point before it turns off
    return list(zip(np.flatnonzero(flips == 1), np.flatnonzero(flips == -1) - 1))


def _memoised(fn):
    """``fn`` computed once per session for each set of arguments, told apart
    by their repr: unlike a hash, it tells -0.0 from 0.0 and 1 from 1.0."""
    cache = {}

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        key = repr((args, kwargs))
        if key not in cache:
            cache[key] = fn(*args, **kwargs)
        return cache[key]

    return cached


@_memoised
def reference_numeric_coverage(
    psi0: float,
    band: BandSpec,
    n_antennas: int,
    threshold: GainThreshold | None = None,
    psi_step: float = 1e-4,
) -> CoverageInterval | None:
    """The coverage oracle that searches the passing runs for the peak's
    and refines that run's two edges, with the dense continuous-band
    oracle, as the reference for the one that takes its edges from the gap
    finder."""
    n = _check_n(n_antennas)
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    thr = threshold if threshold is not None else GainThreshold()
    floor = thr.absolute(n)

    # Search window: the main lobe spans |xi*psi_c - psi0| < 2/N (first
    # nulls); take the union of that over the band-edge ratios.
    lobe = 2.0 / n
    lo_w = min((psi0 - lobe) / band.xi_min, (psi0 - lobe) / band.xi_max)
    hi_w = max((psi0 + lobe) / band.xi_min, (psi0 + lobe) / band.xi_max)
    # also rejects NaN and inf; a step below the window width leaves at least 3 grid points
    width = hi_w - lo_w
    if not (psi_step > 0 and 1 < width / psi_step <= _MAX_GRID_POINTS - 1):
        raise ValueError(f"psi_step must lie in (0, {width!r}), the scan window's width (at most {_MAX_GRID_POINTS} points), got {psi_step!r}")
    n_pts = int(math.ceil(width / psi_step))
    grid = np.linspace(lo_w, hi_w, n_pts + 1)

    psi0s = np.array([psi0])
    q = dense_worst_gain(grid, psi0s, band, n)
    peak = int(np.argmax(q))
    if q[peak] < floor:
        return None
    # the maximal run of passing points that contains the peak
    left, right = next((i, j) for i, j in _runs(q >= floor) if i <= peak <= j)

    def margin(psi_c: list[float]) -> list[float]:
        return (dense_worst_gain(psi_c, psi0s, band, n) - floor).tolist()

    # both edges refined together; a window end pairs with itself and stays
    pairs = [(grid[left], grid[max(left - 1, 0)]), (grid[right], grid[min(right + 1, len(grid) - 1)])]
    lo_edge, hi_edge = _refine_edges(margin, pairs)
    return CoverageInterval(lo_edge, hi_edge)


@_memoised
def reference_verify_codebook(
    codebook: Codebook,
    psi_step: float = 1e-4,
    xi_points: int = 65,
    slack_db: float = 0.2,
) -> CoverageReport:
    """The dense certifier: every beam at every grid angle and refinement
    angle, through the dense oracle, as the reference for the window
    cascade. Each run of failing grid angles is a gap whose two edges are
    refined between the run's end and its passing neighbour, every edge in
    one batch; an edge at a grid end stays."""
    psi_m = codebook.psi_m
    # also rejects NaN; a step up to psi_m leaves at least 3 grid points
    if not 0 < psi_step <= psi_m:
        raise ValueError(f"psi_step must lie in (0, psi_m={psi_m!r}], got {psi_step!r}")
    if not (math.isfinite(slack_db) and slack_db >= 0):
        raise ValueError(f"slack_db must be finite and >= 0, got {slack_db!r}")
    n, band = codebook.n_antennas, codebook.band
    xis = band.xi_grid(xi_points)
    psi0s = np.array([beam.psi0 for beam in codebook.beams])
    pass_level = codebook.threshold.absolute(n) * 10.0 ** (-slack_db / 20.0)

    steps = int(round(2.0 * psi_m / psi_step))
    grid = np.linspace(-psi_m, psi_m, steps + 1)
    best = dense_worst_gain(grid, psi0s, band, n)

    worst_idx = int(np.argmin(best))
    worst_psi = float(grid[worst_idx])
    # the weakest grid xi of the first beam with the largest band min at the worst angle
    mins = dense_band_mins(worst_psi, psi0s, band, n)
    winner = gain_kernel_magnitude(worst_psi * xis - psi0s[int(np.argmax(mins))], n)
    worst_xi = float(xis[int(np.argmin(winner))])

    def margin(psi: list[float]) -> list[float]:
        return (dense_worst_gain(psi, psi0s, band, n) - pass_level).tolist()

    runs, last = _runs(best < pass_level), len(grid) - 1
    lows = [(grid[max(i - 1, 0)], grid[i]) for i, _ in runs]
    edges = _refine_edges(margin, lows + [(grid[min(j + 1, last)], grid[j]) for _, j in runs])
    gaps = tuple(CoverageInterval(lo, hi) for lo, hi in zip(edges[: len(runs)], edges[len(runs) :]))

    return CoverageReport(
        passed=not gaps,
        worst_gain_db=_to_db(float(best[worst_idx]) / math.sqrt(n)),
        worst_psi=worst_psi,
        worst_xi=worst_xi,
        gaps=gaps,
        threshold_db=-codebook.threshold.db_below_max,
        slack_db=slack_db,
        psi_step=psi_step,
        xi_points=xi_points,
        n_antennas=n,
        psi_m=psi_m,
    )
