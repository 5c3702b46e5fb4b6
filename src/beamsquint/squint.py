"""Squint algebra in psi space.

Fractional bandwidth, gain thresholds, analytic squinted beam edges for
every sign case, the effective beamwidth, and a numeric coverage oracle
that measures a beam's usable interval by brute force instead of trusting
the closed-form edges.
"""

from __future__ import annotations

import math
import sys

from .array_model import _GAIN_CHUNK, _Record, _check_n, _public, _raise_to_window_mins, gain_kernel_magnitude

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

#: Half-power beamwidth constant for a half-wavelength ULA:
#: width in psi space is HALF_POWER_CONSTANT / N, independent of the focus.
HALF_POWER_CONSTANT = 1.772

#: Most points a carrier-angle grid step may ask for (32 MB of float64).
_MAX_GRID_POINTS = 2**22

# Relative tolerance and iteration cap of the Brent root finder.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


class BandSpec(_Record):
    """Band geometry as fractional bandwidth ``b = B / f_c``.

    Subcarrier frequencies span ``xi in [1 - b/2, 1 + b/2]`` relative to the
    carrier.
    """

    fractional_bandwidth: float

    def __post_init__(self) -> None:
        b = self.fractional_bandwidth
        if not (math.isfinite(b) and 0.0 <= b < 2.0):
            raise ValueError(f"fractional_bandwidth must satisfy 0 <= b < 2, got {b!r}")

    @classmethod
    def from_carrier(cls, carrier_freq_hz: float, bandwidth_hz: float) -> "BandSpec":
        """Band from absolute carrier and baseband bandwidth; b = B/f_c exactly."""
        if not (math.isfinite(carrier_freq_hz) and carrier_freq_hz > 0):
            raise ValueError(f"carrier frequency must be positive, got {carrier_freq_hz!r}")
        if not (math.isfinite(bandwidth_hz) and bandwidth_hz >= 0):
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth_hz!r}")
        return cls(bandwidth_hz / carrier_freq_hz)

    @property
    def xi_min(self) -> float:
        return 1.0 - 0.5 * self.fractional_bandwidth

    @property
    def xi_max(self) -> float:
        return 1.0 + 0.5 * self.fractional_bandwidth

    def xi_grid(self, points: int = 65) -> np.ndarray:
        """Evenly spaced subcarrier ratios including both band edges.

        Collapses to the single point 1.0 for a zero-width band. At most
        16,384 points, so that one pair's subcarriers fit one kernel block.
        """
        import numpy as np
        if not 2 <= points <= _GAIN_CHUNK:
            raise ValueError(f"xi grid needs 2 to {_GAIN_CHUNK} points, got {points}")
        if self.fractional_bandwidth == 0.0:
            return np.array([1.0])
        return np.linspace(self.xi_min, self.xi_max, points)


class GainThreshold(_Record):
    """Minimum acceptable gain as a fraction of the sqrt(N) maximum.

    The default 1/sqrt(2) is the exact half-power (3 dB) amplitude ratio.
    """

    ratio_to_max: float = 1.0 / math.sqrt(2.0)

    def __post_init__(self) -> None:
        r = self.ratio_to_max
        if not (math.isfinite(r) and 0.0 < r <= 1.0):
            raise ValueError(f"ratio_to_max must lie in (0, 1], got {r!r}")

    @classmethod
    def from_db(cls, db_below_max: float) -> "GainThreshold":
        """Threshold ``db_below_max`` decibels under the peak (amplitude
        10^(-dB/20)); 3.0 means the exact half-power ratio 1/sqrt(2)."""
        if not (math.isfinite(db_below_max) and db_below_max >= 0):
            raise ValueError(f"threshold dB must be finite and >= 0, got {db_below_max!r}")
        if db_below_max == 3.0:
            return cls()
        return cls(10.0 ** (-db_below_max / 20.0))

    @property
    def db_below_max(self) -> float:
        return -20.0 * math.log10(self.ratio_to_max)

    def absolute(self, n_antennas: int) -> float:
        """The gain floor g_t = ratio * sqrt(N) for a concrete array size."""
        return self.ratio_to_max * math.sqrt(_check_n(n_antennas))


class CoverageInterval(_Record):
    """Carrier-frequency angles [lo, hi] over which a beam meets the gain
    threshold at every subcarrier in the band.

    A degenerate interval (lo >= hi) signals that squint has consumed the
    whole beam; it is reported, not raised, so sweeps can tabulate
    infeasibility. Values are never clipped to [-1, 1] here: edge algebra
    must stay invertible, and only the design layer intersects with the
    target range.
    """

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo >= self.hi

    def mirrored(self) -> "CoverageInterval":
        """Coverage of the beam at the negated focus angle."""
        return CoverageInterval(-self.hi, -self.lo)

    def contains(self, psi: float) -> bool:
        return self.lo <= psi <= self.hi


def half_power_beamwidth(n_antennas: int) -> float:
    """3 dB beamwidth 1.772/N in psi space, the design constant.

    Constant in psi space (unlike the theta-space width, which grows with
    the steering angle).
    """
    return HALF_POWER_CONSTANT / _check_n(n_antennas)


def exact_half_power_beamwidth(
    n_antennas: int, threshold: GainThreshold | None = None
) -> float:
    """Kernel-exact width of the main lobe above the threshold.

    Root of ``|g(x)| = ratio*sqrt(N)`` on the main lobe, refined to 1e-12,
    times two. Reconciles the 1.772/N approximation: for the default
    threshold the two agree within 1% for all N >= 8.
    """
    n = _check_n(n_antennas)
    thr = threshold if threshold is not None else GainThreshold()
    if thr.ratio_to_max >= 1.0:
        return 0.0  # only the peak itself attains the maximum
    target = thr.absolute(n)
    first_null = 2.0 / n

    def gap(x: np.ndarray) -> np.ndarray:
        return gain_kernel_magnitude(x, n) - target

    # gap(0) = (1-ratio)*sqrt(N) > 0 and gap(first_null) = -target < 0
    return 2.0 * _refine_edges(gap, [(0.0, first_null)], xtol=1e-12)[0]


def squinted_coverage(psi0: float, band: BandSpec, n_antennas: int) -> CoverageInterval:
    """Analytic squint-reduced coverage of the fine beam focused on ``psi0``.

    The zero-squint edges psi0 -/+ width/2 shrink toward broadside by the
    band-edge frequency ratios; the divisor depends on which side of
    broadside each edge falls. Assumes a contiguous beam range.
    """
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    width = half_power_beamwidth(n_antennas)
    b = band.fractional_bandwidth
    left = psi0 - 0.5 * width
    right = psi0 + 0.5 * width
    if left > 0.0 and right > 0.0:
        return CoverageInterval(left / (1.0 - 0.5 * b), right / (1.0 + 0.5 * b))
    if left < 0.0 and right < 0.0:
        return CoverageInterval(left / (1.0 + 0.5 * b), right / (1.0 - 0.5 * b))
    # beam straddles broadside: both edges are set by the highest frequency
    return CoverageInterval(left / (1.0 + 0.5 * b), right / (1.0 + 0.5 * b))


def effective_beamwidth(psi0: float, band: BandSpec, n_antennas: int) -> float:
    """Width of the squinted coverage, in closed form.

    ``(width - b*|psi0|) / (1 - b^2/4)`` when the zero-squint beam lies
    entirely on one side of broadside, else ``width / (1 + b/2)``. Equals
    the :func:`squinted_coverage` width to within 1e-12; non-positive
    values mean squint has consumed the beam (the caller checks).
    """
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    width = half_power_beamwidth(n_antennas)
    b = band.fractional_bandwidth
    if (psi0 - 0.5 * width) * (psi0 + 0.5 * width) > 0.0:
        return (width - b * abs(psi0)) / (1.0 - 0.25 * b * b)
    return width / (1.0 + 0.5 * b)


def focus_from_left_edge(psi_cl: float, band: BandSpec, n_antennas: int) -> float:
    """Focus angle whose squinted left edge sits at ``psi_cl``.

    Inverts the right-half edge relation: psi0 = (1 - b/2)*psi_cl + width/2.
    Valid for psi_cl >= 0 (tile the left half by mirroring).
    """
    if not (math.isfinite(psi_cl) and psi_cl >= 0.0):
        raise ValueError(
            f"psi_cl must be >= 0 (mirror by negation for the left half), got {psi_cl!r}"
        )
    width = half_power_beamwidth(n_antennas)
    b = band.fractional_bandwidth
    return (1.0 - 0.5 * b) * psi_cl + 0.5 * width


def numeric_coverage(
    psi0: float,
    band: BandSpec,
    n_antennas: int,
    threshold: GainThreshold | None = None,
    psi_step: float = 1e-4,
    xi_points: int = 65,
) -> CoverageInterval | None:
    """Measure a beam's coverage by brute force.

    Scans carrier angles psi_c around the beam and keeps the maximal
    contiguous interval containing the gain peak on which
    ``min over the xi grid of |g(xi*psi_c - psi0)| >= g_t``. Edges are
    refined to 1e-9. Returns None when no grid point qualifies (squint
    has consumed the beam). Independent of the analytic edge formulas,
    which it exists to check.

    The scan's bar is the float just under g_t. An angle whose band-edge
    bound (at least its exact min) does not beat it fails either way and
    stays at -inf, unevaluated; passing values are exact, so no bit moves.
    """
    import numpy as np
    n = _check_n(n_antennas)
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    xis = band.xi_grid(xi_points)
    floor = (threshold or GainThreshold()).absolute(n)

    # Search window: the main lobe spans |xi*psi_c - psi0| < 2/N (first
    # nulls); take the union of that over the band-edge ratios.
    lobe = 2.0 / n
    lo_w = min((psi0 - lobe) / band.xi_min, (psi0 - lobe) / band.xi_max)
    hi_w = max((psi0 + lobe) / band.xi_min, (psi0 + lobe) / band.xi_max)
    # also rejects NaN and inf; a step below the window width leaves at least 3 grid points
    width = hi_w - lo_w
    if not (psi_step > 0 and 1 < width / psi_step <= _MAX_GRID_POINTS - 1):
        raise ValueError(f"psi_step must lie in (0, {width!r}), the scan window's width (at most {_MAX_GRID_POINTS} points), got {psi_step!r}")
    grid = np.linspace(lo_w, hi_w, int(math.ceil(width / psi_step)) + 1)

    q = np.full(len(grid), -math.inf)  # one window, all of the grid
    _raise_to_window_mins(grid, np.array([psi0]), xis, n, *np.array([[0], [len(grid)], [0]]), q, math.nextafter(floor, -math.inf))
    peak = int(np.argmax(q))
    if q[peak] < floor:
        return None
    # fail every point outside the maximal passing run that holds the peak:
    # a failing point, or one with a failing point between it and the peak
    count = np.cumsum(below := q < floor)
    failing = below | (count != count[peak])
    # the coverage ends where the gaps on either side begin, or at the window
    # ends; a refinement round takes at most 4 angles, both ends of two edges
    gaps = _failure_gaps(grid, failing, lambda psi_c: gain_kernel_magnitude(np.multiply.outer(psi_c, xis) - psi0, n).min(axis=-1) - floor)
    return CoverageInterval(gaps[0].hi if failing[0] else float(grid[0]), gaps[-1].lo if failing[-1] else float(grid[-1]))


def _failure_gaps(grid, failing, margin) -> list[CoverageInterval]:
    """Merge failing grid points into intervals, refining all their edges
    in one batch; an edge at a grid end pairs with itself and stays."""
    import numpy as np
    last = len(grid) - 1
    # a run starts where the mask turns on and ends one point before it turns off
    flips = np.diff(np.concatenate(([0], failing.astype(np.int8), [0])))
    starts, ends = np.flatnonzero(flips == 1), np.flatnonzero(flips == -1) - 1
    lows = [(grid[max(i - 1, 0)], grid[i]) for i in starts]
    edges = _refine_edges(margin, lows + [(grid[min(j + 1, last)], grid[j]) for j in ends])
    return [CoverageInterval(lo, hi) for lo, hi in zip(edges[: len(starts)], edges[len(starts) :])]


def _refine_edges(margin, pairs, xtol: float = 1e-9) -> list[float]:
    """Root of the threshold crossing in each (passing, failing) pair of
    angles; a pair ``(x, x)`` returns x. ``margin`` maps an array of angles
    to an array. Every edge runs :func:`_brent`, in lockstep: one ``margin``
    call for both ends of all pairs (x, y != x), then one per round for the
    edges still refining."""
    import numpy as np
    ends = np.asarray(pairs, dtype=float).reshape(-1, 2)
    values = np.zeros_like(ends)  # a pair (x, x) is not evaluated: it returns x
    moving = ends[:, 0] != ends[:, 1]
    if moving.any():
        values[moving] = margin(ends[moving].reshape(-1)).reshape(-1, 2)
    # no sign change (flat numerics right at the threshold): keep the passing point
    roots = [b if fa != 0.0 and fb == 0.0 else a for (a, b), (fa, fb) in zip(ends, values)]
    asking = [(k, _brent(*ends[k], *f, xtol)) for k, f in enumerate(values) if f[0] > 0.0 > f[1]]
    replies = [None] * len(asking)  # a fresh iteration is sent None first
    while asking:
        angles, still = [], []
        for (k, steps), reply in zip(asking, replies):
            try:
                angles.append(steps.send(reply))
                still.append((k, steps))
            except StopIteration as done:  # a bracket narrower than xtol returns at once
                roots[k] = done.value
        asking, replies = still, margin(np.array(angles)) if still else []
    return [float(root) for root in roots]


def _brent(xpre: float, xcur: float, fpre: float, fcur: float, xtol: float):
    """Brent's method for a root of ``f`` between ``xpre`` and ``xcur``, as a
    generator that yields each x to evaluate, is sent f(x), and returns the root.

    ``fpre`` and ``fcur`` are the nonzero, opposite-signed values of ``f``
    at the ends. A port of scipy's ``brentq.c`` that performs the same
    float operations in the same order (rtol = 4*eps, 100 iterations), so
    it returns the same root bit for bit.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise RuntimeError(f"root finder did not converge in {_BRENT_MAXITER} iterations")


__all__ = ["HALF_POWER_CONSTANT", *_public(globals())]
