"""Squint algebra in psi space.

Fractional bandwidth, gain thresholds, analytic squinted beam edges (each
edge its innermost over the band's two edges), the effective beamwidth,
and a numeric coverage oracle that measures a beam's usable interval by
brute force instead of trusting the closed-form edges. A beam's gain at a
carrier angle is its min over the continuous band ``[xi_min, xi_max]``,
which is 0 where the band sweeps the beam across a null.
"""

from __future__ import annotations

import math

from .array_model import _GAIN_CHUNK, _Record, _band_min, _check_n, _kernel_factor_at, _public, gain_kernel_magnitude  # noqa: F401 (perfbench's tracer test calls it here)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

#: Half-power beamwidth constant for a half-wavelength ULA:
#: width in psi space is HALF_POWER_CONSTANT / N, independent of the focus.
HALF_POWER_CONSTANT = 1.772

#: Most points a carrier-angle grid step may ask for (32 MB of float64).
_MAX_GRID_POINTS = 2**22

# Relative tolerance and iteration cap of the Brent root finder.
_BRENT_RTOL = 4.0 * 2.0**-52  # four float64 epsilons
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
        object.__setattr__(self, "fractional_bandwidth", float(b))

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

        Collapses to the single point 1.0 for a zero-width band. ``points``
        is an integral count of 2 to 16,384 (a ValueError otherwise, at any
        b), so that one beam's subcarriers fit one kernel block.
        """
        import numbers

        import numpy as np
        # an integral count in range; NaN, infinities and strings fail before int()
        if not (isinstance(points, numbers.Real) and 2 <= points <= _GAIN_CHUNK and points == int(points)):
            raise ValueError(f"xi grid needs 2 to {_GAIN_CHUNK} points, got {points!r}")
        if self.fractional_bandwidth == 0.0:
            return np.array([1.0])
        return np.linspace(self.xi_min, self.xi_max, int(points))


class GainThreshold(_Record):
    """Minimum acceptable gain as a fraction of the sqrt(N) maximum.

    The default 1/sqrt(2) is the exact half-power (3 dB) amplitude ratio.
    """

    ratio_to_max: float = 1.0 / math.sqrt(2.0)

    def __post_init__(self) -> None:
        r = self.ratio_to_max
        if not (math.isfinite(r) and 0.0 < r <= 1.0):
            raise ValueError(f"ratio_to_max must lie in (0, 1], got {r!r}")
        object.__setattr__(self, "ratio_to_max", float(r))

    @classmethod
    def from_db(cls, db_below_max: float) -> "GainThreshold":
        """Threshold ``db_below_max`` decibels under the peak (amplitude
        10^(-dB/20)); 3.0 means the exact half-power ratio 1/sqrt(2)."""
        if not (math.isfinite(db_below_max) and db_below_max >= 0 and 10.0 ** (-db_below_max / 20.0) >= 2.0**-1022):
            raise ValueError(f"threshold dB must be finite, >= 0 and at most about 6153, where 10^(-dB/20) is a normal float, got {db_below_max!r}")
        if db_below_max == 3.0:
            return cls()
        return cls(10.0 ** (-db_below_max / 20.0))

    @property
    def db_below_max(self) -> float:
        return -20.0 * math.log10(self.ratio_to_max)

    def absolute(self, n_antennas: int) -> float:
        """The gain floor g_t = ratio * sqrt(N) for a concrete array size."""
        return self.ratio_to_max * math.sqrt(_check_n(n_antennas))


_DEFAULT_THRESHOLD = GainThreshold()  # frozen, so one record serves every default


class CoverageInterval(_Record):
    """Carrier-frequency angles [lo, hi] over which a beam meets the gain
    threshold at every frequency of the band.

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


def exact_half_power_beamwidth(n_antennas: int, threshold: GainThreshold = _DEFAULT_THRESHOLD) -> float:
    """Kernel-exact width of the main lobe above the threshold.

    Root of ``|g(x)| = ratio*sqrt(N)`` on the main lobe, refined to 1e-12,
    times two, on the array kernel's bits taken one float at a time.
    Reconciles the 1.772/N approximation: for the default threshold the two
    agree within 1% for all N >= 8.
    """
    n = _check_n(n_antennas)
    target = threshold.absolute(n)
    # gap(0) = (1-ratio)*sqrt(N) >= 0 and gap(2/N), at the first null, = -target < 0;
    # at ratio 1 only the peak attains the maximum, and a root at gap(0) = 0 is 0
    return 2.0 * _refine_edges(lambda x: [abs(_kernel_factor_at(v, n)) - target for v in x], [(0.0, 2.0 / n)], xtol=1e-12)[0]


def _main_lobe_reach(level: float, n: int) -> float:
    """h such that the computed ``|g(x)|`` exceeds ``level`` at every ``|x| < h``:
    the main-lobe root at ``level*(1 + 1e-9)`` less 2e-12 (Brent's last bracket,
    under ``1e-12 + 4*eps*h`` wide, ends beyond h at a passing x, and the exact
    ``|g|`` falls with ``|x|``), at most 1.999/N (below it a computed ``|g|`` is
    within a relative 1e-12 of the exact); 0 if that level is 0 or >= sqrt(N)."""
    ratio = level * (1.0 + 1e-9) / math.sqrt(n)
    return min(0.5 * exact_half_power_beamwidth(n, GainThreshold(ratio)) - 2e-12, 1.999 / n) if 0.0 < ratio < 1.0 else 0.0


def squinted_coverage(psi0: float, band: BandSpec, n_antennas: int) -> CoverageInterval:
    """Analytic squint-reduced coverage of the fine beam focused on ``psi0``.

    Each zero-squint edge psi0 -/+ width/2 divided by both band-edge ratios
    ``band.xi_min`` and ``band.xi_max``, keeping the innermost quotient: the
    edge holds at every frequency of the band. Assumes a contiguous beam range.
    """
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    width = half_power_beamwidth(n_antennas)
    left, right = psi0 - 0.5 * width, psi0 + 0.5 * width
    return CoverageInterval(max(left / band.xi_min, left / band.xi_max), min(right / band.xi_min, right / band.xi_max))


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
    return width / band.xi_max


def focus_from_left_edge(psi_cl: float, band: BandSpec, n_antennas: int) -> float:
    """Focus angle whose squinted left edge sits at ``psi_cl``.

    Inverts the right-half edge relation: psi0 = xi_min*psi_cl + width/2.
    Valid for psi_cl >= 0 (tile the left half by mirroring).
    """
    if not (math.isfinite(psi_cl) and psi_cl >= 0.0):
        raise ValueError(f"psi_cl must be >= 0 (mirror by negation for the left half), got {psi_cl!r}")
    return band.xi_min * psi_cl + 0.5 * half_power_beamwidth(n_antennas)


def numeric_coverage(
    psi0: float,
    band: BandSpec,
    n_antennas: int,
    threshold: GainThreshold = _DEFAULT_THRESHOLD,
    psi_step: float = 1e-4,
) -> CoverageInterval | None:
    """Measure a beam's coverage by brute force.

    Scans carrier angles psi_c around the beam and keeps the maximal
    contiguous interval containing the gain peak on which the min over the
    continuous band ``[xi_min, xi_max]`` of ``|g(xi*psi_c - psi0)|`` is at
    least g_t. Edges are refined to 1e-9. Returns None when no grid point
    qualifies (squint has consumed the beam). Independent of the analytic
    edge formulas, which it exists to check.

    Each angle's min is ``array_model._band_min``: 0 where its band sweeps
    ``x`` across a null, else its smaller band-edge value. The scan takes one
    kernel call per block of angles, at two kernel values per angle; the
    refinement takes each angle's two values one float at a time, no array.
    """
    import numpy as np
    n = _check_n(n_antennas)
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    floor = threshold.absolute(n)

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
    block = _GAIN_CHUNK // 2  # two band-edge values per angle fill one kernel chunk
    q = np.concatenate([_band_min(grid[a : a + block], psi0, band, n) for a in range(0, len(grid), block)])
    peak = int(np.argmax(q))
    if q[peak] < floor:
        return None
    # fail every point outside the maximal passing run that holds the peak:
    # a failing point, or one with a failing point between it and the peak
    count = np.cumsum(below := q < floor)
    failing = below | (count != count[peak])
    # the coverage ends where the gaps on either side begin, or at the window
    # ends; a refinement round takes at most 4 angles, both ends of two edges
    gaps = _failure_gaps(grid, np.flatnonzero(failing), lambda angles: [_band_min(p, psi0, band, n) - floor for p in angles])
    return CoverageInterval(gaps[0].hi if failing[0] else float(grid[0]), gaps[-1].lo if failing[-1] else float(grid[-1]))


def _failure_gaps(grid, failing, margin) -> list[CoverageInterval]:
    """Merge the failing grid points, ``failing`` their ascending indices, into
    intervals, refining all their edges in one batch; an edge at a grid end
    pairs with itself and stays."""
    import numpy as np
    last = len(grid) - 1
    step = np.diff(np.concatenate(([-2], failing, [last + 2]))) != 1  # a run starts after a step and ends before one
    starts, ends = failing[step[:-1]], failing[step[1:]]
    lows = [(grid[max(i - 1, 0)], grid[i]) for i in starts]
    edges = _refine_edges(margin, lows + [(grid[min(j + 1, last)], grid[j]) for j in ends])
    return [CoverageInterval(lo, hi) for lo, hi in zip(edges[: len(starts)], edges[len(starts) :])]


def _refine_edges(margin, pairs, xtol: float = 1e-9) -> list[float]:
    """Root of the threshold crossing in each (passing, failing) pair of
    angles, a Python float; a pair ``(x, x)`` returns x. ``margin`` maps a list
    of Python floats to one, and no round builds an array. Every edge runs
    :func:`_brent`, in lockstep: one ``margin`` call for both ends of all
    pairs (x, y != x), then one per round for the edges still refining."""
    ends = [(float(a), float(b)) for a, b in pairs]  # Brent's scalar steps run on Python floats
    moving = [x for a, b in ends if a != b for x in (a, b)]  # a pair (x, x) is not evaluated: it returns x
    first = iter(margin(moving) if moving else ())
    values = [(next(first), next(first)) if a != b else (0.0, 0.0) for a, b in ends]
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
        asking, replies = still, margin(angles) if still else []
    return roots


def _brent(xpre: float, xcur: float, fpre: float, fcur: float, xtol: float):
    """Brent's method for a root of ``f`` between ``xpre`` and ``xcur``, as a
    generator that yields each x to evaluate, is sent f(x), and returns the root.

    ``fpre`` and ``fcur`` are the nonzero, opposite-signed values of ``f``
    at the ends, as Python floats. A port of scipy's ``brentq.c`` that
    performs the same float operations in the same order (rtol = 4*eps,
    100 iterations), so it returns the same root bit for bit.
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
            try:
                if xpre == xblk:
                    # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # in C the step is +-inf or nan, which the test below rejects
                stry = math.nan
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
