"""Brute-force certification of codebooks and size-vs-parameter sweeps.

The certifier grids the target angle range, takes for every carrier angle
the best beam's worst-subcarrier gain, and reports the global worst case
plus any contiguous failure gaps. Grid evaluation is deterministic:
fixed grids, order-independent min/max reductions.
"""

from __future__ import annotations

import math

from .array_model import _GAIN_CHUNK, _Record, _public, _raise_to_window_mins, _ranges, gain_kernel_magnitude, worst_subcarrier_gain
from .codebook import Codebook, _foci, max_antennas, max_fractional_bandwidth, min_size_no_squint
from .squint import _MAX_GRID_POINTS, BandSpec, CoverageInterval, _failure_gaps

_DB_FLOOR = 1e-15


def _to_db(amplitude: float) -> float:
    return 20.0 * math.log10(max(amplitude, _DB_FLOOR))


class CoverageReport(_Record):
    """Outcome of a brute-force codebook certification.

    ``worst_gain_db`` is relative to the sqrt(N) maximum; ``gaps`` lists
    the carrier-angle intervals where no beam clears the (slack-adjusted)
    threshold. ``passed`` holds exactly when there are no gaps, i.e. when
    ``worst_gain_db >= threshold_db - slack_db`` over the grid.
    """

    passed: bool
    worst_gain_db: float
    worst_psi: float
    worst_xi: float
    gaps: tuple[CoverageInterval, ...]
    threshold_db: float
    slack_db: float
    psi_step: float
    xi_points: int
    n_antennas: int
    psi_m: float

    def to_dict(self) -> dict:
        """The fields in order, ``passed`` written as "pass" and each gap as a dict."""
        doc = {"pass" if k == "passed" else k: v for k, v in self._asdict().items()}
        doc["gaps"] = [g._asdict() for g in self.gaps]
        return doc

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_dict(), indent=2) + "\n"


def verify_codebook(
    codebook: Codebook,
    psi_step: float = 1e-4,
    xi_points: int = 65,
    slack_db: float = 0.2,
) -> CoverageReport:
    """Certify minimum gain across all subcarriers over [-psi_m, psi_m].

    For each carrier angle on the grid: max over beams of (min over the xi
    grid of |g(xi*psi - psi0)|). Failures are data, not exceptions; gap
    edges are refined to 1e-9. ``slack_db`` absorbs the 1.772/N
    beamwidth approximation when certifying constant-width designs (use 0
    for exact-width designs).

    Each beam is evaluated only on windows that widen round by round, h =
    1/N, 2/N, 4/N, ..., 1: the angles where ``x = xi*psi - psi0 - 2k`` at
    the mid-band ``xi`` is within h of a lobe image (k != 0: grating lobes).
    Outside them ``|g(x)| <= 1/(sqrt(N)*|sin(pi*x/2)|) <= E(h) = 1/(sqrt(N)*
    sin(pi*h/2))``, which bounds the beam's min over subcarriers; so an angle
    whose best beats E(h) is final, and only the others go on. At h = 1 all
    beams are in a window. The kernel is element-wise and max/min are exact,
    so the report is bit for bit that of every beam at every angle.
    """
    import numpy as np
    psi_m = codebook.psi_m
    # also rejects NaN; a step up to psi_m leaves at least 3 grid points
    if not (0 < psi_step <= psi_m and 2.0 * psi_m / psi_step <= _MAX_GRID_POINTS - 1):
        raise ValueError(f"psi_step must lie in (0, psi_m={psi_m!r}] (at most {_MAX_GRID_POINTS} points), got {psi_step!r}")
    if not (math.isfinite(slack_db) and slack_db >= 0):
        raise ValueError(f"slack_db must be finite and >= 0, got {slack_db!r}")
    n = codebook.n_antennas
    xis = codebook.band.xi_grid(xi_points)
    psi0s = np.array(codebook.foci)
    pass_level = codebook.threshold.absolute(n) * 10.0 ** (-slack_db / 20.0)

    steps = int(round(2.0 * psi_m / psi_step))
    grid = np.linspace(-psi_m, psi_m, steps + 1)
    best = _windowed_worst_gain(grid, psi0s, xis, n)

    worst_idx = int(np.argmin(best))
    worst_psi = float(grid[worst_idx])
    # xi of the min of the (first) beam that wins at the worst angle; mins in blocks of beams
    rows = _GAIN_CHUNK // len(xis)
    blocks = (gain_kernel_magnitude(worst_psi * xis - psi0s[i : i + rows, None], n) for i in range(0, len(psi0s), rows))
    winner = max((g[int(np.argmax(g.min(axis=1)))].copy() for g in blocks), key=np.min)  # max keeps the first of equals
    worst_xi = float(xis[int(np.argmin(winner))])

    gaps = _failure_gaps(grid, best < pass_level, lambda psi: worst_subcarrier_gain(psi, psi0s, xis, n) - pass_level)

    return CoverageReport(
        passed=not gaps,
        worst_gain_db=_to_db(float(best[worst_idx]) / math.sqrt(n)),
        worst_psi=worst_psi,
        worst_xi=worst_xi,
        gaps=tuple(gaps),
        threshold_db=-codebook.threshold.db_below_max,
        slack_db=slack_db,
        psi_step=psi_step,
        xi_points=xi_points,
        n_antennas=n,
        psi_m=psi_m,
    )


def _windowed_worst_gain(grid, psi0s, xis, n):
    """``worst_subcarrier_gain(grid, psi0s, xis, n)`` on an evenly spaced grid by
    the window cascade of :func:`verify_codebook`, each round on the angles left."""
    import numpy as np
    step, xi, h = grid[1] - grid[0], xis[len(xis) // 2], 1.0 / n
    best, todo = np.full(len(grid), -1.0), slice(None)  # the first round on the grid itself
    while True:
        # E(h), raised by a relative margin that covers the kernel's rounding; at h = 1 every beam is in
        floor = (1.0 + 1e-9) / (math.sqrt(n) * math.sin(0.5 * math.pi * h)) if h < 1 else -math.inf
        angles, part = grid[todo], best[todo]
        k_lo = np.ceil((xi * grid[0] - psi0s - h) / 2)  # one window per beam and lobe image k that reaches the grid
        count = (np.floor((xi * grid[-1] - psi0s + h) / 2) - k_lo + 1).astype(int)
        beams = np.repeat(np.arange(len(psi0s)), count)
        centre = psi0s[beams] + 2 * _ranges(k_lo, count)
        # the angles of each window, padded by two steps against rounding
        lo, hi = np.searchsorted(angles, [(centre - h) / xi - 2 * step, (centre + h) / xi + 2 * step])
        _raise_to_window_mins(angles, psi0s, xis, n, lo, hi, beams, part, floor)
        best[todo] = part
        todo, h = np.flatnonzero(best <= floor), min(2 * h, 1.0)
        if not len(todo):
            return best


class SweepPoint(_Record):
    """One sweep sample: axis value, codebook size (None = infeasible),
    and the feasibility bound annotated for that series."""

    axis_value: float
    size: int | None
    bound: float

    def __init__(self, axis_value: float, size: int | None, bound: float) -> None:
        # the generic constructor, unrolled: a sweep builds one point per size
        object.__setattr__(self, "__dict__", {"axis_value": axis_value, "size": size, "bound": bound})

    @property
    def feasible(self) -> bool:
        return self.size is not None


class SweepSeries(_Record):
    label: str
    points: tuple[SweepPoint, ...]


class SweepTable(_Record):
    """Sweep results, one series per fixed parameter.

    ``to_csv`` emits ``axis,value_or_status,bound`` rows; multiple series
    are separated by ``# series: <label>`` comment lines.
    """

    axis: str
    series: tuple[SweepSeries, ...]

    def to_csv(self) -> str:
        lines = ["axis,value_or_status,bound"]
        multi = len(self.series) > 1
        for s in self.series:
            if multi:
                lines.append(f"# series: {s.label}")
            for p in s.points:
                value = "INFEASIBLE" if p.size is None else str(p.size)
                lines.append(f"{p.axis_value},{value},{p.bound}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """The table as JSON values: an unbounded series writes its bound as
        null, as JSON has no infinity."""
        def point(p: SweepPoint) -> dict:
            return {**p._asdict(), "bound": None if math.isinf(p.bound) else p.bound}

        series = [{"label": s.label, "points": [point(p) for p in s.points]} for s in self.series]
        return {"axis": self.axis, "series": series}


def _size(n: int, band: BandSpec, psi_m: float) -> int | None:
    """Minimum codebook size from the design plan, None when infeasible;
    builds no codebook, no infeasibility report, nor at b = 0 any foci."""
    if band.fractional_bandwidth == 0.0:
        return min_size_no_squint(n, psi_m)
    foci = _foci(n, band, psi_m)
    return None if foci is None else len(foci)


def sweep_size_vs_b(
    n_antennas_list: list[int], b_grid: list[float], psi_m: float = 1.0
) -> SweepTable:
    """Minimum codebook size as the fractional bandwidth grows, one series
    per array size; the bound column is the per-N vertical asymptote."""
    if not n_antennas_list or not len(b_grid):
        raise ValueError("sweep grids must be non-empty")
    series, bands = [], [BandSpec(float(b)) for b in b_grid]  # one band per b, shared by the series
    for n in n_antennas_list:
        bound = max_fractional_bandwidth(n, psi_m)
        points = [SweepPoint(band.fractional_bandwidth, _size(n, band, psi_m), bound) for band in bands]
        series.append(SweepSeries(f"N={n}", tuple(points)))
    return SweepTable("fractional_bandwidth", tuple(series))


def sweep_size_vs_n(
    b_list: list[float], n_range: list[int], psi_m: float = 1.0
) -> SweepTable:
    """Minimum codebook size as the array grows, one series per fractional
    bandwidth; the bound column is floor(1.772/(psi_m*b))."""
    if not len(b_list) or not len(n_range):
        raise ValueError("sweep grids must be non-empty")
    series = []
    for b in b_list:
        band = BandSpec(float(b))
        n_cap = max_antennas(band, psi_m)
        bound = math.inf if n_cap is None else float(n_cap)
        points = [SweepPoint(float(n), _size(int(n), band, psi_m), bound) for n in n_range]
        series.append(SweepSeries(f"b={b:g}", tuple(points)))
    return SweepTable("n_antennas", tuple(series))


__all__ = _public(globals())
