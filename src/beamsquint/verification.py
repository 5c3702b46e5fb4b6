"""Brute-force certification of codebooks and size-vs-parameter sweeps.

The certifier grids the target angle range, takes for every carrier angle
the best beam's min gain over the band, and reports the global worst case
plus any contiguous failure gaps. Grid evaluation is deterministic:
fixed grids, order-independent min/max reductions.
"""

from __future__ import annotations

import math

from .array_model import _Record, _band_min, _cell_screen, _public, gain_kernel_magnitude, worst_subcarrier_gain
from .codebook import Codebook, _foci, max_antennas, max_fractional_bandwidth, min_size_no_squint
from .squint import _MAX_GRID_POINTS, BandSpec, CoverageInterval, _failure_gaps, _main_lobe_reach

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


def verify_codebook(codebook: Codebook, psi_step: float = 1e-4, xi_points: int = 65, slack_db: float = 0.2) -> CoverageReport:
    """Certify minimum gain across the band over [-psi_m, psi_m].

    For each carrier angle on the grid: max over beams of the min over the
    continuous band ``[xi_min, xi_max]`` of ``|g(xi*psi - psi0)|``
    (:func:`worst_subcarrier_gain`, also the refinement margin), taken where
    the focus nearest at the carrier reaches, at a band edge, at least
    ``squint._main_lobe_reach(bar)``, ``bar`` being the larger of the pass
    level and the best at an angle of largest reach. ``array_model._cell_screen``
    keeps those angles per beam from closed-form cuts less a stated margin; at
    an angle that it leaves out that beam's band min exceeds ``bar``, so the best
    > bar >= the worst best: no bit of the report moves. Failures are data, not
    exceptions; gap edges are refined to 1e-9.
    ``slack_db`` absorbs the 1.772/N beamwidth approximation when certifying
    constant-width designs (use 0 for exact-width designs). ``xi_points``, an
    integer count, sets only the subcarrier grid on which ``worst_xi`` is
    read: the weakest grid point of the first beam that sets
    ``worst_gain_db`` at ``worst_psi``. The report holds the parameters as
    Python int and floats.
    """
    import numpy as np
    psi_m = codebook.psi_m
    # also rejects NaN; a step up to psi_m leaves at least 3 grid points
    if not (0 < psi_step <= psi_m and 2.0 * psi_m / psi_step <= _MAX_GRID_POINTS - 1):
        raise ValueError(f"psi_step must lie in (0, psi_m={psi_m!r}] (at most {_MAX_GRID_POINTS} points), got {psi_step!r}")
    if not (math.isfinite(slack_db) and slack_db >= 0):
        raise ValueError(f"slack_db must be finite and >= 0, got {slack_db!r}")
    n, band = codebook.n_antennas, codebook.band
    xis = band.xi_grid(xi_points)  # validates xi_points before the sweep
    psi0s = np.array(codebook.foci)
    pass_level = codebook.threshold.absolute(n) * 10.0 ** (-slack_db / 20.0)

    steps = int(round(2.0 * psi_m / psi_step))
    grid = np.linspace(-psi_m, psi_m, steps + 1)
    # bar: the pass level, or the best at the angle of largest reach where higher
    cand = _cell_screen(grid, psi0s, band, lambda psi: _main_lobe_reach(max(float(_band_min(psi, psi0s, band, n).max()), pass_level), n))
    best = worst_subcarrier_gain(grid[cand], psi0s, band, n)

    worst = int(np.argmin(best))
    worst_psi = float(grid[cand[worst]])
    # argmax takes the first of the beams whose band min at the worst angle is best
    winner = psi0s[int(np.argmax(_band_min(worst_psi, psi0s, band, n)))]
    worst_xi = float(xis[int(np.argmin(gain_kernel_magnitude(worst_psi * xis - winner, n)))])

    gaps = _failure_gaps(grid, cand[best < pass_level], lambda psi: (worst_subcarrier_gain(np.array(psi), psi0s, band, n) - pass_level).tolist())

    return CoverageReport(
        passed=not gaps,
        worst_gain_db=_to_db(float(best[worst]) / math.sqrt(n)),
        worst_psi=worst_psi,
        worst_xi=worst_xi,
        gaps=tuple(gaps),
        threshold_db=-codebook.threshold.db_below_max,
        slack_db=float(slack_db),
        psi_step=float(psi_step),
        xi_points=int(xi_points),
        n_antennas=n,
        psi_m=psi_m,
    )


class SweepPoint(_Record):
    """One sweep sample: axis value, codebook size (None = infeasible),
    and the feasibility bound annotated for that series."""

    axis_value: float
    size: int | None
    bound: float

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


def sweep_size_vs_b(n_antennas_list: list[int], b_grid: list[float], psi_m: float = 1.0) -> SweepTable:
    """Minimum codebook size as the fractional bandwidth grows, one series
    per array size; the bound column is the per-N vertical asymptote."""
    if not n_antennas_list or not len(b_grid):
        raise ValueError("sweep grids must be non-empty")
    series, bands = [], [BandSpec(b) for b in b_grid]  # one band per b, shared by the series
    for n in n_antennas_list:
        bound = max_fractional_bandwidth(n, psi_m)
        points = [SweepPoint(band.fractional_bandwidth, _size(n, band, psi_m), bound) for band in bands]
        series.append(SweepSeries(f"N={n}", tuple(points)))
    return SweepTable("fractional_bandwidth", tuple(series))


def sweep_size_vs_n(b_list: list[float], n_range: list[int], psi_m: float = 1.0) -> SweepTable:
    """Minimum codebook size as the array grows, one series per fractional
    bandwidth; the bound column is floor(1.772/(psi_m*b))."""
    if not len(b_list) or not len(n_range):
        raise ValueError("sweep grids must be non-empty")
    series = []
    for b in b_list:
        band = BandSpec(b)
        n_cap = max_antennas(band, psi_m)
        bound = math.inf if n_cap is None else float(n_cap)
        points = [SweepPoint(float(n), _size(n, band, psi_m), bound) for n in n_range]
        series.append(SweepSeries(f"b={b:g}", tuple(points)))
    return SweepTable("n_antennas", tuple(series))


__all__ = _public(globals())
