import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from beamsquint.array_model import gain_kernel_magnitude, worst_subcarrier_gain
from beamsquint.codebook import (
    Codebook,
    design_no_squint,
    design_with_squint,
    max_fractional_bandwidth,
)
from beamsquint.squint import (
    BandSpec,
    GainThreshold,
    half_power_beamwidth,
    numeric_coverage,
    squinted_coverage,
)
from beamsquint.verification import (
    _to_db,
    sweep_size_vs_b,
    sweep_size_vs_n,
    verify_codebook,
)

from dense_oracle import dense_worst_gain, refined_edge, reference_verify_codebook

BAND = BandSpec(0.0342)


class TestVerifyCodebook:
    def test_designed_codebook_passes(self, book16):
        report = verify_codebook(book16, slack_db=0.2)
        assert report.passed
        assert report.gaps == ()
        assert report.worst_gain_db >= report.threshold_db - 0.2
        # the 1.772/N tiling edges sit a hair above the exact threshold
        assert report.worst_gain_db == pytest.approx(-3.0001293502383026, abs=1e-9)
        assert report.worst_psi == pytest.approx(0.0, abs=1e-12)

    def test_report_is_deterministic(self, book16):
        a = verify_codebook(book16, psi_step=1e-3)
        b = verify_codebook(book16, psi_step=1e-3)
        assert a == b

    def test_pass_iff_no_gap_iff_worst_above_threshold(self, book16):
        report = verify_codebook(book16, psi_step=1e-3, slack_db=0.0)
        assert report.passed == (len(report.gaps) == 0)
        assert report.passed == (report.worst_gain_db >= report.threshold_db - report.slack_db)

    def test_removed_beam_opens_gap(self, book16):
        # drop the first positive-focus beam; its coverage is the hole
        victim = next(b for b in book16.beams if b.psi0 > 0)
        thinned = dataclasses.replace(book16, foci=tuple(f for f in book16.foci if f != victim.psi0))
        report = verify_codebook(thinned, slack_db=0.0)
        assert not report.passed
        assert len(report.gaps) == 1
        gap = report.gaps[0]
        expected = squinted_coverage(victim.psi0, BAND, 16)
        assert gap.width == pytest.approx(expected.width, abs=1.5e-3)  # ~0.108888
        assert gap.lo == pytest.approx(expected.lo, abs=1e-3)
        assert gap.hi == pytest.approx(expected.hi, abs=1e-3)

    def test_no_squint_design_fails_under_squint(self):
        # the motivating defect: a squint-blind codebook loses the band edges
        # of the outer beams
        book = dataclasses.replace(design_no_squint(16, 1.0), band=BAND)
        report = verify_codebook(book, slack_db=0.2)
        assert not report.passed
        assert report.gaps
        # seams fail once |psi| is large enough for the squint shift to bite;
        # broadside stays covered and the damage grows toward |psi| = 1
        assert all(min(abs(g.lo), abs(g.hi)) > 0.15 for g in report.gaps)
        widths = [g.width for g in report.gaps if g.lo > 0]
        assert widths == sorted(widths)
        assert abs(report.worst_psi) > 0.9

    def test_gain_relative_to_peak_is_negative(self, book16):
        report = verify_codebook(book16, psi_step=1e-3)
        assert report.worst_gain_db < 0.0

    def test_report_to_dict(self, book16):
        doc = verify_codebook(book16, psi_step=1e-3).to_dict()
        assert doc["pass"] is True
        assert doc["gaps"] == []
        assert doc["n_antennas"] == 16
        assert doc["xi_points"] == 65
        # numpy parameters that the checks accept are stored as the Python
        # int and floats they equal: an int64 count or a float32 step or
        # slack made to_json raise TypeError
        args = dict(psi_step=np.float32(1e-3), xi_points=np.int64(65), slack_db=np.float32(0.2))
        report = verify_codebook(design_no_squint(8, 1.0), **args)
        assert [type(getattr(report, k)) for k in args] == [float, int, float]
        assert (report.psi_step, report.xi_points, report.slack_db) == (float(np.float32(1e-3)), 65, float(np.float32(0.2)))
        assert json.loads(report.to_json())["xi_points"] == 65
        assert verify_codebook(book16, psi_step=1e-3, xi_points=65.0).xi_points == 65

    def test_validates_parameters(self, book16):
        with pytest.raises(ValueError):
            verify_codebook(book16, psi_step=0.0)
        with pytest.raises(ValueError):
            verify_codebook(book16, slack_db=-0.1)
        # a non-integral count is refused by name at any b, before any grid
        for book in (book16, design_no_squint(8, 1.0)):
            for points in (65.5, "65"):
                with pytest.raises(ValueError, match=re.escape(f"xi grid needs 2 to 16384 points, got {points!r}")):
                    verify_codebook(book, psi_step=1e-3, xi_points=points)

    def test_xi_points_refused_before_any_grid(self, book16):
        # the worst-xi search holds beams x xi_points at once: without the
        # limit, a verify at 1e5 points peaked at 64 MB on an N=16 codebook
        def refused():
            with pytest.raises(ValueError, match="xi grid needs 2 to 16384 points, got 100000"):
                verify_codebook(book16, xi_points=10**5)

        assert _peak_bytes(refused) < 1e6

    def test_psi_step_bounded_by_psi_m(self):
        # a step above psi_m leaves fewer than 3 points on [-psi_m, psi_m]
        book = design_no_squint(16, 0.5)
        assert verify_codebook(book, psi_step=0.5).psi_step == 0.5  # grid -0.5, 0, 0.5
        for step in (math.nextafter(0.5, 1.0), 1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="psi_step"):
                verify_codebook(book, psi_step=step)

    @pytest.mark.parametrize("slack", [math.nan, math.inf])
    def test_non_finite_slack_rejected(self, slack):
        # an infinite or NaN slack would lower the pass level to 0 (or NaN)
        # and certify a codebook that fails at the default slack
        book = dataclasses.replace(design_no_squint(16, 1.0), band=BAND)
        assert not verify_codebook(book, psi_step=1e-3).passed
        with pytest.raises(ValueError, match="slack_db"):
            verify_codebook(book, psi_step=1e-3, slack_db=slack)


class TestAnalyticNumericAgreement:
    def test_every_beam_remeasured(self, book16):
        width = half_power_beamwidth(16)
        for beam in book16.beams[::3]:
            measured = numeric_coverage(beam.psi0, BAND, 16)
            assert measured is not None
            assert abs(measured.lo - beam.coverage.lo) < 0.01 * width
            assert abs(measured.hi - beam.coverage.hi) < 0.01 * width


class TestSweeps:
    def test_size_vs_b_values(self):
        table = sweep_size_vs_b([16], [0.0, 0.0342, 0.12], 1.0)
        assert table.axis == "fractional_bandwidth"
        (series,) = table.series
        assert series.label == "N=16"
        sizes = [p.size for p in series.points]
        assert sizes == [19, 22, None]
        assert all(p.bound == pytest.approx(0.110750, abs=1e-12) for p in series.points)

    def test_size_vs_b_multiple_series(self):
        table = sweep_size_vs_b([16, 32], [0.0, 0.0342], 1.0)
        assert [s.label for s in table.series] == ["N=16", "N=32"]
        assert [p.size for p in table.series[1].points] == [37, 57]

    def test_size_vs_n_values(self):
        table = sweep_size_vs_n([0.0714], range(20, 28), 1.0)
        (series,) = table.series
        feasible = [int(p.axis_value) for p in series.points if p.feasible]
        assert max(feasible) == 24  # the feasibility asymptote
        assert series.points[0].bound == 24.0

    def test_size_vs_n_known_values(self):
        table = sweep_size_vs_n([0.0179, 0.0342], [16, 32], 1.0)
        by_label = {s.label: [p.size for p in s.points] for s in table.series}
        assert by_label["b=0.0342"] == [22, 57]
        assert by_label["b=0.0179"][0] == 20  # between the 19 and 22 brackets
        assert 19 <= by_label["b=0.0179"][0] <= 22

    def test_size_vs_n_takes_integral_floats(self):
        ints = sweep_size_vs_n([0.0, 0.0342], [16, 32], 1.0)
        assert sweep_size_vs_n([0.0, 0.0342], [16.0, np.int64(32)], 1.0) == ints

    def test_infeasible_markers_match_bound(self):
        bound = 0.110750
        grid = [0.100, 0.105, 0.110, 0.1105, 0.1108, 0.112, 0.115]
        table = sweep_size_vs_b([16], grid, 1.0)
        for point in table.series[0].points:
            assert point.feasible == (point.axis_value < bound)

    def test_first_infeasible_brackets_bound_within_one_step(self):
        grid = [round(0.10 + 0.002 * i, 6) for i in range(11)]  # 0.100 .. 0.120
        table = sweep_size_vs_b([16], grid, 1.0)
        statuses = [p.feasible for p in table.series[0].points]
        flip = statuses.index(False)
        assert statuses[flip:] == [False] * (len(grid) - flip)
        assert grid[flip - 1] < 0.110750 <= grid[flip]

    def test_deterministic(self):
        a = sweep_size_vs_b([16], [0.0, 0.05], 1.0)
        b = sweep_size_vs_b([16], [0.0, 0.05], 1.0)
        assert a == b

    def test_csv_rendering(self):
        table = sweep_size_vs_b([16], [0.0, 0.0342, 0.12], 1.0)
        lines = table.to_csv().splitlines()
        assert lines[0] == "axis,value_or_status,bound"
        assert lines[1] == "0.0,19,0.11075"
        assert lines[2] == "0.0342,22,0.11075"
        assert lines[3] == "0.12,INFEASIBLE,0.11075"

    def test_csv_multi_series_blocks(self):
        table = sweep_size_vs_b([16, 32], [0.0], 1.0)
        lines = table.to_csv().splitlines()
        assert lines[1] == "# series: N=16"
        assert "# series: N=32" in lines

    @pytest.mark.parametrize("psi_m", [1.0, 0.77, 0.3])
    def test_sizes_match_the_design_path(self, psi_m):
        # the sweeps read sizes from the design plan and build no codebook;
        # every point must still be the size design_with_squint builds
        shares = [0.01, 0.3, 0.7, 0.99, 0.999999, 1.0, 1.01]
        for n in range(2, 130):
            bound = max_fractional_bandwidth(n, psi_m)
            grid = [b for b in [0.0, 1e-9] + [s * bound for s in shares] if b < 2.0]
            want = []
            for b in grid:
                outcome = design_with_squint(n, BandSpec(b), psi_m)
                want.append(outcome.size if outcome.feasible else None)
            by_b = [p.size for p in sweep_size_vs_b([n], grid, psi_m).series[0].points]
            by_n = [s.points[0].size for s in sweep_size_vs_n(grid, [n], psi_m).series]
            assert by_b == want, (n, psi_m)
            assert by_n == want, (n, psi_m)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_size_vs_b([], [0.1], 1.0)
        with pytest.raises(ValueError):
            sweep_size_vs_n([], [16], 1.0)


def test_worst_xi_sits_at_band_edge(book16):
    # the binding subcarrier for a seam angle is a band edge
    report = verify_codebook(book16, psi_step=1e-3)
    assert report.worst_xi in (
        pytest.approx(BAND.xi_min, abs=1e-12),
        pytest.approx(BAND.xi_max, abs=1e-12),
    )


def test_math_of_slack_levels(book16):
    # slack only moves the pass level, never the measured worst gain
    tight = verify_codebook(book16, psi_step=1e-3, slack_db=0.0)
    loose = verify_codebook(book16, psi_step=1e-3, slack_db=1.0)
    assert tight.worst_gain_db == loose.worst_gain_db
    assert math.isclose(tight.threshold_db, loose.threshold_db)


@pytest.mark.parametrize("n, b", [(8, 0.1), (16, 0.0342)])
def test_matches_per_beam_loop_reference(n, b):
    # verify_codebook evaluates every beam at once at the worst angle and
    # while refining gap edges; one beam at a time is the reference, and the
    # arithmetic is the same, so the report must match bit for bit
    book = dataclasses.replace(design_no_squint(n, 1.0), band=BandSpec(b))
    report = verify_codebook(book, psi_step=2e-3)
    xis = book.band.xi_grid(65)
    pass_level = book.threshold.absolute(n) * 10.0 ** (-0.2 / 20.0)

    def quality(psi):
        return max(float(gain_kernel_magnitude(psi * xis - bm.psi0, n).min()) for bm in book.beams)

    profiles = [gain_kernel_magnitude(report.worst_psi * xis - bm.psi0, n) for bm in book.beams]
    winner = max(profiles, key=lambda p: float(p.min()))
    assert report.worst_xi == float(xis[int(np.argmin(winner))])

    def crossing(inside, outside):
        margin = np.vectorize(lambda p: quality(p) - pass_level, otypes=[float])
        return refined_edge(margin, inside, outside)

    grid = np.linspace(-1.0, 1.0, 1001)
    failing = [quality(p) < pass_level for p in grid]
    gaps = []
    i = 0
    while i < len(grid):
        if not failing[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(grid) and failing[j + 1]:
            j += 1
        lo = grid[0] if i == 0 else crossing(grid[i - 1], grid[i])
        hi = grid[-1] if j == len(grid) - 1 else crossing(grid[j + 1], grid[j])
        gaps.append((float(lo), float(hi)))
        i = j + 1
    assert gaps
    assert [(g.lo, g.hi) for g in report.gaps] == gaps


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_with_grid_points_only():
    # Unchunked, with every angle x subcarrier at once, these two calls
    # peak at 86 MB (verify_codebook) and 56 MB (numeric_coverage); in
    # chunks the kernel temporaries stay small and the 1-D grids dominate.
    book = design_with_squint(4, BAND, 1.0).codebook
    assert _peak_bytes(lambda: verify_codebook(book, psi_step=5e-5)) < 16e6
    assert _peak_bytes(lambda: numeric_coverage(0.3, BAND, 16, psi_step=1e-5)) < 16e6


def test_memory_of_a_fine_verify_stays_with_the_grid():
    # 1,000,001 angles: the screen's bound, built in blocks into one array
    # that then holds the best, and the grid peak at 17 MB; the cascade on
    # every angle peaked at 25 MB, a screen without blocks at 58 MB, and
    # every window's pairs in one batch at 553 MB
    book = design_with_squint(64, BandSpec(0.0179), 1.0).codebook
    assert _peak_bytes(lambda: verify_codebook(book, psi_step=2e-6)) < 30e6


@pytest.mark.parametrize("n", [64, 256])
def test_memory_of_the_worst_subcarrier_search_stays_bounded(n):
    # narrowband codebooks (73 and 289 beams) under b = 0.5/N at the most
    # subcarriers a grid may have: every beam's row at the worst angle at
    # once peaked at 38 and 149 MB; in blocks of beams, then the winner's
    # row alone, about 1.2 MB
    book = dataclasses.replace(design_no_squint(n, 1.0), band=BandSpec(0.5 / n))
    verify_codebook(book, psi_step=1e-3, xi_points=65)  # numpy's first-call set-up is not the search
    assert _peak_bytes(lambda: verify_codebook(book, psi_step=1e-3, xi_points=16384)) < 4e6


def test_memory_of_a_wide_band_search_stays_bounded():
    # A band this wide sweeps most (angle, beam) pairs across a null: about
    # 115k of 200k pairs, which took 60 MB when each went to all 65
    # subcarriers at once
    grid, foci = np.linspace(-1, 1, 20001), np.linspace(-0.9, 0.9, 10)
    assert _peak_bytes(lambda: worst_subcarrier_gain(grid, foci, BandSpec(1.9), 4)) < 4e6


def _book(n, b, psi_m, foci, threshold=GainThreshold()):
    # built directly, so foci may lie anywhere (from_dict caps them at 1.5)
    return Codebook(tuple(float(f) for f in sorted(foci)), psi_m, BandSpec(b), n, threshold)


def test_worst_xi_is_read_off_the_beam_that_sets_the_worst_gain():
    # at the worst angle the beam focused on 0.6 sweeps across a null inside
    # the band, so its band min is 0, yet its min over the 5 grid subcarriers
    # beats that of the beam focused on -0.04, which sets the worst gain
    book, band = _book(4, 0.32, 0.83, [-0.04, 0.6]), BandSpec(0.32)
    report = verify_codebook(book, psi_step=0.83 / 50, xi_points=5)
    xis = band.xi_grid(5)
    near, far = (gain_kernel_magnitude(report.worst_psi * xis - f, 4) for f in (-0.04, 0.6))
    assert far.min() > near.min() > 0.0 == dense_worst_gain(report.worst_psi, [0.6], band, 4)
    assert report.worst_gain_db == _to_db(near.min() / 2.0)
    assert report.worst_xi == xis[int(np.argmin(near))] == band.xi_max
    assert report == reference_verify_codebook(book, psi_step=0.83 / 50, xi_points=5)


@pytest.mark.parametrize("foci", [(0.0, 0.0), (1.6,), (-1.6, 0.0)])
def test_verify_takes_foci_the_wire_format_cannot_hold(foci):
    # repeated or beyond +-1.5: to_dict refuses them, verify does not
    book = _book(8, 0.05, 1.0, foci)
    with pytest.raises(ValueError):
        book.to_dict()
    assert verify_codebook(book, psi_step=1e-3) == reference_verify_codebook(book, psi_step=1e-3)


class TestWindowedSweepIsExact:
    """The window cascade against the dense reference: reports must be
    equal, float for float."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_criterion_6_configurations(self, n):
        for b in (0.0, 0.0179, 0.0342):
            if b < max_fractional_bandwidth(n, 1.0):
                book = design_with_squint(n, BandSpec(b), 1.0).codebook
                assert verify_codebook(book, psi_step=1e-3) == reference_verify_codebook(
                    book, psi_step=1e-3
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_codebooks(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 17, 100):
            b = float(rng.choice([0.0, rng.uniform(0.0, 1.99)]))
            psi_m = float(rng.uniform(0.2, 1.0))
            foci = rng.uniform(-1.6, 1.6, int(rng.integers(1, 2 * n + 2)))
            foci[0] = rng.choice([-1, 1]) * rng.uniform(1.5, 40.0)
            xi_points = int(rng.choice([2, 9, 65]))
            threshold = GainThreshold(float(rng.uniform(0.3, 1.0)))
            book = _book(n, b, psi_m, foci, threshold)
            step = psi_m / float(rng.integers(150, 400))
            args = dict(psi_step=step, xi_points=xi_points, slack_db=float(rng.uniform(0, 1)))
            assert verify_codebook(book, **args) == reference_verify_codebook(book, **args)

    @pytest.mark.parametrize("seed", [65, 130, 455])
    def test_worst_xi_from_the_first_of_tied_winners(self, seed):
        # the winner at the worst angle is the first beam with the largest
        # band min; duplicated foci tie exactly
        rng = np.random.default_rng(seed)
        for n in (3, 8, 16, 64):
            foci = np.concatenate([rng.uniform(-1.2, 1.2, int(rng.integers(2, 2 * n))), [1.0 - 1.0 / n]])
            b = float(rng.uniform(0.0, 0.5))
            for book in (_book(n, b, 1.0, np.concatenate([foci, foci[:3]])), _book(n, b, 1.0, -foci)):
                for args in (dict(psi_step=0.01), dict(psi_step=0.01, xi_points=2)):
                    assert verify_codebook(book, **args) == reference_verify_codebook(book, **args)

    @pytest.mark.parametrize("b, gaps", [(0.0179, 68), (0.0342, 60)])
    def test_narrowband_codebook_at_the_default_step(self, b, gaps):
        # the N=64 codebook designed for b = 0 fails under squint
        book = dataclasses.replace(design_no_squint(64, 1.0), band=BandSpec(b))
        report = verify_codebook(book)
        assert len(report.gaps) == gaps
        assert report == reference_verify_codebook(book)

    def test_descending_foci(self, book16):
        # a codebook built directly may hold its foci in descending order
        book = dataclasses.replace(book16, foci=book16.foci[::-1])
        report = verify_codebook(book)
        assert report.passed
        assert report == reference_verify_codebook(book)

    @pytest.mark.parametrize("seed", range(10))
    def test_cascade_equals_dense_on_seeded_families(self, seed):
        # 30 codebooks per seed: b from 0 (one subcarrier) to 1.999, foci out
        # to +-1.6 (grating lobes), any threshold, slack and subcarrier count
        rng = np.random.default_rng([seed, 15])
        for case in range(30):
            n = int(rng.choice([2, 3, 4, 7, 16, 17, 33, 64]))
            b = float(rng.choice([0.0, 1.999, rng.uniform(0.0, 0.2), rng.uniform(0.0, 1.999)]))
            psi_m = float(rng.uniform(0.2, 1.0))
            foci = rng.uniform(-1.6, 1.6, int(rng.integers(1, n + 3)))
            book = _book(n, b, psi_m, foci, GainThreshold(float(rng.uniform(0.3, 1.0))))
            args = dict(
                psi_step=psi_m / float(rng.integers(100, 300)),
                xi_points=int(rng.choice([2, 3, 4, 5, 9, 65])),
                slack_db=float(rng.uniform(0.0, 1.0)),
            )
            assert verify_codebook(book, **args) == reference_verify_codebook(book, **args), (seed, case)

    @pytest.mark.parametrize("n, b", [(2, 0.0), (5, 0.3), (16, 0.0342), (64, 1.5)])
    def test_one_beam(self, n, b):
        # no narrow window covers most of the grid, so most angles go on to
        # the wider rounds
        book = _book(n, b, 1.0, [0.3])
        assert verify_codebook(book, psi_step=2e-3) == reference_verify_codebook(
            book, psi_step=2e-3
        )

    @pytest.mark.parametrize("edge", [1.0, math.nextafter(1.0, 2.0)])
    def test_edge_focus_grating_lobe(self, edge):
        # at psi = -1 the beam focused at +edge is on its grating lobe x = -2
        # and beats the beam focused at -edge by a few ulps, so best there
        # is only exact with the lobe images k != 0 in the windows
        n, b = 17, 0.05
        band = BandSpec(b)
        near, far = (dense_worst_gain(-1.0, [f], band, n) for f in (-edge, edge))
        assert near < far
        grid = np.linspace(-1.0, 1.0, 2001)
        dense = dense_worst_gain(grid, [-edge, edge], band, n)
        windowed = worst_subcarrier_gain(grid, [-edge, edge], band, n)
        assert windowed[0] == far
        assert np.array_equal(windowed.view(np.int64), dense.view(np.int64))

        book = _book(n, b, 1.0, [-edge, -0.5, 0.0, 0.5, edge])
        assert verify_codebook(book, psi_step=1e-3) == reference_verify_codebook(
            book, psi_step=1e-3
        )
