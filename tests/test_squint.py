import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsquint.array_model import gain_kernel_magnitude
from beamsquint.squint import (
    BandSpec,
    CoverageInterval,
    GainThreshold,
    effective_beamwidth,
    exact_half_power_beamwidth,
    focus_from_left_edge,
    half_power_beamwidth,
    numeric_coverage,
    squinted_coverage,
)

from dense_oracle import reference_numeric_coverage

BAND = BandSpec(0.0342)


class TestBandSpec:
    def test_from_carrier_exact_division(self):
        band = BandSpec.from_carrier(73e9, 2.5e9)
        assert band.fractional_bandwidth == 2.5e9 / 73e9

    def test_from_carrier_is_the_band_from_b(self):
        assert BandSpec.from_carrier(73e9, 2.5e9) == BandSpec(2.5e9 / 73e9)

    def test_xi_grid_fits_one_kernel_block(self):
        assert len(BAND.xi_grid(16384)) == 16384
        # an integral count only, refused by name at any b: 65.5 gave 65.5
        # points' worth at b = 0 and numpy's TypeError at b > 0, "65" a
        # TypeError from <=
        for points in (1, 16385, 10**6, 65.5, "65", math.nan, math.inf, None):
            for band in (BAND, BandSpec(0.0)):
                with pytest.raises(ValueError, match=re.escape(f"xi grid needs 2 to 16384 points, got {points!r}")):
                    band.xi_grid(points)
        for points in (np.int64(65), 65.0):
            assert np.array_equal(BAND.xi_grid(points), BAND.xi_grid(65))

    def test_xi_range(self):
        assert BAND.xi_min == 1 - 0.0171
        assert BAND.xi_max == 1 + 0.0171

    def test_xi_grid_includes_endpoints(self):
        grid = BAND.xi_grid(65)
        assert len(grid) == 65
        assert grid[0] == BAND.xi_min
        assert grid[-1] == BAND.xi_max

    def test_zero_band_collapses_grid(self):
        assert list(BandSpec(0.0).xi_grid(65)) == [1.0]

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            BandSpec(-0.1)
        with pytest.raises(ValueError):
            BandSpec(2.0)


class TestGainThreshold:
    def test_default_is_exact_half_power(self):
        assert GainThreshold().ratio_to_max == 1.0 / math.sqrt(2.0)

    def test_absolute(self):
        assert GainThreshold().absolute(16) == pytest.approx(4.0 / math.sqrt(2.0), abs=1e-15)

    def test_from_db(self):
        assert GainThreshold.from_db(6.0).ratio_to_max == pytest.approx(10 ** -0.3, abs=1e-15)

    def test_db_round_trip(self):
        assert GainThreshold.from_db(2.5).db_below_max == pytest.approx(2.5, abs=1e-12)

    def test_from_db_3_is_exact_half_power(self):
        assert GainThreshold.from_db(3.0) == GainThreshold()
        assert GainThreshold.from_db(0.0).ratio_to_max == 1.0

    @pytest.mark.parametrize("db", [-1.0, -1e10, math.nan, math.inf, -math.inf])
    def test_from_db_rejects_negative_or_non_finite(self, db):
        with pytest.raises(ValueError, match="threshold dB"):
            GainThreshold.from_db(db)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            GainThreshold(0.0)
        with pytest.raises(ValueError):
            GainThreshold(1.5)


class TestHalfPowerBeamwidth:
    def test_width_constant(self):
        assert half_power_beamwidth(16) == pytest.approx(0.110750, abs=1e-12)
        assert half_power_beamwidth(32) == pytest.approx(0.055375, abs=1e-12)
        assert half_power_beamwidth(2) == pytest.approx(0.886, abs=1e-12)

    def test_exact_width_frozen_values(self):
        # bisection on the kernel, frozen from an independent grid search
        assert exact_half_power_beamwidth(16) == pytest.approx(0.110923754955873, abs=1e-9)
        assert exact_half_power_beamwidth(32) == pytest.approx(0.055391657156338, abs=1e-9)

    def test_exact_within_one_percent_of_constant(self):
        for n in range(8, 65):
            exact = exact_half_power_beamwidth(n)
            assert abs(exact - 1.772 / n) / (1.772 / n) < 0.01

    def test_full_ratio_gives_zero(self):
        assert exact_half_power_beamwidth(16, GainThreshold(1.0)) == 0.0

    def test_edges_sit_at_threshold(self):
        for n in (8, 16, 64):
            width = exact_half_power_beamwidth(n)
            edge = gain_kernel_magnitude(width / 2, n)
            assert abs(edge - math.sqrt(n) / math.sqrt(2)) < 1e-9


class TestSquintedCoverage:
    def test_straddling_beam(self):
        cov = squinted_coverage(0.0, BAND, 16)
        assert cov.lo == pytest.approx(-0.054444007472224956, abs=1e-15)
        assert cov.hi == pytest.approx(+0.054444007472224956, abs=1e-15)

    def test_positive_beam(self):
        cov = squinted_coverage(0.5, BAND, 16)
        assert cov.lo == pytest.approx(0.452360362193509, abs=1e-15)
        assert cov.hi == pytest.approx(0.546037754399764, abs=1e-15)
        assert cov.width == pytest.approx(0.093677392206255, abs=1e-12)

    def test_no_squint_reduces_to_plain_edges(self):
        cov = squinted_coverage(0.3, BandSpec(0.0), 16)
        assert cov.lo == pytest.approx(0.244625, abs=1e-12)
        assert cov.hi == pytest.approx(0.355375, abs=1e-12)

    def test_degenerate_when_squint_consumes_beam(self):
        # b*|psi0| >= width: the interval inverts instead of raising
        cov = squinted_coverage(1.0, BandSpec(0.12), 16)
        assert cov.is_degenerate

    def test_mirror_symmetry_is_exact(self):
        for psi0 in (0.1, 0.33, 0.7, 0.99):
            fwd = squinted_coverage(psi0, BAND, 16)
            rev = squinted_coverage(-psi0, BAND, 16)
            assert rev.lo == -fwd.hi
            assert rev.hi == -fwd.lo


class TestEffectiveBeamwidth:
    def test_frozen_values(self):
        assert effective_beamwidth(0.0, BAND, 16) == pytest.approx(0.108888014944450, abs=1e-12)
        assert effective_beamwidth(0.5, BAND, 16) == pytest.approx(0.093677392206255, abs=1e-12)

    def test_no_squint_constant(self):
        for psi0 in (-0.9, 0.0, 0.4):
            assert effective_beamwidth(psi0, BandSpec(0.0), 16) == pytest.approx(0.110750, abs=1e-12)

    def test_nonpositive_when_infeasible(self):
        assert effective_beamwidth(1.0, BandSpec(0.12), 16) <= 0.0


class TestFocusFromLeftEdge:
    def test_edge_at_broadside(self):
        assert focus_from_left_edge(0.0, BAND, 16) == pytest.approx(0.055375, abs=1e-15)

    def test_second_tile(self):
        assert focus_from_left_edge(0.108889, BAND, 16) == pytest.approx(0.1624019981, abs=1e-12)

    def test_no_squint(self):
        assert focus_from_left_edge(0.2, BandSpec(0.0), 16) == pytest.approx(0.255375, abs=1e-12)

    def test_round_trip_with_coverage(self):
        psi0 = focus_from_left_edge(0.3, BAND, 16)
        assert squinted_coverage(psi0, BAND, 16).lo == pytest.approx(0.3, abs=1e-12)

    def test_rejects_negative_edge(self):
        with pytest.raises(ValueError):
            focus_from_left_edge(-0.1, BAND, 16)


@settings(max_examples=300, derandomize=True)
@given(
    psi0=st.floats(min_value=-0.999, max_value=0.999),
    b=st.floats(min_value=0.0, max_value=1.772 / 16 - 1e-6),
)
def test_width_consistency(psi0, b):
    band = BandSpec(b)
    cov = squinted_coverage(psi0, band, 16)
    assert abs(effective_beamwidth(psi0, band, 16) - cov.width) <= 1e-12


@settings(max_examples=300, derandomize=True)
@given(
    psi0=st.floats(min_value=-1.0, max_value=1.0),
    b=st.floats(min_value=1e-6, max_value=1.772 / 16 - 1e-6),
)
def test_shrinkage(psi0, b):
    width = effective_beamwidth(psi0, BandSpec(b), 16)
    assert width < 1.772 / 16
    assert effective_beamwidth(psi0, BandSpec(0.0), 16) == 1.772 / 16


def test_monotone_decreasing_in_focus_magnitude():
    band = BandSpec(0.03)
    # strictly decreasing for non-straddling beams, linear slope -b/(1-b^2/4)
    half_width = half_power_beamwidth(16) / 2
    foci = np.linspace(half_width + 1e-6, 0.99, 40)
    widths = [effective_beamwidth(f, band, 16) for f in foci]
    assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))
    slope = (widths[-1] - widths[0]) / (foci[-1] - foci[0])
    assert slope == pytest.approx(-0.03 / (1 - 0.03**2 / 4), rel=1e-9)


class TestNumericCoverage:
    def test_matches_analytic_edges(self):
        cov = numeric_coverage(0.5, BAND, 16)
        ana = squinted_coverage(0.5, BAND, 16)
        tol = 0.002 * half_power_beamwidth(16)
        assert abs(cov.lo - ana.lo) < tol
        assert abs(cov.hi - ana.hi) < tol

    def test_no_squint_matches_exact_width(self):
        cov = numeric_coverage(0.0, BandSpec(0.0), 16)
        half = exact_half_power_beamwidth(16) / 2
        assert cov.lo == pytest.approx(-half, abs=1e-8)
        assert cov.hi == pytest.approx(+half, abs=1e-8)

    def test_empty_when_squint_consumes_beam(self):
        assert numeric_coverage(1.0, BandSpec(0.112), 16) is None

    def test_oracle_agreement_matrix(self):
        # numeric edges vs analytic edges within 1% of the width constant;
        # the residual is the 1.772/N approximation itself
        for n in (8, 16, 32, 64):
            width = half_power_beamwidth(n)
            for b in (0.0, 0.0179, 0.0342, 0.0714):
                band = BandSpec(b)
                for psi0 in (0.0, 0.3):
                    if b * abs(psi0) >= width * 0.9:
                        continue  # close to degenerate, nothing to compare
                    cov = numeric_coverage(psi0, band, n)
                    ana = squinted_coverage(psi0, band, n)
                    assert cov is not None
                    assert abs(cov.lo - ana.lo) < 0.01 * width
                    assert abs(cov.hi - ana.hi) < 0.01 * width

    def test_xi_minimum_sits_at_band_edge_inside_main_lobe(self):
        # checked on the grid rather than assumed: for covered angles the
        # worst subcarrier is one of the band edges
        xis = BAND.xi_grid(65)
        cov = squinted_coverage(0.5, BAND, 16)
        for psi_c in np.linspace(cov.lo + 1e-6, cov.hi - 1e-6, 25):
            profile = gain_kernel_magnitude(psi_c * xis - 0.5, 16)
            assert int(np.argmin(profile)) in (0, len(xis) - 1)

    def test_deterministic(self):
        a = numeric_coverage(0.4, BAND, 16)
        b = numeric_coverage(0.4, BAND, 16)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_validates_grid_parameters(self):
        with pytest.raises(ValueError):
            numeric_coverage(0.0, BAND, 16, psi_step=0.0)
        # a step as wide as the scan window would leave fewer than 3 points,
        # and one this fine more than the grid-size cap
        for step in (10.0, 1e300, math.inf, math.nan, -1e-4, 1e-300, 5e-324, 1e-8):
            with pytest.raises(ValueError, match="psi_step"):
                numeric_coverage(0.3, BandSpec(0.0342), 16, psi_step=step)


def assert_refined_edges(cov, expected):
    """numeric_coverage refines its edges to 1e-9: each edge within that of
    the reference's, as Python floats, or None on both."""
    if expected is None:
        assert cov is None
        return
    assert (type(cov.lo), type(cov.hi)) == (float, float)
    assert abs(cov.lo - expected.lo) <= 1e-9 and abs(cov.hi - expected.hi) <= 1e-9, (cov, expected)


# Wide bands at low thresholds: the scan window holds several passing runs
# (54, 38, 31 and 16 for these four at the default step), of which only
# the peak's is the coverage.
_RNG = np.random.default_rng(10)
MULTI_RUN_CASES = [(5, 0.9222, 0.553, 0.0111), (9, 1.2307, 0.6356, 0.0132),
                   (30, 0.5135, 0.4019, 0.0112), (39, 0.9655, -0.3533, 0.01)] + [
    # N, then b, psi0 and ratio to four decimals
    (int(_RNG.integers(3, 41)), *np.round(_RNG.uniform((0.3, -0.8, 0.01), (1.5, 0.8, 0.02)), 4).tolist())
    for _ in range(16)
]


@pytest.mark.parametrize("n, b, psi0, ratio", MULTI_RUN_CASES)
def test_numeric_coverage_is_the_peak_run(n, b, psi0, ratio):
    # of the passing runs, only the peak's is the coverage
    thr = GainThreshold(ratio)
    assert_refined_edges(numeric_coverage(psi0, BandSpec(b), n, thr), reference_numeric_coverage(psi0, BandSpec(b), n, thr))


# N, b (0 in every fifth case), psi0, ratio (1.0 in every seventh) and
# step: many beams that squint consumes, and wide bands with several
# passing runs
_FAMILY_RNG = np.random.default_rng(13)
SEEDED_FAMILY = [
    (int(_FAMILY_RNG.integers(2, 129)), 0.0 if i % 5 == 0 else 1.2 * float(_FAMILY_RNG.uniform()) ** 3,
     float(_FAMILY_RNG.uniform(-1.3, 1.3)), 1.0 if i % 7 == 0 else float(_FAMILY_RNG.uniform(0.3, 0.9)),
     float(_FAMILY_RNG.uniform(1e-4, 1e-3)))
    for i in range(300)
]


def test_numeric_coverage_on_a_seeded_family():
    kinds = set()
    for n, b, psi0, ratio, step in SEEDED_FAMILY:
        args = psi0, BandSpec(b), n, GainThreshold(ratio), step
        expected = reference_numeric_coverage(*args)
        assert_refined_edges(numeric_coverage(*args), expected)
        kinds.add("none" if expected is None else "b = 0" if b == 0.0 else "b > 0")
    assert kinds == {"none", "b = 0", "b > 0"}


def test_numeric_coverage_at_a_fine_step():
    # a step of 1e-5: about 26,000 angles in the scan window
    args = 0.2, BAND, 16, GainThreshold(), 1e-5
    assert_refined_edges(numeric_coverage(*args), reference_numeric_coverage(*args))


def test_coverage_interval_helpers():
    iv = CoverageInterval(-0.2, 0.3)
    assert iv.width == pytest.approx(0.5)
    assert not iv.is_degenerate
    assert iv.contains(0.0) and not iv.contains(0.4)
    assert iv.mirrored() == CoverageInterval(-0.3, 0.2)
