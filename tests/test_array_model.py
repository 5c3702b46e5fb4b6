import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsquint.array_model import (
    ArrayGeometry,
    array_gain_sum,
    equivalent_aoa,
    fine_beam_weights,
    gain_kernel,
    gain_kernel_magnitude,
    psi_from_theta,
    steering_vector,
    theta_from_psi,
    worst_subcarrier_gain,
)
from beamsquint.codebook import design_with_squint
from beamsquint.squint import BandSpec

from dense_oracle import dense_worst_gain, null_count, sampled_worst_gain

HALF = ArrayGeometry(16, 0.5)


def raw_gain_sum(n, d, psi0, psi_c, xi):
    """Independent reference: plain-numpy summation, no package code."""
    k = np.arange(n)
    beta = 2 * math.pi * d * k * psi0
    return np.exp(1j * (2 * math.pi * xi * d * k * psi_c - beta)).sum() / math.sqrt(n)


class TestGeometry:
    def test_rejects_single_element(self):
        with pytest.raises(ValueError):
            ArrayGeometry(1)
        # nor anything but an integer >= 2, with the same message: the range is
        # checked before int(), which raised OverflowError at inf, Python's own
        # message at NaN and TypeError at None
        for n in (True, "8", 2.5, math.inf, -math.inf, math.nan, None):
            with pytest.raises(ValueError, match=rf"^n_antennas must be an integer >= 2, got {re.escape(repr(n))}$"):
                ArrayGeometry(n)
        with pytest.raises(ValueError, match=r"^n_antennas must be an integer >= 2, got inf$"):
            design_with_squint(math.inf, BandSpec(0.01), 1.0)
        for n in (np.int64(8), 8.0):
            assert type(ArrayGeometry(n).n_antennas) is int and ArrayGeometry(n) == ArrayGeometry(8)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            ArrayGeometry(8, 0.0)
        with pytest.raises(ValueError):
            ArrayGeometry(8, -0.5)

    def test_max_gain(self):
        assert ArrayGeometry(16).max_gain == 4.0


class TestSteeringVector:
    def test_broadside_all_ones(self):
        v = steering_vector(ArrayGeometry(4, 0.5), 0.0, 1.0)
        assert np.allclose(v, np.ones(4))

    def test_endfire_pi_step(self):
        v = steering_vector(ArrayGeometry(2, 0.5), 1.0, 1.0)
        assert abs(v[0] - 1.0) < 1e-15
        assert abs(v[1] - (-1.0)) < 1e-12

    def test_offband_phases(self):
        # phases 2*pi*1.1*0.5*(n-1)*0.5 = [0, 0.55pi, 1.10pi]
        v = steering_vector(ArrayGeometry(3, 0.5), 0.5, 1.1)
        expected = np.exp(1j * np.pi * np.array([0.0, 0.55, 1.10]))
        assert np.max(np.abs(v - expected)) < 1e-12

    def test_rejects_nonphysical_psi(self):
        with pytest.raises(ValueError):
            steering_vector(HALF, 1.2)
        with pytest.raises(ValueError):
            steering_vector(HALF, 0.5, xi=0.0)
        # the phase 2*pi*xi*spacing_ratio*(N-1)*psi overflows: NaN phasors before
        with pytest.raises(ValueError, match="overflows at spacing_ratio=0.5, psi0=5e[+]307, N=8$"):
            steering_vector(ArrayGeometry(8), 0.5, 1e308)


class TestFineBeamWeights:
    def test_broadside_zero_phases(self):
        assert np.all(fine_beam_weights(ArrayGeometry(4), 0.0) == 0.0)

    def test_quarter_psi_focus(self):
        # focus sin(pi/6) = 0.5 on 16 elements: beta_n = 0.5*pi*(n-1)
        w = fine_beam_weights(HALF, 0.5)
        assert np.max(np.abs(w - 0.5 * np.pi * np.arange(16))) < 1e-12

    def test_negative_endfire(self):
        w = fine_beam_weights(ArrayGeometry(2), -1.0)
        assert w[0] == 0.0
        assert abs(w[1] + math.pi) < 1e-15

    def test_focus_attains_max_gain(self):
        w = fine_beam_weights(HALF, 0.5)
        g = array_gain_sum(w, HALF, 0.5, 1.0)
        assert abs(g - 4.0) < 1e-12

    def test_an_overflowing_phase_raises(self):
        # the phases were [nan, inf, ...]; at psi0 = 0 an infinite step times 0 is NaN
        for geom, psi0 in ((ArrayGeometry(8, 1e308), 0.5), (ArrayGeometry(8, 1e308), 0.0), (ArrayGeometry(2), 1e308)):
            with pytest.raises(ValueError, match=re.escape(f"overflows at spacing_ratio={geom.spacing_ratio!r}, psi0={psi0!r}, N={geom.n_antennas}") + "$"):
                fine_beam_weights(geom, psi0)
        assert fine_beam_weights(ArrayGeometry(2), 5e307)[1] == math.pi * 5e307  # the largest phase is finite


class TestArrayGainSum:
    def test_matches_independent_sum(self):
        geom = ArrayGeometry(16, 0.5)
        w = fine_beam_weights(geom, 0.5)
        got = array_gain_sum(w, geom, 0.37, 1.01)
        ref = raw_gain_sum(16, 0.5, 0.5, 0.37, 1.01)
        assert abs(got - ref) < 1e-12

    def test_offband_magnitude(self):
        w = fine_beam_weights(HALF, 0.5)
        g = array_gain_sum(w, HALF, 0.5, 1.1)
        assert abs(g) < 4.0
        assert abs(abs(g) - 3.0304214810037156) < 1e-12
        # must agree with the closed form at the same argument
        assert abs(g - gain_kernel(1.1 * 0.5 - 0.5, 16)) < 1e-12

    def test_null_of_uniform_weights(self):
        n, d, xi = 8, 0.5, 1.05
        geom = ArrayGeometry(n, d)
        psi_null = 1.0 / (n * xi * d)
        g = array_gain_sum(np.zeros(n), geom, psi_null, xi)
        assert abs(g) < 1e-9

    def test_general_spacing_supported(self):
        geom = ArrayGeometry(8, 0.7)
        w = fine_beam_weights(geom, 0.3)
        got = array_gain_sum(w, geom, 0.3, 1.0)
        assert abs(got - math.sqrt(8)) < 1e-12

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            array_gain_sum(np.zeros(4), HALF, 0.0)


class TestGainKernel:
    def test_peak_is_sqrt_n_exactly(self):
        for n in (2, 3, 7, 16, 33, 64):
            assert abs(gain_kernel(0.0, n)) == math.sqrt(n)
            assert gain_kernel_magnitude(0.0, n) == math.sqrt(n)

    def test_first_null(self):
        assert abs(gain_kernel(2.0 / 16.0, 16)) < 1e-12

    def test_half_power_point(self):
        mag = abs(gain_kernel(0.055375, 16))
        assert abs(mag - 2.831740966945912) < 1e-12
        assert abs(mag - math.sqrt(8)) / math.sqrt(8) < 0.002

    def test_grating_lobe_limit(self):
        # x = 2k reduces to r = 0 exactly: the peak sqrt(N) with phase 0
        for n in (4, 16, 5):
            for x in (2.0, -2.0, 4.0, -0.0):
                g = gain_kernel(x, n)
                assert g == complex(math.sqrt(n), 0.0)
                assert type(g) is complex
            assert np.array_equal(gain_kernel(np.array([2.0, -2.0, 4.0]), n), np.full(3, complex(math.sqrt(n), 0.0)))

    def test_near_singularity_stable(self):
        g = gain_kernel(2.0 + 1e-14, 16)
        assert abs(abs(g) - 4.0) < 1e-9

    def test_array_input(self):
        xs = np.array([0.0, 0.0625, 0.125, 2.0])
        g = gain_kernel(xs, 16)
        assert g.shape == (4,)
        assert abs(g[0] - 4.0) < 1e-12
        assert abs(g[2]) < 1e-12
        m = gain_kernel_magnitude(xs, 16)
        assert np.max(np.abs(m - np.abs(g))) < 1e-12

    def test_rejects_single_element(self):
        with pytest.raises(ValueError):
            gain_kernel(0.1, 1)

    @pytest.mark.parametrize("n", [4, 5, 12, 17])
    def test_grating_lobe_sign_matches_sum(self, n):
        # x = xi*psi_c - psi0 at and next to +-2 and +-4. The kernel takes
        # x modulo 2 exactly, so r = x - 2k keeps its full precision next to
        # the lobe and the division amplifies no rounding of pi*x/2: 1e-12
        # from the lobe is as accurate as 1e-3. The points up to 3e-13 away
        # take the limit sqrt(N)
        geom = ArrayGeometry(n, 0.5)
        for psi0, edge in ((-1.0, 1.0), (1.0, -1.0)):
            w = fine_beam_weights(geom, psi0)
            for xi in (1.0, 3.0):
                for delta in (0.0, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3):
                    psi_c = edge - math.copysign(delta, edge)
                    closed = gain_kernel(xi * psi_c - psi0, n)
                    total = array_gain_sum(w, geom, psi_c, xi)
                    assert abs(closed - total) <= 1e-9 * math.sqrt(n)
            assert gain_kernel(-2.0 * psi0, n) == pytest.approx(math.sqrt(n), abs=1e-12)


def reference_kernel_magnitude(x, n):
    """The magnitude kernel as written before it shared one closed form
    with :func:`gain_kernel`, kept verbatim to pin its bits."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    half = 0.5 * math.pi * arr
    num = np.sin(n * half)
    den = np.sin(half)
    np.abs(num, out=num)
    np.abs(den, out=den)
    sqrt_n = math.sqrt(n)
    near = den < 1e-12
    any_near = np.count_nonzero(near)
    if any_near:
        den[near] = 1.0
    num /= den
    num /= sqrt_n
    if any_near:
        num[near] = sqrt_n
    if scalar:
        return float(num[0])
    return num


def reduced(x):
    """x modulo 2 into [-1, 1] by IEEE remainder, which is exact: the kernel's
    period, taken here without the package's own expression."""
    return np.vectorize(lambda v: math.remainder(v, 2.0), otypes=[float])(x)


class TestKernelBits:
    """The kernel at x is the verbatim reference at x reduced modulo 2, bit for
    bit, and so the reference at x itself on the main period |x| <= 1."""

    LOBES = 2.0 * np.arange(-2, 3)
    SPECIAL = np.concatenate([LOBES, LOBES + 1e-14, LOBES - 1e-14])

    @staticmethod
    def assert_pinned(got, x, n):
        want = reference_kernel_magnitude(reduced(x), n)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
        main = np.abs(x) <= 1.0
        assert np.array_equal(np.asarray(got)[main].view(np.int64), np.asarray(reference_kernel_magnitude(x, n))[main].view(np.int64))

    @pytest.mark.parametrize("n", list(range(2, 71)) + [128, 512])
    def test_magnitude_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        x = np.concatenate([rng.uniform(-4.2, 4.2, 2000), self.SPECIAL])
        self.assert_pinned(gain_kernel_magnitude(x, n), x, n)

    def test_scalar_in_float_out(self):
        for n in (2, 7, 16, 512):
            for x in list(self.SPECIAL) + [0.3, -1.1]:
                got = gain_kernel_magnitude(float(x), n)
                assert type(got) is float
                self.assert_pinned(got, float(x), n)

    def test_block_shape_kept(self):
        x = np.random.default_rng(3).uniform(-4.2, 4.2, (4, 22, 65))
        x[1, 2, :15] = self.SPECIAL
        got = gain_kernel_magnitude(x, 32)
        assert got.shape == (4, 22, 65)
        self.assert_pinned(got, x, 32)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestScalarPath:
    """One value takes a short path past the array set-up, with the same
    float operations: its result is the array path's element, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64, 1024])
    def test_kernel_scalar_is_the_array_element(self, n):
        rng = np.random.default_rng(n)
        lobes = [2.0 * k for k in range(-6, 7)]
        near = [f(x) for x in lobes for f in (
            lambda x: math.nextafter(x, math.inf), lambda x: math.nextafter(x, -math.inf),
            lambda x: x + 1e-14, lambda x: x - 1e-14, lambda x: x + 1.1e-12, lambda x: x - 1.1e-12,
        )]
        extremes = [-0.0, 1e-300, 2e17 + 4, -1e17, 1e300, 1e308, -1.7e308, math.inf, math.nan]  # N*pi*x/2 overflows from 1e308
        values = lobes + near + extremes + rng.uniform(-4.2, 4.2, 500).tolist()
        with np.errstate(invalid="ignore", over="ignore"):
            array = gain_kernel(np.array(values), n)
            for x, want in zip(values, array.tolist()):
                got = gain_kernel(x, n)
                assert type(got) is complex
                assert _bits(got) == _bits(want), x

    def test_gain_sum_scalar_is_the_array_element(self):
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            geom = ArrayGeometry(int(rng.integers(2, 65)))
            weights = fine_beam_weights(geom, float(rng.uniform(-1, 1)))
            psi, xi = float(rng.choice([rng.uniform(-1, 1), 0.0, -1.0, 1.0])), float(rng.uniform(0.9, 1.1))
            got = array_gain_sum(weights, geom, psi, xi)
            assert type(got) is complex
            assert _bits(got) == _bits(complex(array_gain_sum(weights, geom, np.array([psi]), xi)[0]))

    def test_scalar_checks_unchanged(self):
        w = fine_beam_weights(HALF, 0.5)
        for psi in (1.5, -1.5, math.nan, np.float64(-2.0), np.array(1.2)):
            with pytest.raises(ValueError, match="psi must be a sine value"):
                array_gain_sum(w, HALF, psi)
        with pytest.raises(ValueError, match="psi must be a sine value in \\[-1, 1\\], got 1.5"):
            array_gain_sum(w, HALF, -1.5)
        with pytest.raises(ValueError, match="frequency ratio"):
            array_gain_sum(w, HALF, 0.2, 0.0)
        with pytest.raises(ValueError, match="weights must be finite phases in radians"):
            array_gain_sum(np.where(np.arange(len(w)) == 1, math.nan, w), HALF, 0.2)
        assert type(array_gain_sum(w, HALF, np.float64(0.2))) is complex
        assert array_gain_sum(w, HALF, np.array([0.2])).shape == (1,)

    def test_an_overflowing_phase_raises(self):
        # the largest phase 2*pi*xi*spacing_ratio*(N-1)*psi was inf or NaN,
        # and the gain NaN with a RuntimeWarning
        w = fine_beam_weights(HALF, 0.5)
        for psi, xi in ((0.2, 1e308), (1e-300, 1e308), (np.array([0.0, -1.0]), 1e307), (np.array([0.0, 5e-324]), 1e308)):
            with pytest.raises(ValueError, match=f"^frequency ratio xi = {re.escape(repr(xi))} overflows the phase "):
                array_gain_sum(w, HALF, psi, xi)
        assert np.isfinite(array_gain_sum(w, HALF, np.array([0.0, 1e-300]), 1e307)).all()

    def test_zero_angle_has_zero_phases_at_any_xi(self):
        # at psi = 0 every phase is 0 whatever xi, as steering_vector's law
        # gives; the check multiplied an infinite 2*pi*xi*spacing_ratio by 0
        # and raised. Each angle keeps the bits it has at xi = 1
        w = fine_beam_weights(HALF, 0.3)
        for psi in (0.0, -0.0):
            assert np.array_equal(steering_vector(HALF, psi, 1e308), np.ones(16))
            assert _bits(array_gain_sum(w, HALF, psi, 1e308)) == _bits(array_gain_sum(w, HALF, psi, 1.0))
        assert array_gain_sum(np.zeros(16), HALF, 0.0, 1e308) == complex(steering_vector(HALF, 0.0, 1e308).sum() / 4.0) == 4.0
        zeros = array_gain_sum(w, HALF, np.zeros((2, 3)), 1e308)
        assert zeros.shape == (2, 3) and np.array_equal(zeros, array_gain_sum(w, HALF, np.zeros((2, 3)), 1.0))


class TestEquivalentAoa:
    def test_identity_at_carrier(self):
        assert equivalent_aoa(math.pi / 6, 1.0) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_offband_value(self):
        assert equivalent_aoa(math.pi / 6, 1.1) == pytest.approx(0.5823642378687435, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            equivalent_aoa(math.pi / 2, 1.017)


class TestThetaPsiMapping:
    def test_round_trip(self):
        for theta in (-math.pi / 2, -0.3, 0.0, 0.7, math.pi / 2):
            assert theta_from_psi(psi_from_theta(theta)) == pytest.approx(theta, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            psi_from_theta(2.0)
        with pytest.raises(ValueError):
            theta_from_psi(1.1)


@settings(max_examples=300, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=64),
    psi0=st.floats(min_value=-1.0, max_value=1.0),
    psi_c=st.floats(min_value=-1.0, max_value=1.0),
    xi=st.floats(min_value=0.9, max_value=1.1),
)
def test_sum_equals_kernel(n, psi0, psi_c, xi):
    geom = ArrayGeometry(n, 0.5)
    w = fine_beam_weights(geom, psi0)
    total = array_gain_sum(w, geom, psi_c, xi)
    closed = gain_kernel(xi * psi_c - psi0, n)
    assert abs(total - closed) <= 1e-9 * math.sqrt(n)


@settings(max_examples=300, derandomize=True)
@given(x=st.floats(min_value=-4.0, max_value=4.0), n=st.integers(min_value=2, max_value=64))
def test_kernel_magnitude_bounded_and_even(x, n):
    mag = gain_kernel_magnitude(x, n)
    assert mag <= math.sqrt(n) + 1e-9
    assert abs(mag - gain_kernel_magnitude(-x, n)) < 1e-9


@settings(max_examples=100, derandomize=True)
@given(k=st.integers(min_value=-64, max_value=64), n=st.integers(min_value=2, max_value=64))
def test_kernel_nulls(k, n):
    if k % n == 0:
        return  # grating lobe, not a null
    assert gain_kernel_magnitude(2.0 * k / n, n) < 1e-9


class TestWorstSubcarrierGain:
    N = 16
    PSI0S = np.linspace(-0.9, 0.9, 5)
    BAND = BandSpec(0.04)  # xi in [0.98, 1.02]
    GRID = np.linspace(-1.0, 1.0, 23)

    def test_leaves_the_callers_arrays_as_they_are(self):
        # the first round raises a fresh array in place, and angles already
        # in order are a view of the caller's: nothing may write through it
        rng = np.random.default_rng(24)
        base = rng.uniform(-1.2, 1.2, 300)
        foci, band = rng.uniform(-1.0, 1.0, 12), BandSpec(0.06)
        cases = {
            "sorted": np.sort(base),
            "reverse-sorted": np.sort(base)[::-1],
            "repeated": np.tile(base[:60], 5),
            "2-D": np.sort(base).reshape(20, 15),
        }
        for name, psi in cases.items():
            before = [v.copy() for v in (psi, foci)]
            got = worst_subcarrier_gain(psi, foci, band, self.N)
            for now, was in zip((psi, foci), before):
                assert np.array_equal(now.view(np.int64), was.view(np.int64)), name
            want = dense_worst_gain(psi, foci, band, self.N)
            assert got.shape == psi.shape and not np.shares_memory(got, psi), name
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name

    def test_scalar_and_shape(self):
        want = dense_worst_gain(self.GRID, self.PSI0S, self.BAND, self.N)
        got = worst_subcarrier_gain(self.GRID[7], list(self.PSI0S), self.BAND, self.N)
        assert isinstance(got, float)
        assert got == want[7]
        grid2d = self.GRID[:22].reshape(2, 11)
        got2d = worst_subcarrier_gain(grid2d, self.PSI0S, self.BAND, self.N)
        assert np.array_equal(got2d, want[:22].reshape(2, 11))

    def test_no_angles(self):
        for empty in (np.array([]), np.empty((0, 3))):
            got = worst_subcarrier_gain(empty, self.PSI0S, self.BAND, self.N)
            assert got.shape == empty.shape

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        # a NaN or infinite angle silently gave -inf before the check
        for psi in (bad, np.array([0.1, bad, 0.3])):
            with pytest.raises(ValueError, match=f"psi must be finite, got {bad!r}"):
                worst_subcarrier_gain(psi, self.PSI0S, self.BAND, self.N)
        with pytest.raises(ValueError, match="psi0s must be finite"):
            worst_subcarrier_gain(self.GRID, [0.0, bad], self.BAND, self.N)
        # no foci gave -inf, the best of no beams
        with pytest.raises(ValueError, match="psi0s must hold at least one focus"):
            worst_subcarrier_gain(np.array([0.1]), [], self.BAND, self.N)

    @pytest.mark.parametrize("b", [0.0, 0.0342, 0.2, 1.9], ids=str)
    def test_band_is_its_two_edges(self, b):
        # the band argument is the continuous range [xi_min, xi_max]: at most
        # the min over any subcarrier grid of it, equal where no pair of the
        # best beam crosses a null, and the same for an equal band
        grid, band = np.linspace(-1.0, 1.0, 2001), BandSpec(b)
        got = worst_subcarrier_gain(grid, [0.3], band, 16)
        assert np.array_equal(got, dense_worst_gain(grid, [0.3], band, 16))
        assert np.array_equal(got, worst_subcarrier_gain(grid, [0.3], BandSpec.from_carrier(1.0, b), 16))
        sampled = sampled_worst_gain(grid, [0.3], band.xi_grid(65), 16)
        assert np.all(got <= sampled)
        clear = null_count(grid * band.xi_min - 0.3, 16) == null_count(grid * band.xi_max - 0.3, 16)
        assert np.array_equal(got[clear].view(np.int64), sampled[clear].view(np.int64))
        assert clear.all() == (b == 0.0)

    def test_windows_overlap_at_the_last_round(self):
        # at h = 1 the windows about the images psi0 - 2 and psi0 meet at
        # psi0 - 1, where rounding leaves a gap of one float between their
        # edges; only the windows' padding puts that angle in one of them
        psi0, band = -0.9180529521276106, BandSpec(0.0)
        psi = np.array([-1.9180529521276108, -1.9180529521276106])
        got = worst_subcarrier_gain(psi, [psi0], band, 3)
        assert np.array_equal(got, dense_worst_gain(psi, [psi0], band, 3))

    @pytest.mark.parametrize("n, span", [(2, 1.0), (16, 1.0), (17, 40.0), (64, 3.0), (4096, 30.0)])
    def test_any_angles_match_the_dense_oracle(self, n, span):
        # unsorted angles with repeats, out to several kernel periods, bit for
        # bit at any b; and the period's edges, shuffled in: the odd integers,
        # where rint(psi/2) ties to even, the images 2k +- 1e-12, angles in
        # (1, 3], and foci at +-1 and +-1.5
        rng = np.random.default_rng([n, 18])
        psi = rng.uniform(-span, span, 500)
        psi = np.concatenate([psi, psi[::5]])
        foci = rng.uniform(-1.6, 1.6, min(2 * n + 1, 40))
        edges = np.random.default_rng([n, 32])
        images = 2.0 * np.arange(-3, 4)
        odd = [-5.0, -3.0, -1.0, 1.0, 3.0, 5.0]
        psi = np.concatenate([psi, edges.permutation(np.concatenate([odd, images - 1e-12, images + 1e-12, 3.0 - edges.uniform(0.0, 2.0, 60)]))])
        foci = np.concatenate([foci, [-1.5, -1.0, 1.0, 1.5]])
        for b in (0.0, 1e-9, float(rng.uniform(0.0, 0.3)), 1.9):
            got = worst_subcarrier_gain(psi, foci, BandSpec(b), n)
            want = dense_worst_gain(psi, foci, BandSpec(b), n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), b

    def test_pairs_at_one_angle_take_their_band_min(self):
        # at psi = 0.01, N=16, b = 0.0342: a beam on a sidelobe (focus 0.5) or
        # on the grating lobe about x = 2 (focus -1.99) takes the min over the
        # band's subcarriers; one across the null -3/8 (focus 0.385) takes 0,
        # which no subcarrier of the grid reaches; next to the beam focused on
        # 0, the best is that beam's min
        band = BandSpec(0.0342)
        xis = band.xi_grid(65)
        for focus in (0.5, -1.99):
            assert worst_subcarrier_gain(0.01, [focus], band, 16) == gain_kernel_magnitude(0.01 * xis - focus, 16).min()
        assert worst_subcarrier_gain(0.01, [0.385], band, 16) == 0.0 < gain_kernel_magnitude(0.01 * xis - 0.385, 16).min()
        assert worst_subcarrier_gain(0.01, [0.0, 0.385], band, 16) == gain_kernel_magnitude(0.01 * xis, 16).min()


class TestBandEdgeScreen:
    """The lobe rule against the dense continuous-band oracle, compared as
    int64 bits. Wide bands carry the edges across nulls; foci out to +-1.5
    reach the grating lobes; bands of 1e-12 and 1e-9 are where an interior
    subcarrier's computed value can round below both band edges."""

    GRID = np.linspace(-1.0, 1.0, 401)

    def case(self, n, b, seed):
        rng = np.random.default_rng(seed)
        if b is None:
            b = rng.uniform(0.0, 1.99)
        return np.sort(rng.uniform(-1.5, 1.5, 9)), BandSpec(b)

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 64])
    @pytest.mark.parametrize("b", [0.0, 1e-12, 1e-9, 1e-6, None], ids=str)
    def test_bits_equal_dense(self, n, b):
        for seed in range(3):
            foci, band = self.case(n, b, [n, seed])
            got = worst_subcarrier_gain(self.GRID, foci, band, n)
            want = dense_worst_gain(self.GRID, foci, band, n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed

    @pytest.mark.parametrize("seed", range(4))
    def test_continuous_under_every_sampled_grid(self, seed):
        # seeded wide bands: the continuous min is at most the min over 4,097
        # subcarriers, which is at most the min over every 64th of them (65);
        # at angles where no beam crosses a null the three agree bit for bit
        rng, grid = np.random.default_rng([seed, 26]), self.GRID[::2]
        for _ in range(5):
            n = int(rng.choice([2, 3, 8, 16, 17, 64]))
            b = float(rng.uniform(0.05, 1.99))
            foci = rng.uniform(-1.5, 1.5, int(rng.integers(1, 9)))
            fine = BandSpec(b).xi_grid(4097)
            continuous = worst_subcarrier_gain(grid, foci, BandSpec(b), n)
            dense, coarse = (sampled_worst_gain(grid, foci, xis, n) for xis in (fine, fine[::64]))
            assert np.all(continuous <= dense) and np.all(dense <= coarse)
            lo, hi = (np.subtract.outer(grid * xi, foci) for xi in (fine[0], fine[-1]))
            clear = (null_count(lo, n) == null_count(hi, n)).all(axis=1)
            assert clear.any() and not clear.all()
            for got in (dense, coarse):
                assert np.array_equal(continuous[clear].view(np.int64), got[clear].view(np.int64))
