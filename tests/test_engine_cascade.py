"""Engine pins of the few-pair path and the window cascade, the lobe
rule's pair batches and verify's kernel-free screen: ``worst_subcarrier_gain``'s
one-call path and rounds of
``array_model._raise_to_window_mins`` and their kernel blocks, the
(angle, beam) pairs of ``array_model._band_min``, the candidates of
``array_model._cell_screen`` against the per-angle reach and
``squint._main_lobe_reach``, and the
calls that ``verify_codebook`` makes into them, with ``_GAIN_CHUNK`` patched
to other block sizes. The contract these engines serve, bits equal to the
dense oracle and reports equal to the dense certifier, is pinned in
``test_array_model.py`` and ``test_verification.py``. A change of engine
replaces this file and lists the tests it drops."""

import dataclasses
import math

import numpy as np
import pytest

from beamsquint import array_model, verification
from beamsquint.array_model import gain_kernel_magnitude, worst_subcarrier_gain
from beamsquint.codebook import design_no_squint, design_with_squint, max_fractional_bandwidth
from beamsquint.squint import BandSpec, GainThreshold, _main_lobe_reach
from beamsquint.verification import _failure_gaps, verify_codebook

from dense_oracle import dense_worst_gain, null_count, reference_verify_codebook
from engine_spies import count_cascade_calls, record_kernel_blocks
from test_verification import BAND, _book, _peak_bytes


def every_beam_windows(psi, psi0s, band, n):
    """``array_model._raise_to_window_mins`` with one window per beam over
    every angle of ``psi`` (1-D): the blocks of ``_band_min`` calls, without
    the window cascade."""
    angles, offsets = np.asarray(psi, dtype=float), np.asarray(psi0s, dtype=float)
    beams, best = np.arange(len(offsets)), np.full(len(angles), -np.inf)
    lo, hi = np.zeros_like(beams), np.full_like(beams, len(angles))
    array_model._raise_to_window_mins(angles, offsets, band, n, lo, hi, beams, best)
    return best


class TestWorstSubcarrierGain:
    N = 16
    PSI0S = np.linspace(-0.9, 0.9, 5)
    BAND = BandSpec(0.04)  # xi in [0.98, 1.02]
    GRID = np.linspace(-1.0, 1.0, 23)

    @pytest.mark.parametrize(
        "chunk, rows",
        [
            (1 << 14, 23),  # the whole grid in one chunk
            (180, 18),  # one full chunk and a short last one of 5 angles
            (30, 3),  # three angles per chunk; pair blocks of 3 pairs
            (15, 1),  # two angles exceed the chunk: one angle per chunk
        ],
    )
    def test_matches_per_beam_loop(self, monkeypatch, chunk, rows):
        # _band_min with every beam on every angle, in blocks of angles
        monkeypatch.setattr(array_model, "_GAIN_CHUNK", chunk)
        blocks = record_kernel_blocks(monkeypatch, np.array)
        band = BandSpec(0.2)  # xi in [0.9, 1.1], where some pairs sweep across a null
        got = every_beam_windows(self.GRID, self.PSI0S, band, self.N)
        assert np.array_equal(got, dense_worst_gain(self.GRID, self.PSI0S, band, self.N))
        # one 1-D block per chunk, of the xi_min and xi_max values of its
        # (angle, beam) pairs, and no other block: a pair across a null takes 0
        expected = [2 * 5 * min(rows, len(self.GRID) - i) for i in range(0, len(self.GRID), rows)]
        assert [x.shape for x in blocks] == [(k,) for k in expected]
        crossing = [(x[i], x[i + len(x) // 2]) for x in blocks for i in range(len(x) // 2)]
        assert any(spans_null(x0, x1, self.N) for x0, x1 in crossing)

    @pytest.mark.parametrize("chunk", [1 << 14, 30, 4])
    def test_one_window_over_part_of_the_angles(self, monkeypatch, chunk):
        # a single window's rows in a block are the range it shares with the
        # block; the angles outside the window stay as they were
        monkeypatch.setattr(array_model, "_GAIN_CHUNK", chunk)
        blocks = record_kernel_blocks(monkeypatch)
        best = np.full(len(self.GRID), -np.inf)
        array_model._raise_to_window_mins(self.GRID, np.array([0.45]), self.BAND, self.N, np.array([5]), np.array([17]), np.array([0]), best)
        want = dense_worst_gain(self.GRID[5:17], [0.45], self.BAND, self.N)
        assert np.array_equal(best[5:17].view(np.int64), want.view(np.int64))
        assert np.isneginf(best[:5]).all() and np.isneginf(best[17:]).all()
        block = max(1, chunk // 2)
        rows = [len(range(max(5, a), min(17, a + block))) for a in range(0, len(self.GRID), block)]
        assert [shape[0] for shape in blocks if len(shape) == 1] == [2 * r for r in rows]

    @pytest.mark.parametrize("n, span", [(2, 1.0), (16, 1.0), (17, 40.0), (64, 3.0), (4096, 30.0)])
    def test_any_angles_in_input_order(self, monkeypatch, n, span):
        # unsorted angles with repeats, out to several kernel periods; at
        # N = 4096 the rounding bound reach*N exceeds 1e5, so the one round
        # is h = 1, every beam on every angle. With every phase modulo 2, each
        # round has three windows per beam, about the images 2k, |k| <= 1.
        # A chunk below two values per pair of the smallest case (600 angles,
        # 5 beams at N = 2) sends every case to the cascade
        monkeypatch.setattr(array_model, "_GAIN_CHUNK", 1 << 12)
        rounds = []  # whether each round's windows hold every (angle, beam) pair
        windows = []  # windows per beam, each round
        primitive = array_model._raise_to_window_mins

        def recording(angles, offsets, band, n, lo, hi, *rest):
            rounds.append((hi - lo).sum() >= len(angles) * len(offsets))
            windows.append(len(lo) / len(offsets))
            return primitive(angles, offsets, band, n, lo, hi, *rest)

        monkeypatch.setattr(array_model, "_raise_to_window_mins", recording)
        rng = np.random.default_rng([n, 18])
        psi = rng.uniform(-span, span, 500)
        psi = np.concatenate([psi, psi[::5]])
        foci = rng.uniform(-1.6, 1.6, min(2 * n + 1, 40))
        for b in (0.0, 1e-9, float(rng.uniform(0.0, 0.3)), 1.9):
            rounds.clear()
            got = worst_subcarrier_gain(psi, foci, BandSpec(b), n)
            want = dense_worst_gain(psi, foci, BandSpec(b), n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), b
            assert (rounds == [True]) == (n == 4096)
        assert windows and set(windows) == {3}


def spans_null(x0, x1, n):
    """Whether a null 2j/N of |g|, j not a multiple of N, lies in (lo, hi]
    of the two offsets, counted one j at a time."""
    lo, hi = sorted((float(x0), float(x1)))
    return any(lo < 2 * j / n <= hi for j in range(math.floor(n * lo / 2) - 1, math.ceil(n * hi / 2) + 2) if j % n)


class TestPairBatch:
    """The lobe rule of ``_band_min``: a pair is evaluated at its two band
    edges only, and takes 0 when a null lies between them, else its smaller
    edge value."""

    BAND = BandSpec(0.0342)  # xi in [0.9829, 1.0171]
    XIS = BAND.xi_grid(65)

    @pytest.mark.parametrize(
        "focus",
        [
            0.5,  # on a sidelobe, x in (-0.4902, -0.4898), between the nulls -1/2 and -3/8
            -1.99,  # on the grating lobe about x = 2, whose peak is no null
        ],
    )
    def test_pair_off_the_main_lobe_takes_two_evaluations(self, monkeypatch, focus):
        # both went to all 65 subcarriers under the main-lobe-only screen
        blocks = record_kernel_blocks(monkeypatch)
        (got,) = every_beam_windows([0.01], [focus], self.BAND, 16)
        assert blocks == [(2,)]
        assert got == gain_kernel_magnitude(0.01 * self.XIS - focus, 16).min()

    def test_pair_across_a_null_takes_two_evaluations_and_zero(self, monkeypatch):
        # at psi = 0.01 the beam focused on 0.385 sees x from -0.37517 to
        # -0.37483, across the null -3/8: its min over the band is 0, which
        # no subcarrier of the grid reaches
        blocks = record_kernel_blocks(monkeypatch)
        (got,) = every_beam_windows([0.01], [0.385], self.BAND, 16)
        assert blocks == [(2,)]
        assert got == 0.0 < gain_kernel_magnitude(0.01 * self.XIS - 0.385, 16).min()

    def test_pair_across_a_null_next_to_a_covering_beam(self, monkeypatch):
        # the same pair next to the beam focused on 0, near its peak: four
        # evaluations, and the best is that beam's band-edge min
        blocks = record_kernel_blocks(monkeypatch)
        (got,) = every_beam_windows([0.01], [0.0, 0.385], self.BAND, 16)
        assert blocks == [(4,)]
        assert got == gain_kernel_magnitude(0.01 * self.XIS, 16).min()

    def test_wide_band_pairs_take_two_evaluations_in_bounded_blocks(self, monkeypatch):
        # a band this wide sweeps most pairs across a null: each takes 0 from
        # its two band-edge values, in 1-D blocks of at most a chunk
        blocks = record_kernel_blocks(monkeypatch)
        grid, foci, band = np.linspace(-1, 1, 2001), np.linspace(-0.9, 0.9, 10), BandSpec(1.9)
        got = every_beam_windows(grid, foci, band, 4)
        assert all(len(shape) == 1 and shape[0] <= array_model._GAIN_CHUNK for shape in blocks)
        assert sum(shape[0] for shape in blocks) == 2 * grid.size * foci.size
        lo, hi = (np.subtract.outer(grid * xi, foci) for xi in (band.xi_min, band.xi_max))
        assert np.count_nonzero(null_count(lo, 4) != null_count(hi, 4)) > 0.5 * grid.size * foci.size
        assert np.array_equal(got.view(np.int64), dense_worst_gain(grid, foci, band, 4).view(np.int64))

    def test_crowded_beams_take_two_evaluations_per_pair(self, monkeypatch):
        # 200 beams within +-0.01 at N=64, at angles where some of them
        # cross a null: every pair costs its two band-edge values, no more
        blocks = record_kernel_blocks(monkeypatch)
        grid, foci = np.linspace(-1, 1, 401), np.linspace(-0.01, 0.01, 200)
        band = BandSpec(0.01)
        got = every_beam_windows(grid, foci, band, 64)
        assert all(len(shape) == 1 for shape in blocks)
        assert sum(shape[0] for shape in blocks) == 2 * grid.size * foci.size
        want = dense_worst_gain(grid, foci, band, 64)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", range(3))
def test_band_min_is_the_one_focus_oracle(seed):
    # seeded wide bands, negative angles as a column against foci as a row:
    # every broadcast pair is the dense oracle with that one focus, bit for
    # bit, some pairs cross a null, and a scalar pair is a float
    rng = np.random.default_rng([seed, 27])
    n, band = int(rng.choice([3, 8, 16, 17])), BandSpec(float(rng.uniform(0.05, 1.99)))
    psi, foci = -rng.uniform(0.0, 1.0, (40, 1)), rng.uniform(-1.5, 1.5, 7)
    got = array_model._band_min(psi, foci, band, n)
    want = np.stack([dense_worst_gain(psi[:, 0], [f], band, n) for f in foci], axis=1)
    assert got.shape == (40, 7)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (got == 0.0).any() and (got > 0.0).any()
    one = array_model._band_min(float(psi[3, 0]), float(foci[2]), band, n)
    assert isinstance(one, float) and one == got[3, 2]


@pytest.mark.parametrize("b", [0.0, 1e-9, None, 1.9], ids=str)
def test_one_float_pair_is_the_array_path_bit_for_bit(monkeypatch, b):
    # a pair of floats takes the kernel one float at a time, without
    # gain_kernel_magnitude, by the array path's float operations: random
    # pairs, carrier offsets at the lobe images 2k and 2k +- 1e-12 (and
    # +-5e-13, inside the singularity's tolerance), pairs across a null,
    # python floats and np.float64 alike
    blocks = record_kernel_blocks(monkeypatch)
    rng = np.random.default_rng([27, 0 if b is None else int(b * 1e9) + 1])
    images = np.add.outer(2.0 * np.arange(-2, 3), [0.0, 1e-12, -1e-12, 5e-13, -5e-13]).reshape(-1)
    zeros = 0
    for n in (2, 3, 4, 5, 8, 16, 17, 64, 255, 1024, 4096):
        band = BandSpec(float(rng.uniform(0.0, 0.3)) if b is None else b)
        psi = np.concatenate([rng.uniform(-1.0, 1.0, 60), np.zeros(images.size)])
        foci = np.concatenate([rng.uniform(-1.5, 1.5, 60), -images])  # at psi = 0 every band-edge offset is an image
        want = array_model._band_min(psi, foci, band, n)
        blocks.clear()
        for pairs in (zip(psi.tolist(), foci.tolist()), zip(psi, foci)):  # python floats, then np.float64
            got = [array_model._band_min(p, f, band, n) for p, f in pairs]
            assert {type(v) for v in got} == {float}
            assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64)), n
        assert blocks == []
        zeros += np.count_nonzero(want == 0.0)
    if b != 1e-9:  # a band of 1e-9 rarely spans a null
        assert (zeros > 0) == (b != 0.0)


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

    @pytest.mark.parametrize("n", [3, 16, 17])
    @pytest.mark.parametrize("b", [1e-9, None], ids=str)
    def test_one_batch_of_pairs(self, n, b):
        # every (angle, beam) pair of the grid in one _band_min call gives the
        # dense bits; the pairs across a null alone take 0 exactly
        foci, band = self.case(n, b, [n, 7])
        rows, beams = np.divmod(np.arange(self.GRID.size * foci.size), foci.size)
        mins = array_model._band_min(self.GRID[rows], foci[beams], band, n)
        got = np.full(self.GRID.size, -np.inf)
        np.maximum.at(got, rows, mins)
        want = dense_worst_gain(self.GRID, foci, band, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        crosses = np.array([spans_null(psi * band.xi_min - f, psi * band.xi_max - f, n) for psi, f in zip(self.GRID[rows], foci[beams])])
        assert np.array_equal(mins == 0.0, crosses)
        assert crosses.any() == (b is None)


def nearest_reach(psi, psi0s, band):
    """The reference screen, per angle of the 1-D ``psi``: the focus ``p``
    nearest at the carrier (one ``searchsorted`` on the sorted foci's
    midpoints, any order of foci) and its larger band-edge offset
    ``max(|psi*xi_min - p|, |psi*xi_max - p|)`` by ``_band_min``'s float
    expressions: verify's per-angle screen before it went per beam. Returns
    the reach and ``p``."""
    foci = np.sort(psi0s)
    p = foci[np.searchsorted(0.5 * (foci[1:] + foci[:-1]), psi)]
    return np.maximum(np.abs(psi * band.xi_min - p), np.abs(psi * band.xi_max - p)), p


class RecordingGrid(np.ndarray):
    """A grid that records the size of every index array it is read at."""

    reads: list = []

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer, slice)):
            RecordingGrid.reads.append(np.size(key))
        return super().__getitem__(key)


def assert_reference_and_margin(got, reach, p, cut):
    """The screen keeps every angle of reach >= ``cut``, and any other angle
    that it keeps has a reach within the stated margin, 1e-12*(1 + |p|), of
    ``cut`` (and the few ulps of ``|p| + 2`` that the margin covers)."""
    kept = np.zeros(len(reach), bool)
    kept[got] = True
    assert np.all(got[1:] > got[:-1]) and kept[reach >= cut].all()
    extra = kept & (reach < cut)
    slack = 1e-12 * (1.0 + np.abs(p[extra])) + 8 * np.finfo(float).eps * (2.0 + np.abs(p[extra]))
    assert np.all(reach[extra] >= cut - slack), (cut, reach[extra].min(initial=cut))
    return np.count_nonzero(extra)


class TestCellScreen:
    """``array_model._cell_screen`` against the per-angle reference: every
    candidate of the reference and only extras within the stated margin, and
    the cutoff taken at an angle of largest reach, from band-edge offsets at
    O(foci) angles."""

    def screen(self, grid, foci, band, cut):
        """The screen's candidates and the angles that it gave the cutoff."""
        asked = []
        got = array_model._cell_screen(grid, foci, band, lambda psi: asked.append(psi) or cut(psi))
        assert got.dtype.kind == "i" and len(asked) == 1
        return got, asked[0]

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    @pytest.mark.parametrize("seed", range(2))
    def test_candidates_are_the_reference_screens(self, n, seed):
        # seeded codebooks: one focus, duplicate and unsorted foci, foci out
        # to +-1.6; b from 0 to 1.999; psi_m below 1; steps from 1e-5 up to
        # psi_m (most cells of 0 or 1 grid points when foci outnumber angles).
        # Cutoffs: the main-lobe reach of the pass level, of a random level
        # and of 0 (R = 0: every angle is kept), 1.999/N, and 3 (none of
        # reach >= R). The candidates hold the reference's, and the extras
        # are within the margin
        rng = np.random.default_rng([n, seed, 34])
        kept = total = 0
        for case in range(12):
            b = float(rng.choice([0.0, 1.999, rng.uniform(0.0, 0.5 / n), rng.uniform(0.0, 1.999)]))
            foci = rng.uniform(-1.6, 1.6, 1 if case % 6 == 0 else int(rng.integers(2, 2 * n + 3)))
            if case % 3 == 1:
                foci = rng.permutation(np.concatenate([foci, foci[: len(foci) // 2 + 1]]))
            psi_m = float(rng.choice([1.0, rng.uniform(0.3, 1.0)]))
            step = float(rng.choice([1e-5, psi_m, 0.5 * psi_m, 10 ** rng.uniform(-4, -1)])) if case % 4 else psi_m
            grid, band = np.linspace(-psi_m, psi_m, int(round(2.0 * psi_m / step)) + 1), BandSpec(b)
            reach, p = nearest_reach(grid, foci, band)
            levels = [GainThreshold().absolute(n) * 10 ** (-0.2 / 20), float(rng.uniform(0.0, math.sqrt(n))), 0.0]
            for cut in [_main_lobe_reach(level, n) for level in levels] + [1.999 / n, 3.0]:
                got, at = self.screen(grid, foci, band, lambda psi: cut)
                assert_reference_and_margin(got, reach, p, cut)
                assert reach[np.searchsorted(grid, at)] == reach.max() and at in grid
                kept, total = kept + len(got), total + len(grid)
            assert len(self.screen(grid, foci, band, lambda psi: 0.0)[0]) == len(grid)
        assert 0 < kept < total

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_angles_left_out_beat_the_bar(self, n):
        # a grid of the foci, their midpoints (where a cell ends), the angles
        # at which each offset meets +-R and +-(R less three margins), and the
        # floats on either side of each: the closed forms round to either side
        # of the cut, and the margin keeps the angles next to it, but not
        # those three margins inside. Every angle that the screen leaves out
        # has a best above the bar of R, whatever its foci
        rng = np.random.default_rng([n, 30])
        root_n = math.sqrt(n)
        bars = [GainThreshold().absolute(n) * 10 ** (-0.2 / 20), 0.05 * root_n, gain_kernel_magnitude(1.999 / n, n), 1e-9 * root_n, 1e-300, 0.0, root_n]
        extras = 0
        for case in range(12):
            b = float(rng.choice([0.0, 1.999, rng.uniform(0.0, 0.5 / n), rng.uniform(0.0, 1.999)]))
            foci, band = rng.uniform(-1.6, 1.6, 1 if case % 6 == 0 else int(rng.integers(2, 2 * n + 3))), BandSpec(b)
            for bar in bars + [float(rng.uniform(0.0, root_n))]:
                h = _main_lobe_reach(bar, n)
                inside = h - 3e-12 * (1.0 + np.abs(foci))
                edges = np.concatenate([(foci + s * r) / xi for s in (-1.0, 1.0) for r in (h, inside) for xi in (band.xi_min, band.xi_max)])
                mid = 0.5 * (np.sort(foci)[1:] + np.sort(foci)[:-1])
                grid = np.concatenate([np.linspace(-1.0, 1.0, 201), foci, mid, edges])
                grid = np.sort(np.concatenate([grid, np.nextafter(grid, -2.0), np.nextafter(grid, 2.0)]))
                got, at = self.screen(grid, foci, band, lambda psi: h)
                reach, p = nearest_reach(grid, foci, band)
                extras += assert_reference_and_margin(got, reach, p, h)
                assert reach[np.searchsorted(grid, at)] == reach.max()
                out = np.ones(len(grid), bool)
                out[got] = False
                assert np.all(worst_subcarrier_gain(grid[out], foci, band, n) > bar), (case, b, bar)
                assert 0.0 < bar < root_n or not out.any()
        assert extras > 0  # the floats next to a cut fall inside the margin

    def test_workload_verifies_keep_exactly_the_reference_screens(self, monkeypatch):
        # the benchmark's 17 verifies (certify's 11 paper designs, audit's 6
        # narrowband codebooks under squint): no grid angle falls inside the
        # margin, so the candidates are the reference's, index for index
        calls, screen = [], verification._cell_screen

        def recording(grid, psi0s, band, cutoff):
            cut = []
            got = screen(grid, psi0s, band, lambda psi: cut.append(cutoff(psi)) or cut[0])
            calls.append((got, nearest_reach(grid, psi0s, band)[0] >= cut[0]))
            return got

        monkeypatch.setattr(verification, "_cell_screen", recording)
        for n in (8, 16, 32, 64):
            for b in (0.0, 0.0179, 0.0342):
                if b < max_fractional_bandwidth(n, 1.0):
                    verify_codebook(design_with_squint(n, BandSpec(b), 1.0).codebook)
        for n in (16, 32, 64):
            for b in (0.0179, 0.0342):
                verify_codebook(dataclasses.replace(design_no_squint(n, 1.0), band=BandSpec(b)))
        assert len(calls) == 17
        for got, want in calls:
            assert np.array_equal(got, np.flatnonzero(want))

    def test_verify_reads_no_more_angles_on_a_finer_grid(self, monkeypatch):
        # the N=64, b = 0.0179 design (117 beams): a tenfold grid adds no angle
        # at which the screen reads a band-edge offset, which stays a few per beam
        reads, screen = {}, verification._cell_screen

        def recording(grid, *args):
            RecordingGrid.reads = []
            got = screen(grid.view(RecordingGrid), *args)
            reads[len(grid)] = sum(RecordingGrid.reads)
            return got.view(np.ndarray)

        monkeypatch.setattr(verification, "_cell_screen", recording)
        book = design_with_squint(64, BandSpec(0.0179), 1.0).codebook
        for step in (1e-4, 1e-5):
            assert verify_codebook(book, psi_step=step).passed
        assert list(reads) == [20001, 200001]
        assert reads[200001] <= reads[20001] <= 10 * book.size


class TestRefinementCalls:
    """Every edge is refined in lockstep, so the primitive calls of one
    refinement follow the Brent rounds of its slowest edge, not the number
    of edges (one call per edge and step before)."""

    def _refinement_calls(self, monkeypatch, calls, book):
        spans = []

        def failure_gaps(grid, failing, margin):
            start = len(calls)
            gaps = _failure_gaps(grid, failing, margin)
            spans.append(len(calls) - start)
            return gaps

        monkeypatch.setattr(verification, "_failure_gaps", failure_gaps)
        return verify_codebook(book), spans[0]

    def test_gap_refinement_does_not_grow_with_gaps(self, monkeypatch, book16):
        primitive_calls = count_cascade_calls(monkeypatch)
        narrowband = dataclasses.replace(design_no_squint(64, 1.0), band=BandSpec(0.0179))
        report, calls = self._refinement_calls(monkeypatch, primitive_calls, narrowband)
        assert len(report.gaps) == 68
        assert calls <= 10  # 680 when each edge called it once per Brent step
        report, calls = self._refinement_calls(monkeypatch, primitive_calls, book16)
        assert report.passed
        assert calls == 0


def test_memory_bounded_when_most_pairs_cross_a_null(monkeypatch):
    # A band this wide sweeps most (angle, beam) pairs across a null: about
    # 115k of 200k pairs, which took 60 MB when each went to all 65
    # subcarriers at once. Each takes 0 from its two band-edge values, in
    # 1-D blocks of at most a chunk. Every beam is on every angle, without
    # the cascade's narrower windows.
    blocks = record_kernel_blocks(monkeypatch)
    grid, foci = np.linspace(-1, 1, 20001), np.linspace(-0.9, 0.9, 10)
    band = BandSpec(1.9)
    assert _peak_bytes(lambda: every_beam_windows(grid, foci, band, 4)) < 4e6
    assert all(len(shape) == 1 and shape[0] <= array_model._GAIN_CHUNK for shape in blocks)
    assert sum(shape[0] for shape in blocks) == 2 * grid.size * foci.size
    lo, hi = (np.subtract.outer(grid * xi, foci) for xi in (band.xi_min, band.xi_max))
    assert np.count_nonzero(null_count(lo, 4) != null_count(hi, 4)) > 0.5 * grid.size * foci.size


def _record_rounds(monkeypatch):
    """Angles per round of the window cascade, one list per call of
    verification.worst_subcarrier_gain: in a verify, the angles its screen
    keeps first, then each refinement round of its gap edges."""
    calls = []
    primitive, cascade = array_model._raise_to_window_mins, verification.worst_subcarrier_gain

    def recording(angles, *args):
        calls[-1].append(len(angles))
        return primitive(angles, *args)

    def counting(*args):
        calls.append([])
        return cascade(*args)

    monkeypatch.setattr(array_model, "_raise_to_window_mins", recording)
    monkeypatch.setattr(verification, "worst_subcarrier_gain", counting)
    return calls


class TestWindowedSweepIsExact:
    """The window cascade against the dense reference: reports must be
    equal, float for float."""

    @pytest.mark.parametrize("chunk", [65, 130, 455])  # pair batches of a few angles to dozens
    def test_worst_xi_from_the_first_winner(self, monkeypatch, chunk):
        # the winner at the worst angle is the first beam with the largest
        # band min, whatever the cascade's blocks; duplicated foci tie exactly
        monkeypatch.setattr(array_model, "_GAIN_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n in (3, 8, 16, 64):
            foci = np.concatenate([rng.uniform(-1.2, 1.2, int(rng.integers(2, 2 * n))), [1.0 - 1.0 / n]])
            b = float(rng.uniform(0.0, 0.5))
            for book in (_book(n, b, 1.0, np.concatenate([foci, foci[:3]])), _book(n, b, 1.0, -foci)):
                for args in (dict(psi_step=0.01), dict(psi_step=0.01, xi_points=2)):
                    assert verify_codebook(book, **args) == reference_verify_codebook(book, **args)

    @pytest.mark.parametrize("chunk", [1 << 14, 160])  # one block of angles, or dozens
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_pair_batches_equal_dense_bits(self, monkeypatch, n, chunk):
        # seeded codebooks with foci out to +-1.5 reach the grating lobes;
        # b runs from 0 up to near the bound; the dense oracle takes one beam
        # at a time, in no chunks
        batches = []
        primitive = array_model._band_min

        def recording(psi, *args):  # one angle per pair
            batches.append(np.size(psi))
            return primitive(psi, *args)

        monkeypatch.setattr(array_model, "_band_min", recording)
        rng = np.random.default_rng([n, 12])
        grid = np.linspace(-1.0, 1.0, 2001)
        bound = max_fractional_bandwidth(n, 1.0)
        for b in (0.0, float(rng.uniform(0.0, bound)), 0.99 * bound):
            foci = np.sort(rng.uniform(-1.5, 1.5, int(rng.integers(1, 2 * n + 2))))
            dense = dense_worst_gain(grid, foci, BandSpec(b), n)
            batches.clear()
            with monkeypatch.context() as patch:
                patch.setattr(array_model, "_GAIN_CHUNK", chunk)
                windowed = worst_subcarrier_gain(grid, foci, BandSpec(b), n)
            assert np.array_equal(windowed.view(np.int64), dense.view(np.int64)), b
            # a block holds at most a chunk of band-edge values (two per
            # pair), or one angle's windows: at most two per beam
            assert max(batches) * 2 <= max(chunk, 4 * len(foci))

    def test_designed_codebook_final_after_first_round(self, monkeypatch, book16):
        # the first round's windows (h = 1/N), over several blocks of angles
        # at the default step, lift every angle of a covering codebook above
        # E(1/N) = |g(1/N)|: no angle goes on to a second round
        calls = _record_rounds(monkeypatch)
        verification.worst_subcarrier_gain(np.linspace(-1.0, 1.0, 20001), book16.foci, BAND, 16)
        assert calls == [[20001]]
        # verify's screen sends one candidate: every other angle's nearest
        # beam clears the bar. Its 22 pairs take the few-pair path, no round
        calls.clear()
        assert verify_codebook(book16).passed
        assert calls == [[]]
        # one angle's pairs above half a chunk: the candidate runs the cascade
        monkeypatch.setattr(array_model, "_GAIN_CHUNK", 2 * book16.size - 1)
        calls.clear()
        assert verify_codebook(book16).passed
        assert calls == [[1]]
        # as with the foci in descending order, which a codebook built directly may hold
        calls.clear()
        assert verify_codebook(dataclasses.replace(book16, foci=book16.foci[::-1])).passed
        assert calls == [[1]]

    def test_deep_gaps_shrink_round_by_round(self, monkeypatch):
        # a narrowband N=64 codebook under b = 0.0342 has 60 gaps; the angles
        # whose best is still at or under E(h) shrink with every doubling of
        # h, and the last round (h = 1, every beam) takes the 2 left. Each
        # refinement round's angles sit at a threshold crossing, above E(1/N),
        # so they are final after the cascade's first round. One angle's pairs
        # exceed half a chunk, so every call, however few its angles, runs the cascade
        calls = _record_rounds(monkeypatch)
        book = dataclasses.replace(design_no_squint(64, 1.0), band=BAND)
        monkeypatch.setattr(array_model, "_GAIN_CHUNK", 2 * book.size - 1)
        verification.worst_subcarrier_gain(np.linspace(-1.0, 1.0, 20001), book.foci, BAND, 64)
        assert calls == [[20001, 9824, 2622, 694, 166, 32, 2]]
        # verify's screen keeps 11,418 candidates, every angle that the first
        # round leaves undecided among them
        calls.clear()
        report = verify_codebook(book)
        screened, *refinement = calls
        assert screened == [11418, 9824, 2622, 694, 166, 32, 2]
        assert len(refinement) == 5 and refinement[0] == [236]
        assert all(len(rounds) == 1 for rounds in refinement)
        assert len(report.gaps) == 60
        assert report == reference_verify_codebook(book)


class TestFewPairPath:
    """At most ``_GAIN_CHUNK // 2`` (angle, beam) pairs, one kernel chunk of
    band-edge values, ``worst_subcarrier_gain`` takes every pair's
    ``_band_min`` in one call and runs no round of the window cascade; one
    pair more runs the cascade. The bits are the same either way."""

    N, BAND = 16, BandSpec(0.2)  # xi in [0.9, 1.1], where some pairs cross a null

    def _run(self, monkeypatch, angles, beams):
        rng = np.random.default_rng([angles, beams])
        psi, foci = rng.uniform(-1.0, 1.0, angles), rng.uniform(-1.0, 1.0, beams)
        calls = _record_rounds(monkeypatch)
        blocks = record_kernel_blocks(monkeypatch)
        got = verification.worst_subcarrier_gain(psi, foci, self.BAND, self.N)
        assert np.array_equal(got.view(np.int64), dense_worst_gain(psi, foci, self.BAND, self.N).view(np.int64))
        (rounds,) = calls
        return rounds, blocks

    def test_one_chunk_of_pairs_takes_one_kernel_block(self, monkeypatch):
        pairs = array_model._GAIN_CHUNK // 2
        rounds, blocks = self._run(monkeypatch, pairs // 16, 16)
        assert rounds == []
        assert blocks == [(2 * pairs,)]

    def test_one_pair_more_runs_the_cascade(self, monkeypatch):
        pairs = array_model._GAIN_CHUNK // 2 + 1  # 8,193 = 2,731 angles x 3 beams
        rounds, blocks = self._run(monkeypatch, pairs // 3, 3)
        assert rounds[0] == pairs // 3
        assert all(len(shape) == 1 and shape[0] <= array_model._GAIN_CHUNK for shape in blocks)

    @pytest.mark.parametrize("seed", range(6))
    def test_both_paths_give_the_same_bits(self, monkeypatch, seed):
        # seeded arrays, bands out to b = 1.9 and angles out to several
        # kernel periods; a chunk of exactly two values per pair forces the
        # few-pair path, two values less forces the cascade. A 2-D input
        # keeps its shape, and one angle comes back as a float
        rng = np.random.default_rng([seed, 40])
        n, band = int(rng.choice([2, 3, 8, 16, 17, 64])), BandSpec(float(rng.choice([0.0, rng.uniform(0.0, 1.9)])))
        psi = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 40)), 3))
        foci = rng.uniform(-1.6, 1.6, int(rng.integers(1, 2 * n + 2)))
        calls = _record_rounds(monkeypatch)
        results = []
        for angles in (psi, float(psi[0, 0])):
            for extra in (0, 2):
                with monkeypatch.context() as patch:
                    patch.setattr(array_model, "_GAIN_CHUNK", 2 * np.size(angles) * foci.size - extra)
                    results.append(verification.worst_subcarrier_gain(angles, foci, band, n))
        few, cascade, one_few, one_cascade = results
        assert [rounds == [] for rounds in calls] == [True, False, True, False]
        assert few.shape == cascade.shape == psi.shape
        assert np.array_equal(few.view(np.int64), cascade.view(np.int64))
        assert np.array_equal(few.view(np.int64), dense_worst_gain(psi, foci, band, n).view(np.int64))
        assert type(one_few) is type(one_cascade) is float and one_few == one_cascade == few[0, 0]
