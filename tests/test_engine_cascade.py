"""Engine pins of the window cascade, the lobe rule's pair batches and
verify's kernel-free screen: ``worst_subcarrier_gain``'s rounds of
``array_model._raise_to_window_mins`` and their kernel blocks, the
(angle, beam) pairs of ``array_model._band_min``, the reach of
``array_model._nearest_reach`` against ``squint._main_lobe_reach``, and the
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
from beamsquint.codebook import design_no_squint, max_fractional_bandwidth
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
        # is h = 1, every beam on every angle
        rounds = []  # whether each round's windows hold every (angle, beam) pair
        primitive = array_model._raise_to_window_mins

        def recording(angles, offsets, band, n, lo, hi, *rest):
            rounds.append((hi - lo).sum() >= len(angles) * len(offsets))
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
    got = array_model._band_min(psi, foci, band.xi_min, band.xi_max, n)
    want = np.stack([dense_worst_gain(psi[:, 0], [f], band, n) for f in foci], axis=1)
    assert got.shape == (40, 7)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (got == 0.0).any() and (got > 0.0).any()
    one = array_model._band_min(float(psi[3, 0]), float(foci[2]), band.xi_min, band.xi_max, n)
    assert isinstance(one, float) and one == got[3, 2]


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
        mins = array_model._band_min(self.GRID[rows], foci[beams], band.xi_min, band.xi_max, n)
        got = np.full(self.GRID.size, -np.inf)
        np.maximum.at(got, rows, mins)
        want = dense_worst_gain(self.GRID, foci, band, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        crosses = np.array([spans_null(psi * band.xi_min - f, psi * band.xi_max - f, n) for psi, f in zip(self.GRID[rows], foci[beams])])
        assert np.array_equal(mins == 0.0, crosses)
        assert crosses.any() == (b is None)


@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_screen_leaves_out_only_angles_above_the_bar(monkeypatch, n):
    # verify's screen leaves out an angle when the focus nearest at the carrier
    # reaches less than _main_lobe_reach(bar) at both band edges; every such
    # angle's best (the cascade's) must beat the bar. Seeded codebooks with
    # foci out to +-1.6, b from 0 to 1.999, and one beam; the grid holds each
    # focus and the floats next to it (where the two band-edge offsets mirror
    # each other on the flat peak), and for each bar the angles whose offset
    # at a band edge is the reach itself, and the floats next to those. Bars:
    # the pass level, below the sidelobe level, at the capped lobe's edge and
    # below it, 0, and at or above sqrt(N), where nothing is left out. In
    # blocks of 160 angles, with the foci reversed, the reach has the same bits.
    rng, left_out, total = np.random.default_rng([n, 30]), 0, 0
    root_n = math.sqrt(n)
    bars = [GainThreshold().absolute(n) * 10 ** (-0.2 / 20), 0.05 * root_n, gain_kernel_magnitude(1.999 / n, n), 1e-9 * root_n, 1e-300, 0.0, root_n, 2 * root_n]
    for case in range(24):
        b = float(rng.choice([0.0, 1.999, rng.uniform(0.0, 0.5 / n), rng.uniform(0.0, 1.999)]))
        foci = np.sort(rng.uniform(-1.6, 1.6, 1 if case % 6 == 0 else int(rng.integers(2, 2 * n + 3))))
        band = BandSpec(b)
        for bar in bars + [float(rng.uniform(0.0, root_n))]:
            h = _main_lobe_reach(bar, n)
            edges = np.concatenate([(foci + s * h) / xi for s in (-1.0, 1.0) for xi in (band.xi_min, band.xi_max)])
            grid = np.concatenate([np.linspace(-1.0, 1.0, 2001), foci, edges])
            grid = np.concatenate([grid, np.nextafter(grid, -2.0), np.nextafter(grid, 2.0)])
            reach = array_model._nearest_reach(grid, foci, band.xi_min, band.xi_max)
            out = reach < h
            assert np.all(worst_subcarrier_gain(grid[out], foci, band, n) > bar), (case, b, bar)
            assert 0.0 < bar < root_n or not out.any()
            with monkeypatch.context() as patch:
                patch.setattr(array_model, "_GAIN_CHUNK", 160)
                blocks = array_model._nearest_reach(grid, foci[::-1], band.xi_min, band.xi_max)
            assert np.array_equal(blocks.view(np.int64), reach.view(np.int64))
            if bar == bars[0]:
                left_out, total = left_out + np.count_nonzero(out), total + grid.size
    assert left_out > total / 6  # at the pass level the screen leaves out a good share


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
        # verify's screen sends the cascade one candidate: every other
        # angle's nearest beam clears the bar
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
        # so they are final after the cascade's first round
        calls = _record_rounds(monkeypatch)
        book = dataclasses.replace(design_no_squint(64, 1.0), band=BAND)
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
