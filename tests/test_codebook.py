import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsquint import codebook
from beamsquint.array_model import ArrayGeometry, fine_beam_weights
from beamsquint.codebook import (
    Beam,
    Codebook,
    CodebookFormatError,
    design_no_squint,
    design_with_squint,
    max_antennas,
    max_fractional_bandwidth,
    min_size_no_squint,
)
from beamsquint.squint import (
    BandSpec,
    CoverageInterval,
    GainThreshold,
    focus_from_left_edge,
    half_power_beamwidth,
    squinted_coverage,
)
from beamsquint.verification import sweep_size_vs_b, sweep_size_vs_n

from recurrence_oracle import oracle_min_size, oracle_sizes

BAND = BandSpec(0.0342)


class TestMinSizeNoSquint:
    def test_full_range_16(self):
        assert min_size_no_squint(16, 1.0) == 19

    def test_larger_array(self):
        assert min_size_no_squint(32, 1.0) == 37

    def test_half_range(self):
        assert min_size_no_squint(16, 0.5) == 10

    def test_exact_tiling_boundary(self):
        # psi_m an exact multiple of the width must not add a beam
        assert min_size_no_squint(4, 0.443) == 2

    @pytest.mark.parametrize("b", [0.0, 0.1])
    def test_tiny_psi_m_takes_one_beam(self, b):
        # at psi_m <= 1e-12, the tiling tolerance, the plan gave no beam: the
        # size rounded to 0 at b = 0, and at b > 0 the even tiling, with no
        # pair, beat the odd one's broadside beam
        assert min_size_no_squint(8, 1e-13) == 1
        assert design_with_squint(8, BandSpec(b), 1e-13).codebook.foci == (0.0,)
        assert sweep_size_vs_n([b], [8], 1e-13).series[0].points[0].size == 1
        assert sweep_size_vs_b([8], [b], 1e-13).series[0].points[0].size == 1


class TestDesignNoSquint:
    def test_19_beam_layout(self):
        book = design_no_squint(16, 1.0)
        assert book.size == 19
        assert book.parity == "odd"
        foci = [b.psi0 for b in book.beams]
        assert foci[9] == 0.0
        assert foci[-1] == pytest.approx(9 * 0.110750, abs=1e-12)  # 0.99675
        assert foci[0] == pytest.approx(-0.99675, abs=1e-12)

    def test_odd_parity_37(self):
        book = design_no_squint(32, 1.0)
        assert book.size == 37
        assert book.parity == "odd"

    def test_even_tiling(self):
        book = design_no_squint(4, 0.443)
        assert book.size == 2
        assert [b.psi0 for b in book.beams] == pytest.approx([-0.2215, 0.2215], abs=1e-12)

    def test_tiles_without_overlap(self):
        book = design_no_squint(16, 1.0)
        width = half_power_beamwidth(16)
        for left, right in zip(book.beams, book.beams[1:]):
            assert right.coverage.lo - left.coverage.hi == pytest.approx(0.0, abs=1e-12)
            assert left.coverage.width == pytest.approx(width, abs=1e-12)

    def test_complete_coverage(self):
        for n in (2, 7, 16, 33):
            for psi_m in (0.25, 0.7, 1.0):
                assert design_no_squint(n, psi_m).coverage_gaps() == []

    @pytest.mark.parametrize("psi_m", [1.0, 0.77, 0.3])
    def test_foci_bits(self, psi_m):
        # k*width with a broadside beam when odd, (k - 1/2)*width when even
        for n in range(2, 130):
            size = min_size_no_squint(n, psi_m)
            width = half_power_beamwidth(n)
            if size % 2:
                half = [k * width for k in range(1, (size - 1) // 2 + 1)]
                want = [-f for f in reversed(half)] + [0.0] + half
            else:
                half = [(k - 0.5) * width for k in range(1, size // 2 + 1)]
                want = [-f for f in reversed(half)] + half
            for book in (design_no_squint(n, psi_m), design_with_squint(n, BandSpec(0.0), psi_m).codebook):
                got = np.array([beam.psi0 for beam in book.beams])
                assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64)), (n, psi_m)


class TestDesignWithSquint:
    def test_squint_size_16(self):
        outcome = design_with_squint(16, BAND, 1.0)
        assert outcome.feasible
        assert outcome.size == 22
        assert outcome.codebook.parity == "even"

    def test_odd_and_even_candidates_match_recurrence(self):
        # N=16, b=0.0342: the odd procedure yields 23, the even one 22
        assert oracle_sizes(16, 0.0342) == (23, 22)
        assert oracle_sizes(32, 0.0342) == (57, 58)

    def test_squint_size_32(self):
        outcome = design_with_squint(32, BAND, 1.0)
        assert outcome.size == 57
        assert outcome.codebook.parity == "odd"

    def test_zero_bandwidth_degenerates(self):
        outcome = design_with_squint(16, BandSpec(0.0), 1.0)
        assert outcome.size == design_no_squint(16, 1.0).size == 19

    def test_matches_recurrence_oracle_across_grid(self):
        for n in (4, 8, 16, 24, 32, 64):
            for b in (0.0, 0.005, 0.0179, 0.0342, 0.0714):
                expected = oracle_min_size(n, b)
                outcome = design_with_squint(n, BandSpec(b), 1.0)
                if expected is None:
                    assert not outcome.feasible
                else:
                    assert outcome.size == expected, (n, b)

    def test_abutting_coverage(self):
        book = design_with_squint(16, BAND, 1.0).codebook
        positive = [b for b in book.beams if b.psi0 > 0]
        for left, right in zip(positive, positive[1:]):
            assert right.coverage.lo == pytest.approx(left.coverage.hi, abs=1e-12)

    def test_complete_coverage(self):
        for n, b in ((8, 0.0179), (16, 0.0342), (32, 0.0342), (64, 0.0179)):
            book = design_with_squint(n, BandSpec(b), 1.0).codebook
            assert book.coverage_gaps() == []
        # a narrower target range: the beams outside it are skipped
        narrow = dataclasses.replace(design_with_squint(16, BAND, 1.0).codebook, psi_m=0.05)
        assert narrow.coverage_gaps() == []

    def test_outermost_overshoot_allowed(self):
        book = design_with_squint(16, BAND, 1.0).codebook
        assert book.beams[-1].coverage.hi >= 1.0

    def test_symmetry(self):
        for n, b in ((16, 0.0342), (32, 0.0342), (16, 0.0)):
            book = design_with_squint(n, BandSpec(b), 1.0).codebook
            foci = sorted(bm.psi0 for bm in book.beams)
            mirrored = sorted(-f for f in foci)
            assert foci == pytest.approx(mirrored, abs=0.0)
            has_center = any(f == 0.0 for f in foci)
            assert has_center == (book.parity == "odd")

    def test_minimal_tiling(self):
        book = design_with_squint(16, BAND, 1.0).codebook
        for drop in range(book.size):
            thinned = dataclasses.replace(book, foci=book.foci[:drop] + book.foci[drop + 1 :])
            assert thinned.coverage_gaps() != []

    def test_size_monotone_in_bandwidth(self):
        sizes = [design_with_squint(16, BandSpec(b), 1.0).size for b in np.linspace(0, 0.10, 21)]
        assert all(s1 <= s2 for s1, s2 in zip(sizes, sizes[1:]))

    def test_size_monotone_in_antennas(self):
        sizes = [design_with_squint(n, BAND, 1.0).size for n in range(4, 52)]
        assert all(s1 <= s2 for s1, s2 in zip(sizes, sizes[1:]))

    def test_divergence_near_bound(self):
        # size grows without bound approaching the feasibility limit
        bound = max_fractional_bandwidth(16, 1.0)
        near = design_with_squint(16, BandSpec(0.999 * bound), 1.0).size
        mid = design_with_squint(16, BandSpec(0.5 * bound), 1.0).size
        assert near > 4 * mid


class TestFeasibility:
    def test_bandwidth_bound_values(self):
        assert max_fractional_bandwidth(16, 1.0) == pytest.approx(0.110750, abs=1e-15)
        assert max_fractional_bandwidth(32, 1.0) == pytest.approx(0.055375, abs=1e-15)
        assert max_fractional_bandwidth(16, 0.5) == pytest.approx(0.221500, abs=1e-15)

    def test_antenna_bound_values(self):
        assert max_antennas(BandSpec(0.0342), 1.0) == 51
        assert max_antennas(BandSpec(0.0714), 1.0) == 24
        assert max_antennas(BandSpec(0.11075), 1.0) == 16

    def test_zero_bandwidth_unbounded(self):
        assert max_antennas(BandSpec(0.0), 1.0) is None

    @pytest.mark.parametrize("b, psi_m", [(1e-320, 1.0), (1e-10, 1e-320)])
    def test_bound_beyond_the_float_range_is_none(self, b, psi_m):
        # 1.772/(psi_m*b) overflows, or psi_m*b underflows to 0: they raised
        # OverflowError and ZeroDivisionError
        assert max_antennas(BandSpec(b), psi_m) is None
        assert max_antennas(BandSpec(1e-300), 1.0) == math.floor(1.772e300)

    def test_feasible_just_below_bound(self):
        outcome = design_with_squint(16, BandSpec(0.1107), 1.0)
        assert outcome.feasible
        assert outcome.size > 100

    def test_infeasible_at_and_above_bound(self):
        for b in (0.1108, 0.110750, 0.2):
            outcome = design_with_squint(16, BandSpec(b), 1.0)
            assert not outcome.feasible
            inf = outcome.infeasibility
            assert inf.max_fractional_bandwidth == pytest.approx(0.110750, abs=1e-12)
            assert inf.fractional_bandwidth == b
            with pytest.raises(ValueError):
                _ = outcome.size

    def test_beyond_max_antennas_infeasible(self):
        band = BandSpec(0.0714)
        assert design_with_squint(24, band, 1.0).feasible
        assert not design_with_squint(25, band, 1.0).feasible


class TestDegeneracyAcrossSizes:
    def test_zero_squint_equals_plain_tiling(self):
        for n in range(2, 65):
            for psi_m in (0.25, 0.5, 1.0):
                squint_size = design_with_squint(n, BandSpec(0.0), psi_m).size
                assert squint_size == min_size_no_squint(n, psi_m), (n, psi_m)


class TestSerialization:
    def test_round_trip(self):
        book = design_with_squint(16, BAND, 1.0).codebook
        clone = Codebook.from_json(book.to_json())
        assert clone.size == book.size
        assert clone.parity == book.parity
        assert clone.psi_m == book.psi_m
        assert clone.band.fractional_bandwidth == book.band.fractional_bandwidth
        for a, b in zip(clone.beams, book.beams):
            assert a.psi0 == b.psi0
            assert (a.coverage.lo, a.coverage.hi) == (b.coverage.lo, b.coverage.hi)
        phases = [[beam["phases_rad"] for beam in c.to_dict()["beams"]] for c in (clone, book)]
        assert phases[0] == phases[1]

    def test_round_trip_is_equal(self):
        # a band from a carrier is the band from b: nothing else is stored
        designed = design_with_squint(16, BandSpec.from_carrier(73e9, 2.5e9), 1.0).codebook
        assert designed == design_with_squint(16, BandSpec(2.5e9 / 73e9), 1.0).codebook
        direct = Codebook((-0.5, 0.1, 0.6), 0.8, BAND, 12, GainThreshold(0.3))
        # numpy scalars are stored as the floats they equal, which JSON can write
        single = Codebook((np.float32(-0.5), np.float32(0.5)), 1.0, BandSpec(np.float32(0.01)), 8, GainThreshold(np.float32(0.5)))
        for book in (designed, direct, single):
            assert Codebook.from_json(book.to_json()) == book
        assert single == Codebook((-0.5, 0.5), 1.0, BandSpec(float(np.float32(0.01))), 8, GainThreshold(0.5))
        assert {type(v) for v in (*single.foci, single.band.fractional_bandwidth, single.threshold.ratio_to_max)} == {float}

    @pytest.mark.parametrize("n", [16.0, np.int64(16)])
    def test_array_size_stored_as_int(self, n):
        book = Codebook(design_no_squint(16, 1.0).foci, 1.0, BAND, n, GainThreshold())
        assert type(book.n_antennas) is int
        geom = ArrayGeometry(n)  # fine_beam_weights raised TypeError on a float N
        assert type(geom.n_antennas) is int and geom == ArrayGeometry(16)
        assert fine_beam_weights(geom, 0.1).tolist() == fine_beam_weights(ArrayGeometry(16), 0.1).tolist()
        assert json.loads(book.to_json())["n_antennas"] == 16
        assert Codebook.from_json(book.to_json()) == book

    @pytest.mark.parametrize("n", [2, 17, 64])
    def test_phases_are_fine_beam_weights_bit_for_bit(self, n):
        # -0.0 and 0.0 in two codebooks, as the wire format holds no repeated focus
        for foci in ((-0.93, -0.25, -0.0, 1e-300, 0.4, 1.02), (-0.25, 0.0, 0.4)):
            book = Codebook(foci, 1.0, BAND, n, GainThreshold())
            for beam, psi0 in zip(book.to_dict()["beams"], foci):
                # the array product fine_beam_weights made with numpy alone
                product = (2.0 * math.pi * 0.5 * psi0 * np.arange(n)).tolist()
                # repr tells -0.0 (element 0 of a negative focus) from 0.0
                assert list(map(repr, beam["phases_rad"])) == list(map(repr, product))
                assert list(map(repr, fine_beam_weights(ArrayGeometry(n), psi0).tolist())) == list(map(repr, product))

    def test_array_size_checked(self):
        for n in (1, 2.5):
            with pytest.raises(ValueError, match="n_antennas"):
                Codebook((0.0,), 1.0, BAND, n, GainThreshold())

    def test_schema_key_order_and_fields(self):
        doc = design_no_squint(16, 1.0).to_dict()
        assert list(doc) == [
            "n_antennas",
            "spacing_ratio",
            "fractional_bandwidth",
            "psi_m",
            "threshold_ratio",
            "parity",
            "size",
            "beams",
        ]
        assert list(doc["beams"][0]) == ["index", "psi0", "theta0_deg", "phases_rad", "coverage"]

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
    def test_every_design_round_trips(self, n):
        books = [design_no_squint(n, 1.0)]
        for psi_m in (1.0, 0.77, 0.3):
            bound = max_fractional_bandwidth(n, psi_m)
            for b in (0.0, 0.01 * bound, 0.5 * bound, 0.99 * bound, 0.999999 * bound):
                if b < 2.0:
                    books.append(design_with_squint(n, BandSpec(b), psi_m).codebook)
        assert len(books) > 10 and None not in books
        for book in books:
            assert Codebook.from_json(book.to_json()) == book

    @pytest.mark.parametrize(
        "key, value, record",
        [
            ("fractional_bandwidth", 2.5, lambda: BandSpec(2.5)),
            ("threshold_ratio", 2.0, lambda: GainThreshold(2.0)),
            ("n_antennas", 1, lambda: ArrayGeometry(1)),
            ("psi_m", 2.0, lambda: Codebook((0.0,), 2.0, BAND, 16, GainThreshold())),
            ("beams", [], lambda: Codebook((), 1.0, BAND, 16, GainThreshold())),
        ],
    )
    def test_range_rules_are_the_records(self, key, value, record):
        # the document states the value; the record states the rule and its message
        with pytest.raises(ValueError) as refused:
            record()
        doc = design_no_squint(16, 1.0).to_dict()
        doc[key] = value
        with pytest.raises(CodebookFormatError) as rejected:
            Codebook.from_dict(doc)
        assert str(rejected.value) == str(refused.value)

    def test_missing_key_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        del doc["psi_m"]
        with pytest.raises(CodebookFormatError, match="psi_m"):
            Codebook.from_dict(doc)

    def test_wrong_phase_count_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"][0]["phases_rad"] = doc["beams"][0]["phases_rad"][:-1]
        with pytest.raises(CodebookFormatError, match="phases_rad"):
            Codebook.from_dict(doc)

    def test_inconsistent_phases_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"][0]["phases_rad"][3] += 0.01
        with pytest.raises(CodebookFormatError, match="fine-beam"):
            Codebook.from_dict(doc)

    def test_contradicting_parity_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()  # 19 beams
        doc["parity"] = "even"
        with pytest.raises(CodebookFormatError, match="parity must be 'odd' for 19 beams"):
            Codebook.from_dict(doc)

    def test_size_mismatch_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["size"] = 5
        with pytest.raises(CodebookFormatError, match="size"):
            Codebook.from_dict(doc)

    @pytest.mark.parametrize(
        "foci, message",
        [
            ((0.5, -0.5), "beams must be strictly sorted by psi0"),
            ((0.0, 0.0), "beams must be strictly sorted by psi0"),
            ((1.6,), "beam 0 psi0 out of range, got 1.6"),
        ],
    )
    def test_foci_the_format_cannot_hold_are_not_written(self, monkeypatch, foci, message):
        # such a codebook builds, but to_json wrote a document that its own
        # from_json refused; to_dict now raises from_dict's error first
        book = Codebook(foci, 1.0, BandSpec(0.0), 8, GainThreshold())
        for write in (book.to_dict, book.to_json):
            with pytest.raises(CodebookFormatError) as written:
                write()
            assert str(written.value) == message
        with monkeypatch.context() as patch:
            patch.setattr(codebook, "_wire_foci", tuple)
            text = book.to_json()  # the document written without the check
        with pytest.raises(CodebookFormatError) as read:
            Codebook.from_json(text)
        assert str(read.value) == message

    def test_unsorted_beams_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"] = list(reversed(doc["beams"]))
        with pytest.raises(CodebookFormatError, match="sorted"):
            Codebook.from_dict(doc)

    def test_non_half_wavelength_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["spacing_ratio"] = 0.6
        with pytest.raises(CodebookFormatError, match="spacing_ratio"):
            Codebook.from_dict(doc)

    def test_string_coverage_edge_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"][2]["coverage"]["lo"] = "-0.8"
        with pytest.raises(CodebookFormatError, match="beam 2 coverage"):
            Codebook.from_dict(doc)

    def test_index_not_position_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"][1]["index"] = -7
        with pytest.raises(CodebookFormatError, match="beam 1 index must be its position 1"):
            Codebook.from_dict(doc)

    def test_coverage_is_derived_not_read(self):
        # a narrowband document relabelled to a squinted band: the coverages
        # it carries are those of b = 0, one of them absurdly wide
        doc = design_no_squint(16, 1.0).to_dict()
        doc["fractional_bandwidth"] = 0.0342
        doc["beams"][0]["coverage"] = {"lo": -5.0, "hi": 5.0}
        book = Codebook.from_dict(doc)
        for beam in book.beams:
            assert beam.coverage == squinted_coverage(beam.psi0, BandSpec(0.0342), 16)
        assert book.coverage_gaps() != []
        written = book.to_dict()["beams"]
        assert [beam["index"] for beam in written] == list(range(19))
        assert [beam["coverage"] for beam in written] == [
            {"lo": bm.coverage.lo, "hi": bm.coverage.hi} for bm in book.beams
        ]

    def test_list_index_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"][1]["index"] = [1]
        with pytest.raises(CodebookFormatError, match="beam 1 index"):
            Codebook.from_dict(doc)

    @pytest.mark.parametrize(
        "path, match",
        [
            (("fractional_bandwidth",), "fractional_bandwidth"),
            (("psi_m",), "psi_m"),
            (("threshold_ratio",), "threshold_ratio"),
            (("size",), "size"),
            (("beams", 0, "index"), "index"),
            (("beams", 0, "psi0"), "psi0"),
            (("beams", 0, "phases_rad", 0), "phases_rad"),
            (("beams", 0, "coverage", "hi"), "coverage"),
        ],
    )
    def test_bool_for_number_rejected(self, path, match):
        doc = design_no_squint(16, 1.0).to_dict()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = True
        with pytest.raises(CodebookFormatError, match=match):
            Codebook.from_dict(doc)

    def test_number_beyond_float_range_rejected(self):
        doc = design_no_squint(16, 1.0).to_dict()
        doc["beams"][0]["phases_rad"][0] = 10**400
        with pytest.raises(CodebookFormatError, match="phases_rad"):
            Codebook.from_dict(doc)

    def test_bad_json_rejected(self):
        with pytest.raises(CodebookFormatError, match="invalid JSON"):
            Codebook.from_json("{not json")

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(CodebookFormatError, match="invalid JSON"):
            Codebook.from_json("[" * 100_000 + "]" * 100_000)

    def test_unphysical_focus_serializes_as_null(self):
        beam = Beam(0, 1.05, CoverageInterval(0.9, 1.1))
        assert beam.theta0_deg is None
        book = Codebook(
            foci=(beam.psi0,),
            psi_m=1.0,
            band=BAND,
            n_antennas=16,
            threshold=design_no_squint(16, 1.0).threshold,
        )
        doc = json.loads(book.to_json())
        assert doc["beams"][0]["theta0_deg"] is None
        assert Codebook.from_dict(doc).beams[0].psi0 == 1.05


# Any value json.loads can return: NaN, infinities and integers beyond the
# float range included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parse_or_format_error(doc):
    try:
        assert isinstance(Codebook.from_dict(doc), Codebook)
    except CodebookFormatError:
        pass


class TestFromDictFuzz:
    """Each input gives a Codebook or a CodebookFormatError, never another
    exception."""

    VALID = design_with_squint(4, BandSpec(0.1), 1.0).codebook.to_json()

    @settings(max_examples=300, derandomize=True)
    @given(doc=JSON_VALUES)
    def test_any_json_value(self, doc):
        _parse_or_format_error(doc)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(data=st.data(), delete=st.booleans())
    def test_one_field_mutated(self, data, delete):
        doc = json.loads(self.VALID)
        path = data.draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(JSON_VALUES)
        _parse_or_format_error(doc)


def reference_tile_right_half(n, band, psi_m, odd):
    """The tiling loop as it was when each step called the validated public
    functions, kept verbatim as the reference for the inlined step."""
    positive: list[float] = []
    # the odd procedure seeds a beam at broadside, the even one an edge
    psi_cr = squinted_coverage(0.0, band, n).hi if odd else 0.0
    while psi_cr < psi_m - codebook._EDGE_TOL:
        psi_cl = psi_cr
        psi0 = focus_from_left_edge(psi_cl, band, n)
        psi_cr = squinted_coverage(psi0, band, n).hi
        if psi_cl >= psi_cr:
            return None
        positive.append(psi0)
    return tuple([-f for f in reversed(positive)] + ([0.0] if odd else []) + positive)


def _plan_cases(draws):
    """Seeded (N, b, psi_m): N from 2 to 1024 (``draws`` of them at random),
    b at 0, 1e-9 and shares of the bound on both sides of it, psi_m 1, 0.77
    and 0.3."""
    rng = random.Random(20261018)
    sizes = sorted({2, 3, 4, 16, 64, 1024} | set(rng.sample(range(5, 1024), draws)))
    shares = (0.01, 0.3, 0.7, 0.99, 0.999999, 1.0, 1.01)
    for psi_m in (1.0, 0.77, 0.3):
        for n in sizes:
            bound = max_fractional_bandwidth(n, psi_m)
            for b in (0.0, 1e-9) + tuple(s * bound for s in shares):
                if b < 2.0:
                    yield n, BandSpec(b), psi_m


class TestTilingStep:
    """The tiling loop inlines focus_from_left_edge and squinted_coverage;
    every focus, size and infeasibility report keeps its bits."""

    def test_plan_matches_the_reference_loop(self, monkeypatch):
        cases = list(_plan_cases(16))
        designs = [repr(design_with_squint(*case)) for case in cases]
        monkeypatch.setattr(codebook, "_tile_right_half", reference_tile_right_half)
        assert designs == [repr(design_with_squint(*case)) for case in cases]
        assert any("infeasibility=None" in d for d in designs) and any("codebook=None" in d for d in designs)

    def test_each_step_is_the_public_calls(self):
        steps = 0
        for n, band, psi_m in _plan_cases(4):
            for odd in (True, False):
                foci = codebook._tile_right_half(n, band, psi_m, odd)
                if foci is None:
                    continue
                # replay the loop from the foci: each is the focus of the left
                # edge the one before it covers up to, bit for bit
                psi_cl = squinted_coverage(0.0, band, n).hi if odd else 0.0
                for psi0 in foci[len(foci) // 2 + odd :]:
                    assert psi_cl < psi_m - codebook._EDGE_TOL
                    assert psi0.hex() == focus_from_left_edge(psi_cl, band, n).hex()
                    psi_cl = squinted_coverage(psi0, band, n).hi
                    steps += 1
                assert psi_cl >= psi_m - codebook._EDGE_TOL
        assert steps > 10_000

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (lambda: sweep_size_vs_n([0.0], [1]), "n_antennas must be an integer >= 2, got 1"),
            (lambda: sweep_size_vs_n([0.05], [1]), "n_antennas must be an integer >= 2, got 1"),
            (lambda: sweep_size_vs_b([1], [0.0]), "n_antennas must be an integer >= 2, got 1"),
            (lambda: sweep_size_vs_n([0.0342], [16, 16.5]), "n_antennas must be an integer >= 2, got 16.5"),
            (lambda: sweep_size_vs_n([0.0], [16.9]), "n_antennas must be an integer >= 2, got 16.9"),
            (lambda: sweep_size_vs_b([16.5], [0.0342]), "n_antennas must be an integer >= 2, got 16.5"),
            (lambda: sweep_size_vs_n([0.0], [16], 0.0), r"psi_m must lie in \(0, 1\], got 0.0"),
            (lambda: sweep_size_vs_n([0.05], [16], 0.0), r"psi_m must lie in \(0, 1\], got 0.0"),
            (lambda: sweep_size_vs_b([16], [0.0], 0.0), r"psi_m must lie in \(0, 1\], got 0.0"),
            (lambda: sweep_size_vs_n([0.0], [16], math.nan), r"psi_m must lie in \(0, 1\], got nan"),
            (lambda: sweep_size_vs_b([16], [0.05], math.nan), r"psi_m must lie in \(0, 1\], got nan"),
            (lambda: sweep_size_vs_n([math.nan], [16]), "fractional_bandwidth must satisfy 0 <= b < 2, got nan"),
            (lambda: sweep_size_vs_b([16], [math.nan]), "fractional_bandwidth must satisfy 0 <= b < 2, got nan"),
            (lambda: sweep_size_vs_n([0.0], [math.nan]), "n_antennas must be an integer >= 2, got nan"),
            (lambda: sweep_size_vs_b([math.nan], [0.0]), "n_antennas must be an integer >= 2, got nan"),
        ],
    )
    def test_sweeps_refuse_bad_input_as_before(self, sweep, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep()
