"""The contract of the public records: type-strict equality, hashing, the
exact ``repr`` text, immutability, defaults, the constructor's signature,
validation, pickling and copying. ``Codebook`` is a dataclass, so
``dataclasses.replace`` on it builds a new one and re-runs its checks."""

import copy
import dataclasses
import math
import pickle

import pytest

from beamsquint import (
    ArrayGeometry,
    BandSpec,
    Beam,
    Codebook,
    CoverageInterval,
    CoverageReport,
    DesignOutcome,
    GainThreshold,
    Infeasibility,
    SweepPoint,
    SweepSeries,
    SweepTable,
)

BOOK = Codebook((-0.5, 0.0, 0.5), 1.0, BandSpec(0.0342), 8, GainThreshold())
INFEASIBLE = Infeasibility("b too wide", 64, 1.0, 0.0342, 0.0276875, 51)
POINT = SweepPoint(16.0, 19, 0.11075)
SERIES = SweepSeries("N=16", (POINT, SweepPoint(17.0, None, 0.5)))
REPORT = CoverageReport(
    False, -3.5, 0.25, 1.0171, (CoverageInterval(0.24, 0.26),), -3.0103, 0.2, 1e-4, 65, 16, 1.0
)

# (record, its field names in order, its repr)
RECORDS = [
    (ArrayGeometry(16), ("n_antennas", "spacing_ratio"), "ArrayGeometry(n_antennas=16, spacing_ratio=0.5)"),
    (BandSpec(0.0342), ("fractional_bandwidth",), "BandSpec(fractional_bandwidth=0.0342)"),
    (GainThreshold(0.5), ("ratio_to_max",), "GainThreshold(ratio_to_max=0.5)"),
    (CoverageInterval(-0.25, 0.5), ("lo", "hi"), "CoverageInterval(lo=-0.25, hi=0.5)"),
    (
        Beam(2, 0.5, CoverageInterval(0.4, 0.6)),
        ("index", "psi0", "coverage"),
        "Beam(index=2, psi0=0.5, coverage=CoverageInterval(lo=0.4, hi=0.6))",
    ),
    (
        BOOK,
        ("foci", "psi_m", "band", "n_antennas", "threshold"),
        "Codebook(foci=(-0.5, 0.0, 0.5), psi_m=1.0, band=BandSpec(fractional_bandwidth=0.0342),"
        " n_antennas=8, threshold=GainThreshold(ratio_to_max=0.7071067811865475))",
    ),
    (
        INFEASIBLE,
        ("reason", "n_antennas", "psi_m", "fractional_bandwidth", "max_fractional_bandwidth", "max_antennas"),
        "Infeasibility(reason='b too wide', n_antennas=64, psi_m=1.0, fractional_bandwidth=0.0342,"
        " max_fractional_bandwidth=0.0276875, max_antennas=51)",
    ),
    (
        DesignOutcome(infeasibility=INFEASIBLE),
        ("codebook", "infeasibility"),
        "DesignOutcome(codebook=None, infeasibility=Infeasibility(reason='b too wide', n_antennas=64,"
        " psi_m=1.0, fractional_bandwidth=0.0342, max_fractional_bandwidth=0.0276875, max_antennas=51))",
    ),
    (
        REPORT,
        ("passed", "worst_gain_db", "worst_psi", "worst_xi", "gaps", "threshold_db", "slack_db",
         "psi_step", "xi_points", "n_antennas", "psi_m"),
        "CoverageReport(passed=False, worst_gain_db=-3.5, worst_psi=0.25, worst_xi=1.0171,"
        " gaps=(CoverageInterval(lo=0.24, hi=0.26),), threshold_db=-3.0103, slack_db=0.2,"
        " psi_step=0.0001, xi_points=65, n_antennas=16, psi_m=1.0)",
    ),
    (POINT, ("axis_value", "size", "bound"), "SweepPoint(axis_value=16.0, size=19, bound=0.11075)"),
    (
        SERIES,
        ("label", "points"),
        "SweepSeries(label='N=16', points=(SweepPoint(axis_value=16.0, size=19, bound=0.11075),"
        " SweepPoint(axis_value=17.0, size=None, bound=0.5)))",
    ),
    (
        SweepTable("n_antennas", (SERIES,)),
        ("axis", "series"),
        "SweepTable(axis='n_antennas', series=(SweepSeries(label='N=16', points=(SweepPoint(axis_value=16.0,"
        " size=19, bound=0.11075), SweepPoint(axis_value=17.0, size=None, bound=0.5))),))",
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr_text(self, record, fields, text):
        assert repr(record) == text

    def test_rebuilt_by_position_or_keyword_is_equal_with_equal_hash(self, record, fields, text):
        values = _values(record, fields)
        for twin in (type(record)(*values), type(record)(**dict(zip(fields, values)))):
            assert twin == record and not twin != record
            assert hash(twin) == hash(record) == hash(values)

    def test_equality_is_type_strict(self, record, fields, text):
        values = _values(record, fields)
        assert record != values and values != record
        assert record.__eq__(values) is NotImplemented
        for other, _, _ in RECORDS:
            if type(other) is not type(record):
                assert record != other

    def test_fields_cannot_be_assigned_or_deleted(self, record, fields, text):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    def test_signature_errors(self, record, fields, text):
        cls, values = type(record), _values(record, fields)
        with pytest.raises(TypeError):
            cls(*values, values[0])  # one positional too many
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})  # given twice
        if cls not in (GainThreshold, DesignOutcome):  # whose fields all have defaults
            with pytest.raises(TypeError):
                cls()

    def test_pickle_and_copy_round_trips(self, record, fields, text):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record and repr(back) == text
        for twin in (copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)


class TestDefaults:
    def test_default_values(self):
        assert ArrayGeometry(8) == ArrayGeometry(8, 0.5) == ArrayGeometry(n_antennas=8)
        assert GainThreshold() == GainThreshold(1.0 / math.sqrt(2.0))
        assert GainThreshold().ratio_to_max == 1.0 / math.sqrt(2.0)
        outcome = DesignOutcome(codebook=BOOK)
        assert outcome.infeasibility is None and outcome == DesignOutcome(BOOK)
        assert DesignOutcome(None, INFEASIBLE).codebook is None

    def test_a_default_can_be_given_by_keyword(self):
        assert ArrayGeometry(8, spacing_ratio=0.25).spacing_ratio == 0.25
        assert ArrayGeometry(spacing_ratio=0.25, n_antennas=8) == ArrayGeometry(8, 0.25)

    def test_missing_arguments(self):
        with pytest.raises(TypeError):
            ArrayGeometry()
        with pytest.raises(TypeError):
            ArrayGeometry(spacing_ratio=0.5)
        with pytest.raises(TypeError):
            CoverageInterval(hi=0.5)
        with pytest.raises(TypeError):
            BandSpec()


class TestValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ArrayGeometry(1), "n_antennas must be an integer >= 2, got 1"),
            (lambda: ArrayGeometry(8.5), "n_antennas must be an integer >= 2, got 8.5"),
            (lambda: ArrayGeometry(8, 0.0), "spacing_ratio must be positive and finite, got 0.0"),
            (lambda: ArrayGeometry(8, spacing_ratio=math.inf), "spacing_ratio must be positive and finite"),
            (lambda: BandSpec(2.0), "fractional_bandwidth must satisfy 0 <= b < 2, got 2.0"),
            (lambda: BandSpec(fractional_bandwidth=math.nan), "fractional_bandwidth must satisfy"),
            (lambda: BandSpec(-0.1), "fractional_bandwidth must satisfy"),
            (lambda: GainThreshold(0.0), r"ratio_to_max must lie in \(0, 1\], got 0.0"),
            (lambda: GainThreshold(ratio_to_max=1.5), r"ratio_to_max must lie in \(0, 1\]"),
            (lambda: DesignOutcome(), "exactly one of codebook / infeasibility must be set"),
            (lambda: DesignOutcome(BOOK, INFEASIBLE), "exactly one of codebook / infeasibility must be set"),
            (lambda: Codebook((0.0,), 1.0, BandSpec(0.0), 1, GainThreshold()), "n_antennas must be an integer >= 2"),
        ],
    )
    def test_invalid_fields_raise(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_a_codebook_needs_a_beam(self):
        with pytest.raises(ValueError, match="a codebook needs at least one beam, got empty foci"):
            Codebook((), 1.0, BandSpec(0.1), 8, GainThreshold())
        with pytest.raises(ValueError, match="empty foci"):
            dataclasses.replace(BOOK, foci=())

    def test_replace_on_a_codebook_rechecks_and_normalises(self):
        with pytest.raises(ValueError, match="n_antennas must be an integer >= 2, got 1"):
            dataclasses.replace(BOOK, n_antennas=1)
        wider = dataclasses.replace(BOOK, n_antennas=16.0)
        assert type(wider.n_antennas) is int and wider.n_antennas == 16
        assert wider.foci == BOOK.foci and wider.band == BOOK.band
        narrowed = dataclasses.replace(BOOK, band=BandSpec(0.0))
        assert narrowed == Codebook(BOOK.foci, 1.0, BandSpec(0.0), 8, GainThreshold())


class TestRecordBase:
    """The records other than Codebook share one base in place of generated
    dataclass code; what it adds beyond the contract above."""

    RECORD_TYPES = [type(record) for record, _, _ in RECORDS if type(record) is not Codebook]

    def test_codebook_is_the_only_dataclass(self):
        assert dataclasses.is_dataclass(BOOK)
        assert len(self.RECORD_TYPES) == 11
        assert not any(dataclasses.is_dataclass(cls) for cls in self.RECORD_TYPES)

    @pytest.mark.parametrize("record", [r for r, _, _ in RECORDS if type(r) is not Codebook], ids=IDS[:5] + IDS[6:])
    def test_no_attribute_can_be_added_or_removed(self, record):
        with pytest.raises(AttributeError, match="cannot assign to or delete field 'extra'"):
            record.extra = 1
        with pytest.raises(AttributeError, match="cannot assign to or delete field 'extra'"):
            del record.extra

    def test_fields_are_the_class_own_annotations(self):
        from beamsquint.array_model import _Record

        class Point(_Record):
            x: float
            y: float = 0.0

        class Labelled(Point):  # a subclass does not inherit its parent's fields
            label: str

        assert Point._fields == ("x", "y") and Labelled._fields == ("label",)
        assert repr(Point(1.0)) == f"{Point.__qualname__}(x=1.0, y=0.0)"
        assert repr(Labelled("a")) == f"{Labelled.__qualname__}(label='a')"
        assert Point(1.0) == Point(x=1.0, y=0.0) and Point(1.0) != Labelled("a")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CoverageInterval(0.1, 0.2, 0.3), r"^CoverageInterval\(\) too many positional arguments$"),
            (lambda: CoverageInterval(0.1, 0.2, width=1), r"^CoverageInterval\(\) got an unexpected keyword argument 'width'$"),
            (lambda: CoverageInterval(0.1, 0.2, lo=0.1), r"^CoverageInterval\(\) multiple values for argument 'lo'$"),
            (lambda: Beam(1), r"^Beam\(\) missing a required argument: 'psi0'$"),
            (lambda: ArrayGeometry(spacing_ratio=0.5), r"^ArrayGeometry\(\) missing a required argument: 'n_antennas'$"),
            (lambda: SweepPoint(1.0, 2), "missing 1 required positional argument: 'bound'"),
        ],
    )
    def test_signature_error_messages_name_the_argument(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()

    def test_keywords_in_any_order_build_the_same_record(self):
        twin = CoverageReport(**{f: getattr(REPORT, f) for f in reversed(RECORDS[8][1])})
        assert repr(twin) == repr(REPORT) and twin == REPORT and hash(twin) == hash(REPORT)
        assert list(twin.to_dict()) == list(REPORT.to_dict())
