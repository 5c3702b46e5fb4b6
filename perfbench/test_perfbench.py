"""Self-tests of the benchmark's own arithmetic, checks and instrumentation.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import stats  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from tracing import Span  # noqa: E402


# ---------------------------------------------------------------- self time


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.main", 0, 100, -1),
        Span("verification.verify", 10, 40, 0),
        Span("array_model.kernel", 15, 20, 1, (8, True)),
        Span("array_model.kernel", 25, 27, 1, (8, False)),
        Span("codebook.design", 50, 60, 0, 3),
    ]
    assert tracing.self_times(spans) == [60, 23, 5, 2, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a.x", 0, 10, -1), Span("b.y", 2, 6, 0), Span("b.y", 4, 8, 0)]
    assert tracing.self_times(spans)[0] == 4


def test_layer_metrics_from_spans():
    spans = [
        Span("verification.verify", 0, 1000, -1, (201, 2)),
        Span("array_model.kernel", 100, 700, 0, (5000, True)),
        Span("array_model.kernel", 750, 760, 0, (65, False)),
        Span("array_model.kernel", 800, 810, 0, (65, False)),
        Span("codebook.design", 1000, 1100, -1, 22),
    ]
    m = tracing.layer_metrics(spans, 1200)
    assert m["verification.refine_s"] == pytest.approx(300e-9)
    assert m["verification.point_kernel_calls"] == 2
    assert m["verification.gaps"] == 2
    assert m["array_model.kernel_evals"] == 5130
    assert m["array_model.kernel_s"] == pytest.approx(620e-9)
    assert m["verification.self_s"] == pytest.approx(380e-9)
    assert m["verification.ms_per_grid_point"] == pytest.approx(1000e-6 / 201)
    assert m["codebook.beams_built"] == 22
    assert m["share.benchmark"] == pytest.approx(100 / 1200)
    assert sum(v for k, v in m.items() if k.startswith("share.")) == pytest.approx(1.0)


# -------------------------------------------------------------- percentiles


@pytest.mark.parametrize(
    "n, pct, value, rule_met",
    [(2, 50.0, 1.5, False), (19, 50.0, 10, False), (20, 50.0, 10.5, True), (39, 50.0, 20, True),
     (40, 75.0, 30, True), (99, 75.0, 75, True), (100, 90.0, 90, True), (200, 95.0, 190, True),
     (1000, 99.0, 990, True)],
)
def test_tail_needs_ten_samples_beyond(n, pct, value, rule_met):
    values = list(range(1, n + 1))
    t = stats.tail(values)
    assert (t["pct"], t["value"], t["rule_met"]) == (pct, value, rule_met)
    assert sum(1 for v in values if v > t["value"]) == t["beyond"]
    assert (t["beyond"] >= stats.MIN_BEYOND) == rule_met


def test_judge_rules():
    gain = stats.judge([(10.0 + i * 0.01, 8.0) for i in range(10)], 0.1, "lower")
    assert gain["verdict"] == "gain" and gain["wins"] == 10
    worse = stats.judge([(10.0 + i * 0.01, 12.0 + i * 0.01) for i in range(10)], 0.1, "lower")
    assert worse["verdict"] == "regression"
    noisy = stats.judge([(v, v) for v in (5.0, 10.0, 15.0, 20.0)], 0.1, "lower")
    assert noisy["verdict"] == "unresolved"
    same = stats.judge([(10.0 + i * 0.01, 10.0 + i * 0.01) for i in range(10)], 0.1, "lower")
    assert same["verdict"] == "no regression" and same["wins"] == 0


# ------------------------------------------------------------------- checks


def test_importtime_parse_sums_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        30 |         30 |       scipy.linalg",
        "import time:        20 |         50 |     scipy.optimize",
        "import time:        10 |        210 |   beamsquint.squint",
        "import time:         5 |          5 |   numpy",
    ])
    assert workload.scipy_cumulative_us(log) == 200


def test_audit_check_against_reference_and_corruption():
    import dataclasses

    import beamsquint as bs

    ref = json.loads((workload.REFERENCE / "audit.json").read_text())
    n, b = 16, 0.0179
    book = dataclasses.replace(bs.design_no_squint(n, 1.0), band=bs.BandSpec(b))
    report = bs.verify_codebook(book)
    assert workload.audit_check(ref, "verify", n, b, book, report) is None
    ref["verify"][workload.key(n, b)][3][0] += 1e-8
    assert workload.audit_check(ref, "verify", n, b, book, report) is not None


def test_certify_check_flags_a_wrong_size():
    outcome = types.SimpleNamespace(codebook=types.SimpleNamespace(size=21))
    report = types.SimpleNamespace(passed=True, threshold_db=-3.0103, worst_gain_db=-3.0001)
    assert workload.certify_check(16, 0.0342, outcome, report) is not None
    outcome.codebook.size = 22
    assert workload.certify_check(16, 0.0342, outcome, report) is None


def test_cli_design_check_flags_a_hole_and_a_wrong_exit():
    import beamsquint as bs

    n, b = 16, 0.02
    book = json.loads(bs.design_with_squint(n, bs.BandSpec(b), 1.0).codebook.to_json())
    assert workload.cli_design_check("d", n, b, 0, json.dumps(book).encode()) is None
    assert workload.cli_design_check("d", n, b, 3, b"") is not None
    book["beams"][5]["coverage"]["hi"] -= 1e-3
    assert "hole" in workload.cli_design_check("d", n, b, 0, json.dumps(book).encode())
    assert workload.cli_design_check("d", 64, 0.03, 3, b"") is None


def test_compare_judges_tail_at_the_lowest_percentile_reached():
    import compare

    def run(pct, ops):
        return {"tail_pct": pct, "ops_s": ops}

    fast_many = [0.001 * (i + 1) for i in range(100)]  # p90 reached
    slow_few = [0.01 * (i + 1) for i in range(19)]  # only the median
    pct, pairs = compare.common_tail([{"parent": run(50.0, slow_few), "change": run(90.0, fast_many)}])
    assert pct == 50.0
    assert pairs == [(pytest.approx(100.0), pytest.approx(50.5))]


def test_corrupted_golden_raises_failed_frac(tmp_path, monkeypatch):
    ref_dir = tmp_path / "reference"
    shutil.copytree(workload.REFERENCE, ref_dir)
    golden = json.loads((ref_dir / "cli_golden.json").read_text())
    monkeypatch.setattr(workload, "REFERENCE", ref_dir)
    monkeypatch.setattr(workload, "CLI_FIXED", [op for op in workload.CLI_FIXED if op[0] == "bounds"])
    monkeypatch.setattr(workload, "CLI_EXTRAS", 0)
    monkeypatch.setenv("PYTHONPATH", str(SRC))

    clean = workload.run("cli", 1, 0.0, trace=False)
    assert (clean["attempted"], clean["failed"]) == (3, 0)
    golden["bounds"]["stdout_sha256"] = "0" * 64
    (ref_dir / "cli_golden.json").write_text(json.dumps(golden))
    corrupted = workload.run("cli", 1, 0.0, trace=False)
    assert (corrupted["attempted"], corrupted["failed"]) == (3, 3)


# -------------------------------------------------------------- host speed


def test_clock_scales_each_op_by_the_probes_that_bracket_it():
    import speed

    clock = speed.Clock(probing=False)
    ref = speed.PROBE_REF_S
    clock.ops = [(1.0, 3.0), (10.0, 10.5)]
    # (when, seconds): a probe on each side of op 0; op 1 has the probes at
    # 9.5 and 10.6 on its sides, and nearby ones that do not count
    clock.probes = [(0.9, ref), (3.0, 2 * ref), (8.0, 9 * ref),
                    (9.5, ref), (10.6, 1.2 * ref), (11.0, 1.5 * ref)]
    assert clock.factor(0) == pytest.approx(1 / 1.5)
    assert clock.scaled(1) == pytest.approx(0.5 / 1.1)


def test_clock_probes_between_ops(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.PROBE_REF_S)
    monkeypatch.setattr(speed, "PROBE_GAP_S", 0.0)
    clock = speed.Clock()
    assert [clock.op("a" if k % 2 else "b", lambda v: v, k) for k in range(4)] == [0, 1, 2, 3]
    clock.finish()
    assert len(clock.probes) == 5
    assert clock.factor(1) == pytest.approx(0.5)
    clock.ops = [(0.0, 1.0), (0.0, 3.0), (0.0, 5.0), (0.0, 6.0)]  # b 1 and 5, a 3 and 6
    assert clock.median_pass() == pytest.approx((3.0 + 4.5) * 0.5)


# ------------------------------------------------------------ instrumentation


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "beamsquint" or name.startswith("beamsquint.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_instrument_patches_consumer_bindings_and_restores_them():
    import beamsquint.cli as cli
    import beamsquint.squint as squint
    import beamsquint.verification as verification
    from beamsquint.codebook import Codebook

    before = _bindings()
    from_json = Codebook.__dict__["from_json"]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            assert verification.gain_kernel_magnitude is not before[("beamsquint.verification", "gain_kernel_magnitude")]
            assert cli.verify_codebook is not before[("beamsquint.cli", "verify_codebook")]
            assert cli.design_with_squint is not before[("beamsquint.cli", "design_with_squint")]
            squint.gain_kernel_magnitude(0.1, 8)
            Codebook.from_json(workload.FIXTURES.joinpath("codebook_n8_b0.json").read_text())
            raise RuntimeError("leave the block by an exception")
    assert [s.name for s in tracer.spans][:2] == ["array_model.kernel", "codebook.parse"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert Codebook.__dict__["from_json"] is from_json
