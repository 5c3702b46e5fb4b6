"""Engine pins of ``numeric_coverage``'s scan: its ``_band_min`` calls in
blocks of ``_GAIN_CHUNK // 2`` angles, the kernel blocks they make, its
refinement rounds through ``squint._failure_gaps`` (one float pair per
angle, no kernel block), and its edges bit for bit against the dense
reference. The contract, edges within 1e-9 of that
reference on the same inputs, is pinned in ``test_squint.py``. A change of
coverage engine replaces this file and lists the tests it drops."""

import numpy as np
import pytest

from beamsquint import array_model, squint
from beamsquint.codebook import design_with_squint
from beamsquint.squint import BandSpec, GainThreshold, numeric_coverage

from dense_oracle import reference_numeric_coverage
from engine_spies import record_kernel_blocks, record_refinement_blocks
from test_squint import BAND, MULTI_RUN_CASES, SEEDED_FAMILY


@pytest.mark.parametrize("n, b, psi0, ratio", MULTI_RUN_CASES)
def test_numeric_coverage_refines_only_the_peak_run(monkeypatch, n, b, psi0, ratio):
    refinement_blocks = record_refinement_blocks(monkeypatch)
    thr = GainThreshold(ratio)
    expected = reference_numeric_coverage(psi0, BandSpec(b), n, thr)
    refinement_blocks.clear()
    cov = numeric_coverage(psi0, BandSpec(b), n, thr)
    if expected is None:
        assert cov is None
        return
    assert (type(cov.lo), type(cov.hi)) == (float, float)
    assert (cov.lo.hex(), cov.hi.hex()) == (expected.lo.hex(), expected.hi.hex())
    # at most both ends of the two edges per refinement call
    assert max(refinement_blocks, default=0) <= 4


def test_numeric_coverage_keeps_the_reference_bits():
    # the scan and the refiner take each angle's band min through
    # _band_min, the scan in blocks; neither may change a bit
    kinds = set()
    for n, b, psi0, ratio, step in SEEDED_FAMILY:
        args = psi0, BandSpec(b), n, GainThreshold(ratio), step
        expected, cov = reference_numeric_coverage(*args), numeric_coverage(*args)
        if expected is None:
            assert cov is None
            kinds.add("none")
            continue
        assert (cov.lo.hex(), cov.hi.hex()) == (expected.lo.hex(), expected.hi.hex())
        kinds.update({"b = 0"} if b == 0.0 else set())
    assert kinds == {"none", "b = 0"}
    assert any(ratio == 1.0 for *_, ratio, _ in SEEDED_FAMILY)


def _record_scan(monkeypatch):
    """The ``_band_min`` calls of numeric_coverage, each the number of angles
    of an array call (its scan's blocks) or ``float`` for a one-pair call (one
    per angle of a refinement round), and the shape of each kernel block
    that array_model evaluates."""
    calls, blocks = [], record_kernel_blocks(monkeypatch)
    band_min = squint._band_min

    def recording(angles, *args):
        calls.append(float if isinstance(angles, float) else np.size(angles))
        return band_min(angles, *args)

    monkeypatch.setattr(squint, "_band_min", recording)
    return calls, blocks


def _split_scan(calls):
    """The scan's blocks, which come first, and the one-pair calls after them."""
    scan = [k for k in calls if k is not float]
    assert calls[: len(scan)] == scan
    return scan, calls[len(scan) :]


def test_numeric_coverage_scan_takes_two_evaluations_per_angle(monkeypatch):
    # The scan window reaches past the first nulls, so some of its angles
    # sweep the beam across a null inside the band: each of those takes 0
    # from its two band-edge values, as every other angle takes its edge
    # min. With every subcarrier sampled where a null lay inside, the scan
    # of each of these beams sent 325 angles to all 65 subcarriers (4 with
    # a bar at the threshold).
    calls, blocks = _record_scan(monkeypatch)
    band = BandSpec(0.0179)
    foci = design_with_squint(64, band, 1.0).codebook.foci
    for target in (0.9, -0.9):
        calls.clear()
        blocks.clear()
        assert numeric_coverage(min(foci, key=lambda f: abs(f - target)), band, 64) is not None
        scan, pairs = _split_scan(calls)
        assert blocks == [(2 * m,) for m in scan] and pairs


def test_numeric_coverage_refinement_makes_no_kernel_call(monkeypatch):
    # a grid that fits one block: both band-edge values of every angle in one
    # 1-D kernel call; then each refinement angle is one float pair, whose
    # two values take the kernel one float at a time, outside
    # gain_kernel_magnitude
    calls, blocks = _record_scan(monkeypatch)
    refinement_blocks = record_refinement_blocks(monkeypatch)
    for n, b in ((16, 0.0342), (64, 0.0179)):
        band = BandSpec(b)
        for psi0 in design_with_squint(n, band, 1.0).codebook.foci[::5]:
            calls.clear()
            blocks.clear()
            refinement_blocks.clear()
            assert numeric_coverage(psi0, band, n) is not None
            (m,), pairs = _split_scan(calls)
            assert 2 * m <= array_model._GAIN_CHUNK
            assert blocks == [(2 * m,)]
            assert len(pairs) == sum(refinement_blocks) and max(refinement_blocks) <= 4


def test_numeric_coverage_scan_keeps_every_block_bounded(monkeypatch):
    # more than _GAIN_CHUNK // 2 angles: the band-edge values go in blocks of
    # at most _GAIN_CHUNK, which bounds the scan's memory at any step, and
    # the refinement adds no block
    calls, blocks = _record_scan(monkeypatch)
    args = 0.2, BAND, 16, GainThreshold(), 1e-5
    cov = numeric_coverage(*args)
    chunk = array_model._GAIN_CHUNK
    scan, pairs = _split_scan(calls)
    assert scan[:-1] == [chunk // 2] * (len(scan) - 1) and len(scan) == 4 and pairs
    assert blocks == [(2 * k,) for k in scan]
    expected = reference_numeric_coverage(*args)
    assert (cov.lo.hex(), cov.hi.hex()) == (expected.lo.hex(), expected.hi.hex())


def test_numeric_coverage_margin_takes_and_gives_python_floats(monkeypatch):
    # every refinement round hands the margin a list of Python floats and
    # gets one back, and the edges are Python floats
    seen, gaps = [], squint._failure_gaps

    def recording(grid, failing, margin):
        def typed(angles):
            values = margin(angles)
            seen.append((type(angles), frozenset(map(type, angles)), type(values), frozenset(map(type, values))))
            return values

        return gaps(grid, failing, typed)

    monkeypatch.setattr(squint, "_failure_gaps", recording)
    foci = design_with_squint(16, BAND, 1.0).codebook.foci[::5]
    for psi0 in foci:
        cov = numeric_coverage(psi0, BAND, 16)
        assert (type(cov.lo), type(cov.hi)) == (float, float)
    assert len(seen) > 2 * len(foci) and set(seen) == {(list, frozenset({float}), list, frozenset({float}))}


class TestRefinementCalls:
    """Every edge is refined in lockstep, so the primitive calls of one
    refinement follow the Brent rounds of its slowest edge, not the number
    of edges (one call per edge and step before)."""

    def test_numeric_coverage_refines_both_edges_together(self, monkeypatch, book16):
        refinement_blocks = record_refinement_blocks(monkeypatch)
        for beam in book16.beams[::5]:
            refinement_blocks.clear()
            assert numeric_coverage(beam.psi0, BAND, 16) is not None
            # one block for both ends of both edges, then one per Brent round;
            # 10 with one edge after the other
            assert len(refinement_blocks) <= 4
