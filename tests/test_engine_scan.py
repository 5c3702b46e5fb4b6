"""Engine pins of ``numeric_coverage``'s scan: its ``_band_min`` calls in
blocks of ``_GAIN_CHUNK // 2`` angles, the kernel blocks they make, its
refinement rounds through ``squint._failure_gaps``, and its edges bit for
bit against the dense reference. The contract, edges within 1e-9 of that
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


def test_numeric_coverage_takes_two_evaluations_per_angle(monkeypatch):
    # The scan window reaches past the first nulls, so some of its angles
    # sweep the beam across a null inside the band: each of those takes 0
    # from its two band-edge values, as every other angle takes its edge
    # min, in the scan and in every refinement round. With every subcarrier
    # sampled where a null lay inside, the scan of each of these beams sent
    # 325 angles to all 65 subcarriers (4 with a bar at the threshold).
    grids, blocks = _record_scan(monkeypatch)
    band = BandSpec(0.0179)
    foci = design_with_squint(64, band, 1.0).codebook.foci
    for target in (0.9, -0.9):
        grids.clear()
        blocks.clear()
        assert numeric_coverage(min(foci, key=lambda f: abs(f - target)), band, 64) is not None
        assert blocks == [(2 * m,) for m in grids] and len(grids) > 1


def _record_scan(monkeypatch):
    """The number of angles of each ``_band_min`` call of numeric_coverage
    (its scan's blocks, then one per refinement round), and the shape of
    each kernel block that array_model evaluates."""
    grids, blocks = [], record_kernel_blocks(monkeypatch)
    scan = squint._band_min

    def recording_scan(angles, *args):
        grids.append(np.size(angles))
        return scan(angles, *args)

    monkeypatch.setattr(squint, "_band_min", recording_scan)
    return grids, blocks


def test_numeric_coverage_scan_in_one_block_is_one_band_edge_call(monkeypatch):
    # a grid that fits one block: both band-edge values of every angle in one
    # 1-D kernel call, then both band-edge values of each refinement round's
    # angles, at most both ends of two edges
    grids, blocks = _record_scan(monkeypatch)
    for n, b in ((16, 0.0342), (64, 0.0179)):
        band = BandSpec(b)
        for psi0 in design_with_squint(n, band, 1.0).codebook.foci[::5]:
            grids.clear()
            blocks.clear()
            assert numeric_coverage(psi0, band, n) is not None
            m, *rounds = grids
            assert 2 * m <= array_model._GAIN_CHUNK
            assert rounds and max(rounds) <= 4
            assert blocks == [(2 * k,) for k in grids]


def test_numeric_coverage_scan_keeps_every_block_bounded(monkeypatch):
    # more than _GAIN_CHUNK // 2 angles: the band-edge values go in blocks of
    # at most _GAIN_CHUNK, which bounds the scan's memory at any step
    grids, blocks = _record_scan(monkeypatch)
    args = 0.2, BAND, 16, GainThreshold(), 1e-5
    cov = numeric_coverage(*args)
    chunk = array_model._GAIN_CHUNK
    scan = [k for k in grids if k > 4]  # the refinement rounds take at most 4 angles
    assert scan[:-1] == [chunk // 2] * (len(scan) - 1) and len(scan) == 4 and grids[: len(scan)] == scan
    assert blocks == [(2 * k,) for k in grids]
    expected = reference_numeric_coverage(*args)
    assert (cov.lo.hex(), cov.hi.hex()) == (expected.lo.hex(), expected.hi.hex())


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
