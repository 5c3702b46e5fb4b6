"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest -s`` to see them on success)."""

import math
import time

import numpy as np

from beamsquint.array_model import ArrayGeometry, array_gain_sum, fine_beam_weights, gain_kernel
from beamsquint.cli import main as cli_main
from beamsquint.codebook import (
    design_with_squint,
    max_antennas,
    max_fractional_bandwidth,
    min_size_no_squint,
)
from beamsquint.squint import BandSpec
from beamsquint.verification import verify_codebook

from recurrence_oracle import oracle_min_size, oracle_sizes


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _best_of(fn, repeats: int = 5):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_min_size_without_squint():
    size, elapsed = _best_of(lambda: min_size_no_squint(16, 1.0))
    ok = size == 19 and elapsed < 1e-3
    _report(1, ok, f"min_size_no_squint(16, 1) = {size} (want 19), {elapsed * 1e6:.0f} us")


def test_criterion_2_squint_size_16():
    outcome, elapsed = _best_of(lambda: design_with_squint(16, BandSpec(0.0342), 1.0))
    ratio = outcome.size / 19 - 1.0
    ok = outcome.size == 22 and abs(ratio - 0.158) < 5e-4 and elapsed < 10e-3
    _report(
        2,
        ok,
        f"size = {outcome.size} (want 22), increase {ratio:.2%} (want 15.8%), "
        f"{elapsed * 1e3:.2f} ms",
    )


def test_criterion_3_squint_size_32_vs_recurrence_oracle():
    oracle_both = oracle_sizes(32, 0.0342)
    oracle_min = oracle_min_size(32, 0.0342)
    plain = min_size_no_squint(32, 1.0)
    outcome, elapsed = _best_of(lambda: design_with_squint(32, BandSpec(0.0342), 1.0))
    ratio = outcome.size / plain - 1.0
    ok = (
        oracle_both == (57, 58)
        and oracle_min == 57
        and outcome.size == 57
        and plain == 37
        and abs(ratio - 0.54) < 5e-3
        and elapsed < 10e-3
    )
    _report(
        3,
        ok,
        f"sizes {outcome.size}/{plain} (oracle {oracle_min}/37, want 57/37), "
        f"increase {ratio:.2%} (want 54%), {elapsed * 1e3:.2f} ms",
    )


def test_criterion_4_feasibility_boundary():
    t0 = time.perf_counter()
    bound = max_fractional_bandwidth(16, 1.0)
    just_below = design_with_squint(16, BandSpec(0.1107), 1.0)
    just_above = design_with_squint(16, BandSpec(0.1108), 1.0)
    n_cap = max_antennas(BandSpec(0.0714), 1.0)
    beyond_cap = design_with_squint(25, BandSpec(0.0714), 1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        bound == 0.110750
        and just_below.feasible
        and just_below.size > 100
        and not just_above.feasible
        and n_cap == 24
        and not beyond_cap.feasible
        and elapsed < 0.1
    )
    _report(
        4,
        ok,
        f"bound = {bound}, size(b=0.1107) = "
        f"{just_below.size if just_below.feasible else 'infeasible'} (> 100), "
        f"b=0.1108 {'infeasible' if not just_above.feasible else 'FEASIBLE'}, "
        f"max_antennas(0.0714) = {n_cap}, N=25 "
        f"{'infeasible' if not beyond_cap.feasible else 'FEASIBLE'}, "
        f"{elapsed * 1e3:.1f} ms",
    )


def test_criterion_5_kernel_equivalence_random():
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        psi0 = float(rng.uniform(-1, 1))
        psi_c = float(rng.uniform(-1, 1))
        xi = float(rng.uniform(0.9, 1.1))
        geom = ArrayGeometry(n, 0.5)
        total = array_gain_sum(fine_beam_weights(geom, psi0), geom, psi_c, xi)
        closed = gain_kernel(xi * psi_c - psi0, n)
        worst = max(worst, abs(total - closed) / math.sqrt(n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(
        5,
        ok,
        f"10000 random tuples, worst |sum - kernel|/sqrt(N) = {worst:.3e} "
        f"(<= 1e-9), {elapsed:.2f} s",
    )


def test_criterion_6_coverage_certification():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for n in (8, 16, 32, 64):
        for b in (0.0, 0.0179, 0.0342):
            if b >= max_fractional_bandwidth(n, 1.0):
                continue
            checked += 1
            book = design_with_squint(n, BandSpec(b), 1.0).codebook
            report = verify_codebook(book, slack_db=0.2)
            shortfall = max(0.0, report.threshold_db - report.worst_gain_db)
            if not report.passed or shortfall > 0.15:
                failures.append((n, b, report.worst_gain_db, shortfall))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked == 11 and elapsed < 30.0
    _report(
        6,
        ok,
        f"{checked} codebooks certified at 0.2 dB slack, slack-0 shortfall "
        f"<= 0.15 dB, failures: {failures or 'none'}, {elapsed:.1f} s",
    )


def test_criterion_7_degeneracy_symmetry_minimality():
    import dataclasses

    t0 = time.perf_counter()
    degeneracy_ok = all(
        design_with_squint(n, BandSpec(0.0), 1.0).size == min_size_no_squint(n, 1.0)
        for n in range(2, 65)
    )

    symmetry_ok = True
    minimal_ok = True
    for n, b in ((16, 0.0342), (32, 0.0342), (16, 0.0), (8, 0.0179)):
        book = design_with_squint(n, BandSpec(b), 1.0).codebook
        foci = [bm.psi0 for bm in book.beams]
        symmetry_ok &= sorted(foci) == sorted(-f for f in foci)
        symmetry_ok &= (0.0 in foci) == (book.parity == "odd")
        for drop in range(book.size):
            thinned = dataclasses.replace(book, foci=book.foci[:drop] + book.foci[drop + 1 :])
            if not thinned.coverage_gaps():
                minimal_ok = False
    elapsed = time.perf_counter() - t0
    ok = degeneracy_ok and symmetry_ok and minimal_ok and elapsed < 30.0
    _report(
        7,
        ok,
        f"degeneracy(N=2..64) {'ok' if degeneracy_ok else 'BROKEN'}, "
        f"mirror symmetry {'ok' if symmetry_ok else 'BROKEN'}, "
        f"minimal tiling {'ok' if minimal_ok else 'BROKEN'}, {elapsed:.1f} s",
    )


def test_criterion_8_pattern_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "pattern.csv"
    code = cli_main(
        [
            "pattern", "--antennas", "16", "--theta0-deg", "30",
            "--carrier-ghz", "73", "--freq-ghz", "65.7", "73", "80.2",
            "--psi-step", "1e-3", "--out", str(out),
        ]
    )
    curves: dict[float, list[tuple[float, float]]] = {}
    for line in out.read_text().splitlines()[1:]:
        psi, _theta, xi, gain, _db = (float(v) for v in line.split(","))
        curves.setdefault(xi, []).append((psi, gain))
    carrier = dict(curves[1.0])
    at_focus_ok = carrier[0.5] == 4.0
    off_band_ok = True
    peaks_ok = True
    for xi, curve in curves.items():
        if xi == 1.0:
            continue
        off_band_ok &= dict(curve)[0.5] < 4.0
        peak_psi = max(curve, key=lambda t: t[1])[0]
        peaks_ok &= abs(peak_psi - 0.5 / xi) <= 1e-3 + 1e-12
    elapsed = time.perf_counter() - t0
    ok = code == 0 and len(curves) == 3 and at_focus_ok and off_band_ok and peaks_ok and elapsed < 1.0
    _report(
        8,
        ok,
        f"|g(0.5)| = {carrier[0.5]} at carrier (want 4), off-band lower: "
        f"{off_band_ok}, peaks at 0.5/xi: {peaks_ok}, {elapsed:.2f} s",
    )
