"""The threshold-crossing refiner: a port of Brent's method that must
return scipy's ``brentq`` roots bit for bit, so that refined edges (and the
bytes the CLI prints) do not depend on whether scipy is installed."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beamsquint
from beamsquint.array_model import gain_kernel_magnitude
from beamsquint.codebook import design_no_squint, design_with_squint
from beamsquint.squint import (
    BandSpec,
    GainThreshold,
    _brent,
    _refine_edge,
    exact_half_power_beamwidth,
)

THRESHOLDS = (0.3, 0.5, 1.0 / math.sqrt(2.0), 0.9, 0.99)


def _kernel_gap(n, target):
    return lambda x: gain_kernel_magnitude(x, n) - target


def _subcarrier_margin(n, psi0, band):
    xis = band.xi_grid(65)
    floor = GainThreshold().absolute(n)
    return lambda p: float(gain_kernel_magnitude(p * xis - psi0, n).min()) - floor


def _random_brackets(count, seed=11):
    """(margin, inside, outside) triples with a sign change between the ends."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 129))
        psi0 = float(rng.uniform(-1.0, 1.0))
        margin = _subcarrier_margin(n, psi0, BandSpec(float(rng.uniform(0.0, 0.2))))
        inside = psi0 + float(rng.uniform(-0.3, 0.3)) / n
        outside = psi0 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 1.95)) / n
        if margin(inside) > 0.0 > margin(outside):
            out.append((margin, inside, outside))
    return out


class TestAgainstScipy:
    """scipy is the reference implementation; skipped where it is absent."""

    def test_exact_half_power_width(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for n in range(2, 65):
            for ratio in THRESHOLDS:
                gap = _kernel_gap(n, ratio * math.sqrt(n))
                a, b = 0.0, 2.0 / n
                expected = brentq(gap, a, b, xtol=1e-12)
                assert _brent(gap, a, b, gap(a), gap(b), 1e-12) == expected
                width = exact_half_power_beamwidth(n, GainThreshold(ratio))
                assert width == 2.0 * expected

    @pytest.mark.parametrize("xtol", [1e-9, 1e-12, 1e-6])
    def test_kernel_margins_random_brackets(self, xtol):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for margin, inside, outside in _random_brackets(150):
            for a, b in ((inside, outside), (outside, inside)):
                got = _brent(margin, a, b, margin(a), margin(b), xtol)
                assert got == brentq(margin, a, b, xtol=xtol)

    def test_refine_edge(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for margin, inside, outside in _random_brackets(50, seed=3):
            expected = brentq(margin, inside, outside, xtol=1e-9)
            assert _refine_edge(margin, inside, outside) == expected


class TestRefiner:
    def test_root_within_tolerance(self):
        for margin, inside, outside in _random_brackets(50, seed=5):
            root = _refine_edge(margin, inside, outside)
            assert min(inside, outside) <= root <= max(inside, outside)
            # a sign change within 1e-9 of the returned root
            step = math.copysign(1e-9, outside - inside)
            assert margin(root - step) >= 0.0 or margin(root + step) <= 0.0

    def test_no_sign_change_keeps_passing_point(self):
        assert _refine_edge(lambda p: 1.0, 0.1, 0.2) == 0.1
        assert _refine_edge(lambda p: -1.0, 0.1, 0.2) == 0.1

    def test_exact_zero_at_an_end(self):
        assert _refine_edge(lambda p: p - 0.1, 0.1, 0.0) == 0.1
        assert _refine_edge(lambda p: 0.2 - p, 0.1, 0.2) == 0.2

    def test_linear_root(self):
        root = _refine_edge(lambda p: 0.3 - p, 0.0, 1.0, xtol=1e-14)
        assert root == pytest.approx(0.3, abs=1e-14)


def test_import_does_not_load_scipy():
    src = str(Path(beamsquint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, beamsquint; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("psi_m", [1.0, 0.77, 0.5, 0.3])
def test_zero_bandwidth_design_is_no_squint_design(psi_m):
    for n in list(range(2, 41)) + [64, 128, 129]:
        outcome = design_with_squint(n, BandSpec(0.0), psi_m)
        assert outcome.codebook.to_json() == design_no_squint(n, psi_m).to_json()


def test_zero_bandwidth_design_keeps_the_band():
    band = BandSpec.from_carrier(73e9, 0.0)
    assert design_with_squint(16, band, 1.0).codebook.band is band
