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
from beamsquint import array_model, squint
from beamsquint.array_model import gain_kernel_magnitude, worst_subcarrier_gain
from beamsquint.codebook import design_no_squint, design_with_squint
from beamsquint.squint import (
    BandSpec,
    GainThreshold,
    _brent,
    _refine_edges,
    exact_half_power_beamwidth,
)

THRESHOLDS = (0.3, 0.5, 1.0 / math.sqrt(2.0), 0.9, 0.99)


def _kernel_gap(n, target):
    return lambda x: gain_kernel_magnitude(x, n) - target


def _subcarrier_margin(n, psi0, band):
    xis = band.xi_grid(65)
    floor = GainThreshold().absolute(n)
    # one angle or an array of them, each reduced over its own subcarriers
    return lambda p: gain_kernel_magnitude(np.multiply.outer(p, xis) - psi0, n).min(axis=-1) - floor


def refine(margin, inside, outside, xtol=1e-9):
    """One edge through the batched refiner, for a margin of one angle."""
    (root,) = _refine_edges(lambda angles: [float(margin(p)) for p in angles], [(inside, outside)], xtol)
    return root


def listed(margin):
    """An array margin under the refiner's contract: a list of Python floats
    in, a list of Python floats out."""
    return lambda angles: margin(np.array(angles)).tolist()


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


def test_exact_half_power_width_is_the_array_kernel_root(monkeypatch):
    # without scipy: twice the root that the refiner finds on the array
    # kernel, bit for bit, for N = 2..129 at every threshold; the width takes
    # the kernel one float at a time and makes no array-kernel call
    expected = {(n, r): 2.0 * _refine_edges(listed(_kernel_gap(n, r * math.sqrt(n))), [(0.0, 2.0 / n)], 1e-12)[0] for n in range(2, 130) for r in THRESHOLDS}
    calls = []
    for module in (array_model, squint):
        monkeypatch.setattr(module, "gain_kernel_magnitude", lambda *args: calls.append(args), raising=False)
    for (n, ratio), width in expected.items():
        assert exact_half_power_beamwidth(n, GainThreshold(ratio)) == width, (n, ratio)
    assert calls == []


class TestAgainstScipy:
    """scipy is the reference implementation; skipped where it is absent."""

    def test_exact_half_power_width(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for n in range(2, 65):
            for ratio in THRESHOLDS:
                gap = _kernel_gap(n, ratio * math.sqrt(n))
                a, b = 0.0, 2.0 / n
                expected = brentq(gap, a, b, xtol=1e-12)
                assert refine(gap, a, b, 1e-12) == expected
                width = exact_half_power_beamwidth(n, GainThreshold(ratio))
                assert width == 2.0 * expected

    @pytest.mark.parametrize("xtol", [1e-9, 1e-12, 1e-6])
    def test_kernel_margins_random_brackets(self, xtol):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for margin, inside, outside in _random_brackets(150):
            for a, b in ((inside, outside), (outside, inside)):
                # the refiner takes the passing end first; Brent's steps are
                # symmetric under negating f, so a failing first end refines -f
                sign = 1.0 if a == inside else -1.0
                got = refine(lambda p: sign * margin(p), a, b, xtol)
                assert got == brentq(margin, a, b, xtol=xtol)

    def test_refine_edge(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for margin, inside, outside in _random_brackets(50, seed=3):
            expected = brentq(margin, inside, outside, xtol=1e-9)
            assert refine(margin, inside, outside) == expected


def _batch_margin():
    """One array margin with crossings of every kind: below 2 the
    worst-subcarrier margin of the narrowband N=16 codebook under squint
    (16 gaps), from 2 on the line ``3 - p``, which is exactly 0 at 3."""
    book = design_no_squint(16, 1.0)
    band, level = BandSpec(0.0342), GainThreshold().absolute(16)

    def margin(p):
        p = np.asarray(p, dtype=float)
        return np.where(p < 2.0, worst_subcarrier_gain(p, book.foci, band, 16) - level, 3.0 - p)

    return margin


def _mixed_batch(margin, seed=0):
    """(passing, failing) pairs of every kind, shuffled: random kernel
    brackets with the passing end on either side, zeros at either end,
    pairs with no sign change, and brackets narrower than 1e-12."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1.0, 1.0, 4000)
    ends = starts + rng.choice([-1.0, 1.0], 4000) * rng.uniform(1e-6, 2e-2, 4000)
    fs, fe = margin(starts), margin(ends)
    brackets = [(a, b) for a, b, f, g in zip(starts, ends, fs, fe) if f > 0.0 > g][:60]
    assert {a < b for a, b in brackets} == {True, False}
    flat = [(a, b) for a, b, f, g in zip(starts, ends, fs, fe) if (f > 0.0) == (g > 0.0)][:10]
    # bisect a few brackets down to ulps, then widen them to 4e-13
    a, b = np.array(brackets[:8]).T
    for _ in range(45):
        mid = 0.5 * (a + b)
        passing = margin(mid) > 0.0
        a, b = np.where(passing, mid, a), np.where(passing, b, mid)
    d = np.sign(b - a) * 2e-13
    narrow = [(x, y) for x, y in zip(a - d, b + d) if margin(x) > 0.0 > margin(y)]
    assert len(narrow) >= 4
    narrow.append((3.0 - 2e-13, 3.0 + 2e-13))
    zeros = [(3.0, 3.5), (2.5, 3.0), (3.0, 2.5)]
    pairs = brackets + flat + narrow + zeros + [(0.5, 0.5)]
    return [pairs[k] for k in rng.permutation(len(pairs))]


class TestBatchedRefiner:
    @pytest.mark.parametrize("xtol", [1e-9, 1e-12])
    def test_mixed_batch_matches_brentq_and_single_pairs(self, xtol):
        brentq = pytest.importorskip("scipy.optimize").brentq
        margin = _batch_margin()
        pairs = _mixed_batch(margin)
        calls = []
        roots = _refine_edges(lambda p: calls.append(len(p)) or listed(margin)(p), pairs, xtol)
        assert len(roots) == len(pairs)
        assert calls[0] == 2 * (len(pairs) - 1)  # both ends of every pair but (0.5, 0.5), once
        rounds = []
        for (inside, outside), root in zip(pairs, roots):
            alone = []
            assert [root] == _refine_edges(
                lambda p: alone.append(len(p)) or listed(margin)(p), [(inside, outside)], xtol
            )
            rounds.append(len(alone))
            f_in, f_out = margin([inside, outside])
            if f_in >= 0.0 >= f_out:
                assert root == brentq(lambda p: float(margin(p)), inside, outside, xtol=xtol)
            else:  # no sign change keeps the passing point
                assert root == inside
        # in lockstep the batch takes as many margin calls as its slowest edge
        assert len(calls) == max(rounds) > 1

    def test_narrow_bracket_returns_without_a_round(self):
        calls = []
        margin = lambda p: calls.append(len(p)) or [3.0 - x for x in p]  # noqa: E731
        assert _refine_edges(margin, [(3.0 - 2e-13, 3.0 + 2e-13)]) == [3.0 + 2e-13]
        assert calls == [2]

    def test_empty_batch_makes_no_margin_call(self):
        def margin(p):
            raise AssertionError("margin called")

        assert _refine_edges(margin, []) == []
        # nor does a batch of pairs (x, x), which return x as they are
        assert _refine_edges(margin, [(0.5, 0.5), (-1.0, -1.0)]) == [0.5, -1.0]


def _drive(a, b, f, xtol=1e-9):
    """The angles that ``_brent`` asks for on ``[a, b]``, each answered
    with ``f`` of it, and the root it returns."""
    steps, angles, reply = _brent(a, b, f(a), f(b), xtol), [], None
    try:
        while True:
            angles.append(steps.send(reply))
            reply = f(angles[-1])
    except StopIteration as done:
        return angles, done.value


class TestFloatPath:
    """Brent's steps run on Python floats, which raise ZeroDivisionError
    where C and numpy divide by zero into +-inf or nan."""

    @staticmethod
    def tiny(x):
        # margins near 1e-170: the product of two divided differences in the
        # inverse quadratic step underflows, so its denominator is 0.0
        return 1e-170 * (0.3 - x**3)

    def test_zero_denominator_takes_the_bisection_step(self):
        # numpy scalars divide as C does; the same steps on them are the reference
        ieee = np.float64(0.0), np.float64(1.0), lambda x: np.float64(self.tiny(x))
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(FloatingPointError):
            _drive(*ieee)  # the bracket meets a zero denominator
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _drive(*ieee)  # C's +-inf or nan step fails the short-step test: bisection
        got = _drive(0.0, 1.0, self.tiny)
        assert all(type(x) is float for x in got[0])
        assert got == want

    def test_zero_denominator_keeps_the_brentq_root(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        assert _drive(0.0, 1.0, self.tiny)[1] == brentq(self.tiny, 0.0, 1.0, xtol=1e-9)

    def test_margins_take_and_give_python_floats(self):
        # most of the batch's ends are numpy floats; the margin still sees lists of
        # Python floats in every round, and every root is a Python float
        margin, seen = _batch_margin(), []
        pairs = _mixed_batch(margin, seed=1)
        assert np.float64 in {type(x) for pair in pairs for x in pair}

        def typed(angles):
            seen.append((type(angles), frozenset(map(type, angles))))
            return listed(margin)(angles)

        roots = _refine_edges(typed, pairs)
        assert len(seen) > 1 and set(seen) == {(list, frozenset({float}))}
        assert {type(root) for root in roots} == {float}
        tiny = lambda p: [self.tiny(x) for x in p]  # noqa: E731
        assert _refine_edges(tiny, [(0.0, 1.0), (0.5, 0.5), (2.0, 3.0)]) == [_drive(0.0, 1.0, self.tiny)[1], 0.5, 2.0]


class TestRefiner:
    def test_root_within_tolerance(self):
        for margin, inside, outside in _random_brackets(50, seed=5):
            root = refine(margin, inside, outside)
            assert min(inside, outside) <= root <= max(inside, outside)
            # a sign change within 1e-9 of the returned root
            step = math.copysign(1e-9, outside - inside)
            assert margin(root - step) >= 0.0 or margin(root + step) <= 0.0

    def test_no_sign_change_keeps_passing_point(self):
        assert refine(lambda p: 1.0, 0.1, 0.2) == 0.1
        assert refine(lambda p: -1.0, 0.1, 0.2) == 0.1

    def test_exact_zero_at_an_end(self):
        assert refine(lambda p: p - 0.1, 0.1, 0.0) == 0.1
        assert refine(lambda p: 0.2 - p, 0.1, 0.2) == 0.2

    def test_linear_root(self):
        root = refine(lambda p: 0.3 - p, 0.0, 1.0, xtol=1e-14)
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
