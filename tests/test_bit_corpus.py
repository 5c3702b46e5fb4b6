"""Every bit holds: a fixed corpus of library outputs against committed hashes.

Each output is hashed over ``float.hex`` of its fields (SHA-256, first 16 hex
digits) and keyed by its input in ``tests/bit_corpus.json``:

- ``verify_codebook`` reports at slack 0.2 and 0 dB: the 17 verifies of the
  benchmark workloads (certify's 11 paper designs and audit's 6 narrowband
  codebooks under squint), two low-threshold verifies (N=8, b=0.5, ratio
  0.2; N=16, b=0.2, ratio 0.25) and a seeded family of designed, narrowband
  and random-foci codebooks;
- ``numeric_coverage`` on the audit's 196 beams and a seeded family;
- ``exact_half_power_beamwidth`` for N = 2..129 at 5 ratios.

The corpus is fixed: its seeds and sizes never change to hide a moved bit. A
change that moves an output rewrites the hashes and lists the moved keys in
CHANGES.md. To rewrite them, from the root of the checkout::

    PYTHONPATH=src python tests/test_bit_corpus.py --rewrite

Only public functions are called, so no engine name appears here.
"""

import dataclasses
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from beamsquint import (
    BandSpec,
    Codebook,
    GainThreshold,
    design_no_squint,
    design_with_squint,
    exact_half_power_beamwidth,
    max_fractional_bandwidth,
    numeric_coverage,
    verify_codebook,
)

CORPUS = Path(__file__).with_name("bit_corpus.json")
SLACKS = (0.2, 0.0)
RATIOS = (1.0 / math.sqrt(2.0), 0.05, 0.3, 0.9, 0.999)


def _fields(value) -> str:
    """A value as text: floats by ``float.hex``, records and sequences field by field."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(map(_fields, value)) + "]"
    return type(value).__name__ + _fields([getattr(value, name) for name in value._fields])


def _digest(value) -> str:
    return hashlib.sha256(_fields(value).encode()).hexdigest()[:16]


def _verify_inputs():
    """(key, codebook, psi_step) for every verified codebook of the corpus."""
    for n in (8, 16, 32, 64):  # certify's paper designs
        for b in (0.0, 0.0179, 0.0342):
            if b < max_fractional_bandwidth(n, 1.0):
                yield f"certify N={n} b={b!r}", design_with_squint(n, BandSpec(b), 1.0).codebook, 1e-4
    for n in (16, 32, 64):  # audit's narrowband codebooks under squint
        for b in (0.0179, 0.0342):
            yield f"audit N={n} b={b!r}", dataclasses.replace(design_no_squint(n, 1.0), band=BandSpec(b)), 1e-4
    for n, b, ratio in ((8, 0.5, 0.2), (16, 0.2, 0.25)):  # below the sidelobe level
        book = dataclasses.replace(design_no_squint(n, 1.0), band=BandSpec(b), threshold=GainThreshold(ratio))
        yield f"low N={n} b={b!r} ratio={ratio!r}", book, 1e-4
    rng = np.random.default_rng(20261020)
    for i in range(150):
        n, psi_m, kind = int(rng.integers(2, 65)), float(rng.choice([1.0, rng.uniform(0.3, 1.0)])), i % 3
        step = float(rng.choice([1e-4, 3e-4, 1e-3]))
        bound = max_fractional_bandwidth(n, psi_m)
        if kind == 0:  # a design, passing or at the slack's edge
            b = float(rng.uniform(0.0, 0.99 * bound))
            book = design_with_squint(n, BandSpec(b), psi_m).codebook
        elif kind == 1:  # a narrowband tiling under squint
            b = float(rng.uniform(0.1, 1.0) * bound)
            book = dataclasses.replace(design_no_squint(n, psi_m), band=BandSpec(b))
        else:  # random foci out to the grating lobes, any threshold
            b = float(rng.uniform(0.0, 1.5 / n))
            foci = np.sort(rng.uniform(-1.2, 1.2, int(rng.integers(1, 2 * n + 2))))
            book = Codebook(tuple(foci.tolist()), psi_m, BandSpec(b), n, GainThreshold(float(rng.uniform(0.3, 0.99))))
        yield f"seeded {i:03d} N={n} b={b!r} psi_m={psi_m!r} kind={kind} psi_step={step!r}", book, step


def verify_outputs() -> dict:
    return {f"verify {key} slack={slack!r}": _digest(verify_codebook(book, psi_step=step, slack_db=slack))
            for key, book, step in _verify_inputs() for slack in SLACKS}


def coverage_outputs() -> dict:
    out = {}
    for n, b in ((16, 0.0342), (32, 0.0342), (64, 0.0179)):  # the audit's 196 beams
        for beam in design_with_squint(n, BandSpec(b), 1.0).codebook.beams:
            out[f"coverage audit N={n} b={b!r} beam={beam.index}"] = _digest(numeric_coverage(beam.psi0, BandSpec(b), n))
    rng = np.random.default_rng(20261021)
    for i in range(100):
        n = int(rng.integers(2, 129))
        b, ratio, psi0 = float(rng.uniform(0.0, 1.5 / n)), float(rng.uniform(0.05, 0.99)), float(rng.uniform(-1.0, 1.0))
        key = f"coverage seeded {i:03d} N={n} b={b!r} ratio={ratio!r} psi0={psi0!r}"
        out[key] = _digest(numeric_coverage(psi0, BandSpec(b), n, GainThreshold(ratio)))
    return out


def width_outputs() -> dict:
    return {f"width N={n} ratio={ratio!r}": _digest(exact_half_power_beamwidth(n, GainThreshold(ratio)))
            for n in range(2, 130) for ratio in RATIOS}


GROUPS = {"verify": verify_outputs, "coverage": coverage_outputs, "width": width_outputs}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_output_keeps_its_bits(group):
    want = {k: v for k, v in json.loads(CORPUS.read_text()).items() if k.split(" ", 1)[0] == group}
    got = GROUPS[group]()
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"{len(moved)} of {len(want)} {group} outputs moved, first: {moved[:10]}"


def test_corpus_is_the_fixed_size():
    # the corpus is never resized: 19 + 150 verified codebooks at two slacks,
    # 196 + 100 coverages and 128 sizes at 5 ratios
    counts = Counter(key.split(" ", 1)[0] for key in json.loads(CORPUS.read_text()))
    assert counts == {"verify": 338, "coverage": 296, "width": 640}


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bit_corpus.py --rewrite")
    corpus = {k: v for group in GROUPS.values() for k, v in group().items()}
    CORPUS.write_text(json.dumps(corpus, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} hashes to {CORPUS}")
