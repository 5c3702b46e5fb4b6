"""Regenerate the benchmark's stored inputs and references from the program
in the current checkout.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``fixtures/`` (the codebook files the ``cli`` workload verifies),
``reference/audit.json`` (pass flags, gap edges and numeric coverage edges
of the ``audit`` workload's fixed part) and ``reference/cli_golden.json``
(exit code and output hash of each fixed ``cli`` invocation). Run it only
at a commit whose outputs are the accepted ones: every later commit is
checked against these files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import beamsquint as bs

import workload as w


def main() -> int:
    w.FIXTURES.mkdir(exist_ok=True)
    w.REFERENCE.mkdir(exist_ok=True)
    small = bs.design_no_squint(8, w.PSI_M)
    (w.FIXTURES / "codebook_n8_b0.json").write_text(small.to_json())
    relabelled = dataclasses.replace(bs.design_no_squint(16, w.PSI_M), band=bs.BandSpec(0.0342))
    (w.FIXTURES / "narrowband_n16_as_b0342.json").write_text(relabelled.to_json())

    audit = {"verify": {}, "coverage": {}}
    for n, b in w.AUDIT_NARROWBAND:
        book = dataclasses.replace(bs.design_no_squint(n, w.PSI_M), band=bs.BandSpec(b))
        report = bs.verify_codebook(book)
        assert not report.passed
        audit["verify"][w.key(n, b)] = [[g.lo, g.hi] for g in report.gaps]
    for n, b in w.AUDIT_COVERAGE:
        book = bs.design_with_squint(n, bs.BandSpec(b), w.PSI_M).codebook
        edges = []
        for beam in book.beams:
            cov = bs.numeric_coverage(beam.psi0, bs.BandSpec(b), n)
            edges.append([cov.lo, cov.hi])
        audit["coverage"][w.key(n, b)] = edges
    (w.REFERENCE / "audit.json").write_text(json.dumps(audit, indent=1) + "\n")

    golden = {}
    for name, argv in w.CLI_FIXED:
        _, code, stdout = w.cli_subprocess(argv)
        golden[name] = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout),
        }
    (w.REFERENCE / "cli_golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    gaps = sum(len(v) for v in audit["verify"].values())
    beams = sum(len(v) for v in audit["coverage"].values())
    print(f"audit: {gaps} gaps, {beams} beams; cli: {len(golden)} invocations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
