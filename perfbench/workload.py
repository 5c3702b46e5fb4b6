"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file as its own process, from the root of the
checkout with the program's ``src`` on PYTHONPATH:

    python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE

It repeats passes of the workload until SECONDS have gone by and at least
the workload's minimum number of passes is done, checks every result
after the timed passes, and prints one JSON object as the last line of
standard output. Every unit of work runs through a ``speed.Clock``, which
probes the host's speed between units; times are reported scaled to the
reference speed, next to the raw ones. With TRACE=1 it runs one pass
untraced and one traced instead, unscaled, and adds the per-layer metrics.

The seed fixes the order of operations and draws the extra (N, b)
configurations; the paper's configurations are always included. A wrong
result is counted in ``failed``; it never stops the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"

PSI_M = 1.0
# The paper's half-power width constant: a beam is 1.772/N wide in psi.
WIDTH_CONSTANT = 1.772
# Certification criterion: the 1.772/N constant may cost at most this much
# against the exact kernel (slack-0 shortfall).
MAX_SHORTFALL_DB = 0.15
# Refined edges are within 1e-9 of the true crossing on both sides of a
# comparison, so two correct refiners can differ by up to twice that.
EDGE_TOL = 2e-9

# cli needs three passes for a p75 tail with ten commands beyond it.
# One certify (14 s) or audit (18 s) pass is enough alone: scaled to the
# host's speed, its time spread 0.03 over five seeds, and a second pass
# would overrun the time the benchmark may take on a slow host.
MIN_PASSES = {"certify": 1, "audit": 1, "cli": 3}


def max_b(n: int) -> float:
    """The paper's feasibility bound b < 1.772/(psi_m*N)."""
    return WIDTH_CONSTANT / (PSI_M * n)


def key(n: int, b: float) -> str:
    return f"{n}/{b!r}"


def narrowband_size(n: int) -> int:
    """Beams needed to tile [-psi_m, psi_m] without squint; squint only adds beams."""
    return math.ceil(2.0 * PSI_M * n / WIDTH_CONSTANT - 1e-12)


# ----------------------------------------------------------------- certify

CERTIFY_CONFIGS = [
    (n, b) for n in (8, 16, 32, 64) for b in (0.0, 0.0179, 0.0342) if b < max_b(n)
]
PAPER_SIZES = {(16, 0.0): 19, (16, 0.0342): 22, (32, 0.0): 37, (32, 0.0342): 57}
CERTIFY_EXTRAS = 5


def certify_extras(rng: random.Random) -> list[tuple[int, float]]:
    # N = 8, b ~ U[0.02, 0.15) * bound: ten-beam codebooks under mild
    # squint, each about a thirtieth of the pass, so the seed varies the
    # inputs without the pass outgrowing one run.
    return [(8, rng.uniform(0.02, 0.15) * max_b(8)) for _ in range(CERTIFY_EXTRAS)]


def certify_one(bs, n, b):
    outcome = bs.design_with_squint(n, bs.BandSpec(b), PSI_M)
    report = bs.verify_codebook(outcome.codebook) if outcome.feasible else None
    return n, b, outcome, report


def certify_pass(bs, ops, clock):
    return [clock.op(key(n, b), certify_one, bs, n, b) for n, b in ops]


def certify_check(n, b, outcome, report) -> str | None:
    if report is None:
        return f"certify {key(n, b)}: design infeasible"
    shortfall = max(0.0, report.threshold_db - report.worst_gain_db)
    if not report.passed or shortfall > MAX_SHORTFALL_DB:
        return f"certify {key(n, b)}: passed={report.passed} shortfall={shortfall:.4f} dB"
    size = outcome.codebook.size
    if (n, b) in PAPER_SIZES and size != PAPER_SIZES[(n, b)]:
        return f"certify {key(n, b)}: size {size}, paper {PAPER_SIZES[(n, b)]}"
    narrowband = narrowband_size(n)
    if size < narrowband:
        return f"certify {key(n, b)}: size {size} below the narrowband tiling {narrowband}"
    return None


# ------------------------------------------------------------------- audit

AUDIT_NARROWBAND = [(n, b) for n in (16, 32, 64) for b in (0.0179, 0.0342)]
AUDIT_COVERAGE = [(16, 0.0342), (32, 0.0342), (64, 0.0179)]
AUDIT_EXTRAS = 8


def audit_extras(rng: random.Random) -> list[tuple[int, float]]:
    # N = 8, b ~ U[0.3, 0.6) * bound: squint large enough that the
    # narrowband codebook fails. Each costs about a tenth of the cheapest
    # paper verification.
    return [(8, rng.uniform(0.3, 0.6) * max_b(8)) for _ in range(AUDIT_EXTRAS)]


def audit_inputs(bs, extras, rng):
    ops = []
    narrowband = {n: bs.design_no_squint(n, PSI_M) for n in {16, 32, 64, *(n for n, _ in extras)}}
    for n, b in AUDIT_NARROWBAND + extras:
        ops.append(("verify", n, b, dataclasses.replace(narrowband[n], band=bs.BandSpec(b))))
    for n, b in AUDIT_COVERAGE:
        book = bs.design_with_squint(n, bs.BandSpec(b), PSI_M).codebook
        ops += [("coverage", n, b, beam) for beam in book.beams]
    rng.shuffle(ops)
    return ops


def audit_one(bs, kind, n, b, arg):
    if kind == "verify":
        result = bs.verify_codebook(arg)
    else:
        result = bs.numeric_coverage(arg.psi0, bs.BandSpec(b), n)
    return kind, n, b, arg, result


def audit_pass(bs, extras, rng, clock):
    ops = clock.op("inputs", audit_inputs, bs, extras, rng)
    return [clock.op(audit_name(*op), audit_one, bs, *op) for op in ops]


def audit_name(kind, n, b, arg):
    return f"{kind} {key(n, b)}" + (f" beam {arg.index}" if kind == "coverage" else "")


def audit_check(ref, kind, n, b, arg, result) -> str | None:
    if kind == "coverage":
        expected = ref["coverage"][key(n, b)][arg.index]
        if result is None or max(abs(result.lo - expected[0]), abs(result.hi - expected[1])) > EDGE_TOL:
            return f"coverage {key(n, b)} beam {arg.index}: {result} vs {expected}"
        return None
    gaps = [(g.lo, g.hi) for g in result.gaps]
    if result.passed or not gaps:
        return f"audit {key(n, b)}: a narrowband codebook passed under squint"
    expected = ref["verify"].get(key(n, b))
    if expected is None:  # seeded extra: invariants only
        flat = [v for g in gaps for v in g]
        if not (-PSI_M <= flat[0] and flat[-1] <= PSI_M and all(x <= y for x, y in zip(flat, flat[1:]))):
            return f"audit {key(n, b)}: gaps not ordered inside the range: {gaps}"
        return None
    if len(gaps) != len(expected):
        return f"audit {key(n, b)}: {len(gaps)} gaps, reference {len(expected)}"
    for got, want in zip(gaps, expected):
        if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > EDGE_TOL:
            return f"audit {key(n, b)}: gap {got} vs reference {want}"
    return None


# --------------------------------------------------------------------- cli

CLI_FIXED = [
    ("bounds", ["bounds", "--antennas", "16", "--carrier-ghz", "73", "--bandwidth-ghz", "2.5"]),
    ("design-n16-73ghz", ["design", "--antennas", "16", "--carrier-ghz", "73", "--bandwidth-ghz", "2.5"]),
    ("design-n64-b0179", ["design", "--antennas", "64", "--fractional-bandwidth", "0.0179"]),
    ("design-n32-b0", ["design", "--antennas", "32", "--fractional-bandwidth", "0"]),
    ("design-n64-b0342-infeasible", ["design", "--antennas", "64", "--fractional-bandwidth", "0.0342"]),
    ("verify-n8-pass", ["verify", "--codebook", str(FIXTURES / "codebook_n8_b0.json")]),
    ("verify-n16-narrowband-fail", ["verify", "--codebook", str(FIXTURES / "narrowband_n16_as_b0342.json")]),
    ("sweep-b", ["sweep-b", "--antennas", "8", "16", "32", "64", "128",
                 "--b-min", "0", "--b-max", "0.2", "--b-points", "200"]),
    ("sweep-n", ["sweep-n", "--b-list", "0,0.0179,0.0342,0.0714,0.12", "--n-min", "4", "--n-max", "512"]),
    ("pattern", ["pattern", "--antennas", "16", "--theta0-deg", "30",
                 "--carrier-ghz", "73", "--freq-ghz", "71.75", "73", "74.25"]),
]
CLI_EXTRAS = 4


def cli_extras(rng: random.Random) -> list:
    # N ~ U{4..64}; feasible with probability 3/4, b ~ U[0, 0.8) * bound,
    # else b ~ U[1, 1.25) * bound (exit 3).
    extras = []
    for _ in range(CLI_EXTRAS):
        n = rng.randint(4, 64)
        share = rng.uniform(0.0, 0.8) if rng.random() < 0.75 else rng.uniform(1.0, 1.25)
        b = share * max_b(n)
        extras.append((f"design-extra-{key(n, b)}",
                       ["design", "--antennas", str(n), "--fractional-bandwidth", repr(b)]))
    return extras


def cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "beamsquint", *argv], capture_output=True)
    return proc.returncode, proc.stdout


def cli_in_process(cli_module, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main(list(argv))
    return code, out.getvalue().encode()


def cli_one(invoke, name, argv):
    code, stdout = invoke(argv)
    return name, argv, code, stdout


def cli_pass(invoke, ops, clock):
    return [clock.op(name, cli_one, invoke, name, argv) for name, argv in ops]


def cli_check(golden, name, argv, code, stdout) -> str | None:
    want = golden.get(name)
    if want is None:
        return cli_design_check(name, int(argv[2]), float(argv[4]), code, stdout)
    if code != want["exit"]:
        return f"cli {name}: exit {code}, golden {want['exit']}"
    if hashlib.sha256(stdout).hexdigest() != want["stdout_sha256"]:
        return f"cli {name}: {len(stdout)} output bytes differ from the golden {want['stdout_bytes']}"
    return None


def cli_design_check(name, n, b, code, stdout) -> str | None:
    """Invariants of a seeded ``design`` command's output: exit 3 with no
    output exactly when b >= 1.772/N, else a codebook for (N, b) of at
    least the narrowband size whose mirror-symmetric beams, each no wider
    than 1.772/N, tile [-psi_m, psi_m] without a hole."""
    if b >= max_b(n):
        return None if code == 3 and not stdout else f"cli {name}: exit {code}, want 3"
    if code != 0:
        return f"cli {name}: exit {code}, want 0"
    book = json.loads(stdout)
    beams = book["beams"]
    psi0 = [beam["psi0"] for beam in beams]
    cover = [(beam["coverage"]["lo"], beam["coverage"]["hi"]) for beam in beams]
    tol = 1e-9
    problems = [
        (book["n_antennas"], book["fractional_bandwidth"], book["psi_m"]) != (n, b, PSI_M)
        and "wrong configuration",
        book["size"] != len(beams) and "size differs from the beam count",
        len(beams) < narrowband_size(n) and f"{len(beams)} beams, below the narrowband tiling",
        any(len(beam["phases_rad"]) != n for beam in beams) and "phase vector length",
        any(x >= y for x, y in zip(psi0, psi0[1:])) and "foci not increasing",
        any(abs(x + y) > tol for x, y in zip(psi0, reversed(psi0))) and "foci not mirror-symmetric",
        any(not lo < hi <= lo + WIDTH_CONSTANT / n + tol for lo, hi in cover) and "coverage width",
        (cover[0][0] > -PSI_M + tol or cover[-1][1] < PSI_M - tol) and "range not reached",
        any(lo2 > hi1 + tol or lo2 < lo1 for (lo1, hi1), (lo2, _) in zip(cover, cover[1:]))
        and "coverage hole or disorder",
    ]
    problems = [p for p in problems if p]
    return f"cli {name}: {'; '.join(problems)}" if problems else None


def import_scipy_seconds(repeats: int = 3) -> float:
    """Median cumulative import time of scipy inside ``import beamsquint``,
    from ``python -X importtime`` (0 when scipy is not imported)."""
    values = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import beamsquint"],
            capture_output=True, text=True, check=True,
        )
        values.append(scipy_cumulative_us(proc.stderr) / 1e6)
    return statistics.median(values)


def scipy_cumulative_us(importtime_log: str) -> int:
    """Sum of the cumulative times of scipy modules not imported by another
    scipy module. The log lists children before parents, deeper indented."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = 0
    stack = []  # (depth, is scipy) of the ancestors of the current row
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cumulative
        stack.append((depth, is_scipy))
    return total


# --------------------------------------------------------------------- run


def shuffled(rng: random.Random, items) -> list:
    order = list(items)
    rng.shuffle(order)
    return order


def prepare(workload: str, rng: random.Random, trace: bool):
    """Draw the workload's inputs; return ``(run_pass, check)`` where
    ``run_pass(clock)`` runs one pass, each unit of work through
    ``clock.op``, and gives its results, and ``check(results)`` a failure
    message or None per result."""
    if workload == "cli":
        golden = json.loads((REFERENCE / "cli_golden.json").read_text())
        ops = CLI_FIXED + cli_extras(rng)
        if trace:
            import beamsquint.cli as cli_module

            invoke = functools.partial(cli_in_process, cli_module)
        else:
            invoke = cli_subprocess

        return (lambda clock: cli_pass(invoke, shuffled(rng, ops), clock),
                lambda results: [cli_check(golden, *r) for r in results])

    import beamsquint as bs

    if workload == "certify":
        configs = CERTIFY_CONFIGS + certify_extras(rng)
        return (lambda clock: certify_pass(bs, shuffled(rng, configs), clock),
                lambda results: [certify_check(*r) for r in results])
    if workload == "audit":
        ref = json.loads((REFERENCE / "audit.json").read_text())
        extras = audit_extras(rng)
        return (lambda clock: audit_pass(bs, extras, rng, clock),
                lambda results: [audit_check(ref, *r) for r in results])
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run. An operation is what a user waits for: one command on
    ``cli``; on ``certify`` and ``audit`` the whole pass, as a user waits
    for the whole certification or audit. Times are scaled to the
    reference host speed (``speed.Clock``); the ``*_raw_s`` lists keep
    them as measured."""
    rng = random.Random(seed)
    record = {"workload": workload, "seed": seed}
    run_pass, check = prepare(workload, rng, trace)

    outcomes = []
    if trace:
        # no probes: the traced pass and its untraced twin time the program alone
        clock = speed.Clock(probing=False)
        t0 = time.perf_counter()
        results = run_pass(clock)
        wall = time.perf_counter() - t0
        outcomes += check(results)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            t0 = time.perf_counter_ns()
            traced_results = run_pass(clock)
            traced_ns = time.perf_counter_ns() - t0
        traced_wall = traced_ns / 1e9
        outcomes += check(traced_results)
        layers = tracing.layer_metrics(tracer.spans, traced_ns)
        layers["cli.import_scipy_s"] = import_scipy_seconds()
        layers["cli.output_bytes"] = (
            sum(len(r[3]) for r in traced_results) if workload == "cli" else 0
        )
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        record["trace"] = {
            "untraced_wall_s": wall,
            "traced_wall_s": traced_wall,
            "overhead_s": traced_wall - wall,
            "overhead_frac": (traced_wall - wall) / wall,
            "spans": len(tracer.spans),
            "spans_file": str(spans_file.relative_to(HERE.parent)),
            "layers": layers,
        }
        record["passes_s"] = record["passes_raw_s"] = [wall]
        record["ops_s"] = record["ops_raw_s"] = (
            [clock.raw(i) for i in range(len(results))] if workload == "cli" else [wall]
        )
    else:
        clock = speed.Clock()
        passes = []  # each pass's operation indices; its time is theirs, without the probes
        start = time.perf_counter()
        while len(passes) < MIN_PASSES[workload] or time.perf_counter() - start < seconds:
            first = len(clock.ops)
            outcomes.append(run_pass(clock))
            passes.append(range(first, len(clock.ops)))
        clock.finish()
        outcomes = [f for results in outcomes for f in check(results)]
        record["wall_s"] = clock.median_pass()
        record["passes_raw_s"] = [sum(clock.raw(i) for i in ops) for ops in passes]
        record["passes_s"] = [sum(clock.scaled(i) for i in ops) for ops in passes]
        if workload == "cli":
            record["ops_raw_s"] = [clock.raw(i) for i in range(len(clock.ops))]
            record["ops_s"] = [clock.scaled(i) for i in range(len(clock.ops))]
        else:
            record["ops_raw_s"], record["ops_s"] = record["passes_raw_s"], record["passes_s"]
        record["probes"] = clock.probes
        record["ops"] = [[name, t0, t1] for name, (t0, t1) in zip(clock.names, clock.ops)]

    failures = [f for f in outcomes if f is not None]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF)
    record.update(
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, seconds, trace = argv
    record = run(workload, int(seed), float(seconds), trace == "1")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
