"""Benchmark entry point for beamsquint.

    python3 perfbench/run.py --workload {certify,audit,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: the program is ``src/beamsquint``
under the current directory. The workload runs in its own fresh
interpreter (``workload.py``) with one closed-loop client and
single-threaded numeric libraries.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json: ``setup_s`` (the median of twelve timed ``import
beamsquint`` in fresh interpreters, half before and half after the
workload, after one warm-up), ``wall_s``
(time of one pass, each unit of work at its median over the run's
passes), ``peak_rss_mb`` (peak resident set of the
workload process; for ``cli``, of the largest command), ``p50_ms`` and
``tail_ms`` (per operation: one command on ``cli``, one pass on
``certify`` and ``audit``). The tail is the highest of the percentiles
99.9/99/95/90/75/50 with at least ten samples beyond it; when not even the
median has ten, the median is reported and the record says so. Every time
is scaled to a reference host speed by probes between the operations
(``speed.py``); the record keeps the raw times too. With ``--trace 1`` the
result carries BENCHMARK.json's per-layer metrics from a traced pass,
unscaled.

The last line of standard output is the JSON result; the full record,
with provenance and the per-layer metrics BENCHMARK.json leaves out, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import speed
import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Timed imports on each side of the workload, so that set-up is sampled
# over the whole run.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 160

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import beamsquint; "
    "print(repr(time.perf_counter() - t))"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def measure_setup(root: Path, env: dict, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds for ``import beamsquint`` in ``repeats`` fresh interpreters,
    timed inside each: (scaled to the reference host speed, raw)."""
    def timed_import():
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], cwd=root, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(proc.stdout.strip().splitlines()[-1])

    clock = speed.Clock()
    seconds = [clock.op(f"import {k}", timed_import) for k in range(repeats)]
    clock.finish()
    # the clock times the whole subprocess; only its speed factor is used
    return [s * clock.factor(i) for i, s in enumerate(seconds)], seconds


def provenance(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():  # a plain checkout has none; never look above it
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def end_to_end(child: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = child["ops_s"]
    tail = stats.tail(ops)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": child["wall_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "p50_ms": stats.percentile(ops, 50.0) * 1e3,
        "tail_ms": tail["value"] * 1e3,
    }
    return values, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "beamsquint" / "__init__.py").is_file():
        print(f"error: no program to measure: {root / 'src' / 'beamsquint'} is missing; "
              "run from the root of a beamsquint checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    trace = bool(args.trace)
    # the warm-up import may compile bytecode; it is not timed
    setup, setup_raw = [], []
    if not trace:
        setup, setup_raw = (v[1:] for v in measure_setup(root, env, SETUP_REPEATS + 1))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), args.workload, str(args.seed),
         repr(args.seconds), str(args.trace)],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        after, after_raw = measure_setup(root, env, SETUP_REPEATS)
        setup, setup_raw = setup + after, setup_raw + after_raw

    if trace:
        wanted = SPEC["per_layer"]
        values = child["trace"]["layers"]
        extra = {"trace": child["trace"]}
    else:
        wanted = SPEC["end_to_end"]
        values, tail = end_to_end(child, setup)
        extra = {"setup_s_samples": setup, "setup_raw_s": setup_raw, "tail": tail}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }

    record = {
        "result": result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(root),
        "passes_s": child["passes_s"],
        "passes_raw_s": child["passes_raw_s"],
        "ops_s": child["ops_s"],
        "ops_raw_s": child["ops_raw_s"],
        "probes": child.get("probes", []),
        "ops": child.get("ops", []),
        "peak_rss_mb": child["peak_rss_mb"],
        "failures": child["failures"],
        **extra,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for f in child["failures"]:
        print(f"wrong result: {f}")
    for name, m in metrics.items():
        print(f"{args.workload}.{name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}.failed_frac = {child['failed'] / child['attempted']:.6g} "
          f"({child['failed']}/{child['attempted']})")
    if trace:
        t = child["trace"]
        print(f"trace overhead: {t['overhead_s']:+.3f} s ({t['overhead_frac']:+.1%}) over an "
              f"untraced pass of {t['untraced_wall_s']:.3f} s; {t['spans']} spans")
        for name, value in sorted(values.items()):
            if name not in metrics:
                print(f"{args.workload}.{name} = {value:.6g}")
    else:
        print(f"tail = p{tail['pct']:g} of {tail['n']} operations, {tail['beyond']} beyond"
              + ("" if tail["rule_met"] else " (fewer than ten beyond the median)"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
