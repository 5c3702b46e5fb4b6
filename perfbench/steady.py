"""Steadiness mode: repeat every workload with a different seed each time
and report each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workload W ...]

Run from the root of a checkout. Every run is its own ``run.py`` process,
and the workloads take turns so that a slow spell of the machine spreads
over all of them. Then each workload has one traced run, with seed
``seed0``. The spread of a metric is (q3 - q1) / median over the runs;
it is steady when below a third of the metric's bound. The table names each metric ``<workload>.<metric>`` with its unit, and
adds ``<workload>.failed_frac``. Everything, with the traced runs' layer
shares and the provenance, is written to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def invoke(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One run.py run from ``root``; the full record it wrote."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if record["result"] != json.loads(proc.stdout.strip().splitlines()[-1]):
        raise RuntimeError(f"{workload} seed {seed}: record and printed result differ")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    root = Path.cwd()

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            runs[w].append(invoke(root, w, args.seed0 + i, 0))
            print(f"run {i + 1}/{args.runs} {w}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[w][-1]["result"]["metrics"].items()),
                  file=sys.stderr, flush=True)
    traces = {w: invoke(root, w, args.seed0, 1) for w in workloads}

    summary = {"runs": args.runs, "seed0": args.seed0, "workloads": {}}
    steady = True
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        results = [r["result"] for r in runs[w]]
        why = next(x["why"] for x in SPEC["workloads"] if x["name"] == w)
        entry = {"why": why, "metrics": {}, "seeds": [r["seed"] for r in runs[w]]}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = stats.quartiles(values)
            s = stats.spread(values)
            verdict = "steady" if s < m["bound"] / 3 else "NOT STEADY"
            steady &= verdict == "steady"
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": s,
                "bound": m["bound"], "values": values,
            }
            print(f"{w + '.' + m['name']:34} {m['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:8.2%} {m['bound']:6.2f}  {verdict}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry["failed_frac"] = failed / attempted
        entry["tail_pct"] = sorted({r["tail"]["pct"] for r in runs[w]})
        print(f"{w + '.failed_frac':34} {'1':6} {failed / attempted:12.6g}   ({failed}/{attempted})")
        t = traces[w]
        tr = t["trace"]
        entry["trace"] = {"seed": t["seed"], "correct": t["result"]["correct"], **tr}
        shares = {k: v for k, v in tr["layers"].items() if k.startswith("share.")}
        print(f"  traced seed {t['seed']}: overhead {tr['overhead_s']:+.3f} s "
              f"({tr['overhead_frac']:+.1%}); "
              + ", ".join(f"{k[6:]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        summary["workloads"][w] = entry
    summary["provenance"] = runs[workloads[0]][0]["provenance"]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("all judged spreads below a third of their bound" if steady else "some spreads too wide")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
