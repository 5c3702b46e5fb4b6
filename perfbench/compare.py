"""Paired comparison of a parent and a change with one copy of the benchmark.

    python3 perfbench/compare.py run --parent DIR --change DIR [--seed0 1]
                                     [--workload W ...] --out FILE
    python3 perfbench/compare.py report FILE

``run`` measures both checkouts (each a directory holding ``src/``) with
this benchmark's code and settings, in ten pairs: pair i uses seed
seed0+i on both sides, and the side that goes first alternates. Every run is
appended to FILE as one JSON line, so an interrupted comparison keeps its
runs. ``report`` prints, per workload and end-to-end metric, each side's
median and quartiles and the verdict of ``stats.judge``: ``gain`` (the
change wins at least 9/10 of the pairs and the medians differ by more
than the parent's inter-quartile distance), ``regression`` (worse than the
bound), ``unresolved`` (a spread wider than the bound) or ``no
regression``. It also compares the failed operations of both sides.

A run's tail percentile depends on how many operations fit in it, so the
two sides of a comparison may have reached different ones. ``tail_ms`` is
therefore judged at the lowest percentile any run of the workload
reached, recomputed from each run's stored operation times.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats
from steady import SPEC, invoke

PAIRS = 10


def run_pairs(args) -> None:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    with open(args.out, "a") as out:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    record = invoke(sides[side], w, args.seed0 + i, 0)
                    line = {"pair": i, "side": side, "first": order[0], "workload": w,
                            "seed": args.seed0 + i, "result": record["result"],
                            "tail_pct": record["tail"]["pct"], "ops_s": record["ops_s"],
                            "provenance": record["provenance"]}
                    out.write(json.dumps(line) + "\n")
                    out.flush()
                    print(f"pair {i} {w} {side} done", file=sys.stderr, flush=True)


def common_tail(complete) -> tuple[float, list[tuple[float, float]]]:
    """The lowest tail percentile of any run in ``complete`` (a list of
    side -> run), and each pair's (parent, change) ``tail_ms`` at it."""
    pct = min(s[side]["tail_pct"] for s in complete for side in ("parent", "change"))
    return pct, [
        tuple(stats.percentile(s[side]["ops_s"], pct) * 1e3 for side in ("parent", "change"))
        for s in complete
    ]


def report(path: str) -> int:
    rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    by = defaultdict(dict)  # (workload, pair) -> side -> run
    for r in rows:
        by[(r["workload"], r["pair"])][r["side"]] = r
    workloads = sorted({w for w, _ in by})
    regressed = False
    print(f"{'metric':28} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6} "
          f"{'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        complete = [sides for (wl, _), sides in sorted(by.items()) if wl == w and len(sides) == 2]
        if not complete:
            continue
        tail_pct, tail_pairs = common_tail(complete)
        for m in SPEC["end_to_end"]:
            name = m["name"]
            if name == "tail_ms":
                pairs = tail_pairs
            else:
                pairs = [tuple(s[side]["result"]["metrics"][name]["value"] for side in ("parent", "change"))
                         for s in complete]
            j = stats.judge(pairs, m["bound"], m["better"])
            regressed |= j["verdict"] in ("regression", "unresolved")
            p, c = j["parent"], j["change"]
            print(f"{w + '.' + name:28} {p['q1']:10.4g}/{p['median']:10.4g}/{p['q3']:10.4g} "
                  f"{c['q1']:10.4g}/{c['median']:10.4g}/{c['q3']:10.4g} "
                  f"{j['wins']:>3}/{j['pairs']:<2} {j['worse_by']:+7.1%} {m['bound']:6.2f}  {j['verdict']}"
                  + (f" (p{tail_pct:g})" if name == "tail_ms" else ""))
        failed = {side: sum(s[side]["result"]["failed"] for s in complete) for side in ("parent", "change")}
        attempted = {side: sum(s[side]["result"]["attempted"] for s in complete) for side in ("parent", "change")}
        print(f"{w + '.failed_frac':28} parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
        regressed |= failed["change"] > failed["parent"]
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="measure parent and change in alternating pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--out", required=True)
    p = sub.add_parser("report", help="judge the runs in a file written by 'run'")
    p.add_argument("file")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args)
        return report(args.out)
    return report(args.file)


if __name__ == "__main__":
    sys.exit(main())
