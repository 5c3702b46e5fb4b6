"""Summary statistics shared by the runner, the steadiness mode and the
compare script.

The median is the usual midpoint (the mean of the middle two of an even
count, so two passes report their mean, not the faster one); higher
percentiles use the nearest-rank definition, so a reported tail is one of
the measured samples. Quartiles use ``statistics.quantiles(values, n=4)`` (exclusive method),
the same definition the spread checks are specified with.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """The median for ``pct`` 50, else the ``pct``-th percentile by nearest rank."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if pct == 50.0:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def tail(values) -> dict:
    """The highest ladder percentile with at least MIN_BEYOND samples above it.

    When the sample is too small for even the median to qualify, the median
    is returned and ``rule_met`` is false, so the record states it.
    """
    def at(pct, rule_met):
        value = percentile(values, pct)
        beyond = sum(1 for v in values if v > value)
        return {"pct": pct, "value": value, "beyond": beyond, "n": len(values), "rule_met": rule_met}

    for pct in TAIL_LADDER:
        found = at(pct, True)
        if found["beyond"] >= MIN_BEYOND:
            return found
    return at(50.0, False)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative when it is better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else (math.inf if delta > 0 else 0.0)


def judge(pairs, bound: float, better: str) -> dict:
    """Verdict for one metric on one workload from paired (parent, change) runs.

    - ``gain``: the change wins at least 9/10 of the pairs (ties count for
      neither side) and the medians differ by more than the parent's
      inter-quartile distance;
    - ``regression``: the change's median is worse than the parent's by more
      than ``bound``;
    - ``unresolved``: either side's spread is wider than ``bound``, unless
      every change run is better than every parent run;
    - ``no regression`` otherwise.
    """
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if better == "lower":
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    worse = worse_by(pmed, cmed, better)
    if wins >= 0.9 * len(pairs) and sign * (cmed - pmed) < 0 and abs(cmed - pmed) > pq3 - pq1:
        verdict = "gain"
    elif max(spread(parent), spread(change)) > bound and not separated:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {
        "parent": {"q1": pq1, "median": pmed, "q3": pq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "worse_by": worse,
        "verdict": verdict,
    }
