"""Spans around the public entry points of each beamsquint layer.

The library is not edited: ``instrument`` wraps its public functions from
outside. ``from .x import y`` copies a function into every consumer module
(``verification.gain_kernel_magnitude``, ``cli.verify_codebook``, ...), so
each binding that refers to a wrapped function is patched, in every loaded
``beamsquint`` module, and every one is restored on exit.

Helpers called once per beam (``fine_beam_weights``, ``squinted_coverage``,
``half_power_beamwidth``) are deliberately not wrapped: the sweeps build
hundreds of thousands of beams, so spans there would dominate the trace
overhead. Their time counts as self time of the layer that called them.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    info: object = None


class Tracer:
    """Keeps spans in memory; ``spans`` is in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording a span per call; ``info(args, kwargs, result)``
        attaches a small summary of the call to the span."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(name, 0, 0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> list[list]:
        """Spans as ``[name, start_ns, end_ns, parent]`` rows, times relative
        to the first span."""
        t0 = self.spans[0].start if self.spans else 0
        return [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans]


def _kernel_info(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    # (evaluations, bulk): a grid sweep passes a 2-D (angle x subcarrier) array
    return int(np.size(x)), np.ndim(x) >= 2


def _grid_points(psi_m: float, psi_step: float) -> int:
    # mirrors the carrier-angle grid built by verify_codebook
    return max(2, int(round(2.0 * psi_m / psi_step))) + 1


def _verify_info(args, kwargs, report):
    return _grid_points(report.psi_m, report.psi_step), len(report.gaps)


def _design_info(args, kwargs, result):
    book = getattr(result, "codebook", result)
    return 0 if book is None else book.size


def _main_info(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


# (module, attribute, span name, info)
TARGETS = (
    ("array_model", "gain_kernel_magnitude", "array_model.kernel", _kernel_info),
    ("squint", "numeric_coverage", "squint.numeric_coverage", None),
    ("codebook", "design_with_squint", "codebook.design", _design_info),
    ("codebook", "design_no_squint", "codebook.design", _design_info),
    ("verification", "verify_codebook", "verification.verify", _verify_info),
    ("verification", "sweep_size_vs_b", "verification.sweep", None),
    ("verification", "sweep_size_vs_n", "verification.sweep", None),
    ("cli", "main", "cli.main", _main_info),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every binding of the TARGETS (and ``Codebook.from_json``) in
    the loaded ``beamsquint`` modules; restore all of them on exit."""
    import beamsquint.cli  # noqa: F401  (loads every layer module)
    from beamsquint.codebook import Codebook

    modules = [
        m for name, m in list(sys.modules.items())
        if name == "beamsquint" or name.startswith("beamsquint.")
    ]
    saved = []
    try:
        for mod_name, attr, span_name, info in TARGETS:
            original = getattr(sys.modules[f"beamsquint.{mod_name}"], attr)
            wrapped = tracer.wrap(span_name, original, info)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, name, original))
                        setattr(module, name, wrapped)
        descriptor = Codebook.__dict__["from_json"]
        saved.append((Codebook, "from_json", descriptor))
        Codebook.from_json = classmethod(tracer.wrap("codebook.parse", descriptor.__func__))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def _median(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[Span], wall_ns: int) -> dict:
    """Per-layer metrics of one traced pass (zero where a layer is not used).

    Names are those of BENCHMARK.json's ``per_layer`` list plus the
    workload-specific ones (``verification.sweep_s``,
    ``squint.numeric_coverage_ms``, ``codebook.parse_ms``,
    ``cli.main_ms.<subcommand>``, ``cli.self_ms``) and ``share.<layer>``,
    each layer's self time as a share of the pass.
    """
    own = self_times(spans)
    dur = [s.end - s.start for s in spans]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    kernel = by_name["array_model.kernel"]
    verify = by_name["verification.verify"]
    nc = by_name["squint.numeric_coverage"]
    design = by_name["codebook.design"]
    mains = by_name["cli.main"]

    evals = sum(spans[i].info[0] for i in kernel)
    kernel_ns = sum(dur[i] for i in kernel)  # kernel functions never nest
    verify_set = set(verify)
    last_bulk_end = {}
    point_calls = 0
    for i in kernel:
        p = spans[i].parent
        if p in verify_set:
            if spans[i].info[1]:
                last_bulk_end[p] = spans[i].end
            else:
                point_calls += 1
    refine_ns = sum(spans[v].end - last_bulk_end.get(v, spans[v].start) for v in verify)
    grid_points = sum(spans[i].info[0] for i in verify)
    verify_ns = sum(dur[i] for i in verify)
    nc_set = set(nc)

    m = {
        "array_model.kernel_evals": evals,
        "array_model.kernel_calls": len(kernel),
        "array_model.kernel_s": kernel_ns / 1e9,
        "array_model.kernel_ns_per_eval": kernel_ns / evals if evals else 0.0,
        "verification.verify_s": verify_ns / 1e9,
        "verification.self_s": sum(own[i] for i in verify) / 1e9,
        "verification.ms_per_grid_point": verify_ns / 1e6 / grid_points if grid_points else 0.0,
        "verification.refine_s": refine_ns / 1e9,
        "verification.point_kernel_calls": point_calls,
        "verification.gaps": sum(spans[i].info[1] for i in verify),
        "verification.sweep_s": sum(dur[i] for i in by_name["verification.sweep"]) / 1e9,
        "squint.numeric_coverage_calls": len(nc),
        "squint.numeric_coverage_ms": _median([dur[i] for i in nc], 1e-6),
        "squint.kernel_evals": sum(spans[i].info[0] for i in kernel if spans[i].parent in nc_set),
        "codebook.design_calls": len(design),
        "codebook.design_us": _median([dur[i] for i in design], 1e-3),
        "codebook.beams_built": sum(spans[i].info for i in design),
        "codebook.parse_ms": sum(dur[i] for i in by_name["codebook.parse"]) / 1e6,
        "cli.self_ms": sum(own[i] for i in mains) / 1e6,
    }
    per_sub = defaultdict(list)
    for i in mains:
        per_sub[spans[i].info].append(dur[i])
    for sub, values in sorted(per_sub.items()):
        m[f"cli.main_ms.{sub}"] = _median(values, 1e-6)

    shares = defaultdict(int)
    for i, s in enumerate(spans):
        shares[s.name.split(".", 1)[0]] += own[i]
    roots = sum(dur[i] for i, s in enumerate(spans) if s.parent < 0)
    shares["benchmark"] = wall_ns - roots
    for layer, ns in sorted(shares.items()):
        m[f"share.{layer}"] = ns / wall_ns if wall_ns else 0.0
    return m
