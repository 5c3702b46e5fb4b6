"""Minimum-size codebook construction.

Tiling without squint, the odd/even squint-compensated procedures (the
smaller wins), feasibility bounds on bandwidth and array size, and the
codebook JSON wire format.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .array_model import ArrayGeometry, _Record, _check_n, _fine_phases, _public
from .squint import HALF_POWER_CONSTANT, BandSpec, CoverageInterval, GainThreshold, half_power_beamwidth, squinted_coverage

# Absolute slack on tiling comparisons; stops roundoff at an exact tiling
# boundary from adding a spurious extra beam.
_EDGE_TOL = 1e-12


class CodebookFormatError(ValueError):
    """Raised when a serialized codebook violates the wire-format invariants."""


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false are not JSON numbers
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


class Beam(_Record):
    """One codebook entry: position, focus angle and analytic coverage,
    all derived from the codebook's foci. Its phases are
    ``fine_beam_weights(ArrayGeometry(N), psi0)``, derived when needed."""

    index: int
    psi0: float
    coverage: CoverageInterval

    @property
    def theta0_deg(self) -> float | None:
        """Focus angle in degrees, or None when the nominal focus falls
        outside the visible region (possible for the outermost beams)."""
        if abs(self.psi0) > 1.0:
            return None
        return math.degrees(math.asin(self.psi0))


# a dataclass, unlike the other records: callers derive codebooks with dataclasses.replace
@dataclass(frozen=True, slots=True)
class Codebook:
    """Ascending beam foci, jointly covering [-psi_m, psi_m], for the
    half-wavelength ULA of ``n_antennas`` elements. A beam is its focus: its
    index and analytic coverage follow from the foci, N and b."""

    foci: tuple[float, ...]
    psi_m: float
    band: BandSpec
    n_antennas: int
    threshold: GainThreshold

    def __post_init__(self) -> None:
        if not self.foci:
            raise ValueError("a codebook needs at least one beam, got empty foci")
        object.__setattr__(self, "n_antennas", _check_n(self.n_antennas))

    @property
    def beams(self) -> tuple[Beam, ...]:
        n = self.n_antennas
        return tuple(Beam(i, f, squinted_coverage(f, self.band, n)) for i, f in enumerate(self.foci))

    @property
    def size(self) -> int:
        return len(self.foci)

    @property
    def parity(self) -> str:
        return "odd" if self.size % 2 else "even"

    def coverage_gaps(self, tol: float = 1e-9) -> list[tuple[float, float]]:
        """Holes in the union of analytic coverages over [-psi_m, psi_m].

        Beam coverages are intersected with the target range here (and only
        here); an empty list certifies analytic completeness.
        """
        gaps: list[tuple[float, float]] = []
        cursor = -self.psi_m
        for beam in sorted(self.beams, key=lambda bm: bm.coverage.lo):
            lo = max(beam.coverage.lo, -self.psi_m)
            hi = min(beam.coverage.hi, self.psi_m)
            if hi <= lo:
                continue
            if lo > cursor + tol:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < self.psi_m - tol:
            gaps.append((cursor, self.psi_m))
        return gaps

    def to_dict(self) -> dict:
        geom = ArrayGeometry(self.n_antennas)
        return {
            "n_antennas": self.n_antennas,
            "spacing_ratio": geom.spacing_ratio,
            "fractional_bandwidth": self.band.fractional_bandwidth,
            "psi_m": self.psi_m,
            "threshold_ratio": self.threshold.ratio_to_max,
            "parity": self.parity,
            "size": self.size,
            "beams": [
                {
                    "index": beam.index,
                    "psi0": beam.psi0,
                    "theta0_deg": beam.theta0_deg,
                    "phases_rad": _fine_phases(geom, beam.psi0),
                    "coverage": {"lo": beam.coverage.lo, "hi": beam.coverage.hi},
                }
                for beam in self.beams
            ],
        }

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        """Parse and validate the wire format; raises CodebookFormatError
        naming the violated invariant."""
        if not isinstance(data, dict):
            raise CodebookFormatError("codebook document must be a JSON object")
        for key in (
            "n_antennas",
            "spacing_ratio",
            "fractional_bandwidth",
            "psi_m",
            "threshold_ratio",
            "parity",
            "size",
            "beams",
        ):
            if key not in data:
                raise CodebookFormatError(f"missing required key {key!r}")

        n = data["n_antennas"]
        if not _is_int(n) or n < 2:
            raise CodebookFormatError(f"n_antennas must be an integer >= 2, got {n!r}")
        if data["spacing_ratio"] != 0.5:
            raise CodebookFormatError(
                f"spacing_ratio must be 0.5 (half-wavelength), got {data['spacing_ratio']!r}"
            )
        b = data["fractional_bandwidth"]
        if not _is_number(b) or not (0.0 <= b < 2.0):
            raise CodebookFormatError(f"fractional_bandwidth must lie in [0, 2), got {b!r}")
        psi_m = data["psi_m"]
        if not _is_number(psi_m) or not (0.0 < psi_m <= 1.0):
            raise CodebookFormatError(f"psi_m must lie in (0, 1], got {psi_m!r}")
        ratio = data["threshold_ratio"]
        if not _is_number(ratio) or not (0.0 < ratio <= 1.0):
            raise CodebookFormatError(f"threshold_ratio must lie in (0, 1], got {ratio!r}")
        raw_beams = data["beams"]
        if not isinstance(raw_beams, list) or not raw_beams:
            raise CodebookFormatError("beams must be a non-empty list")
        if not _is_int(data["size"]) or data["size"] != len(raw_beams):
            raise CodebookFormatError(
                f"size {data['size']!r} does not match the number of beams {len(raw_beams)}"
            )
        parity = "odd" if len(raw_beams) % 2 else "even"
        if data["parity"] != parity:
            raise CodebookFormatError(
                f"parity must be {parity!r} for {len(raw_beams)} beams, got {data['parity']!r}"
            )

        geom = ArrayGeometry(n, 0.5)
        foci = []
        prev_psi0 = -math.inf
        for pos, entry in enumerate(raw_beams):
            if not isinstance(entry, dict):
                raise CodebookFormatError(f"beam {pos} must be a JSON object")
            for key in ("index", "psi0", "phases_rad", "coverage"):
                if key not in entry:
                    raise CodebookFormatError(f"beam {pos} is missing key {key!r}")
            index = entry["index"]
            if not _is_int(index):
                raise CodebookFormatError(f"beam {pos} index must be an integer, got {index!r}")
            psi0 = entry["psi0"]
            if not _is_number(psi0) or abs(psi0) > 1.5:
                raise CodebookFormatError(f"beam {pos} psi0 out of range, got {psi0!r}")
            if psi0 <= prev_psi0:
                raise CodebookFormatError("beams must be strictly sorted by psi0")
            prev_psi0 = psi0
            phases = entry["phases_rad"]
            if not isinstance(phases, list) or len(phases) != n:
                raise CodebookFormatError(
                    f"beam {pos} phases_rad length {len(phases) if isinstance(phases, list) else 'n/a'}"
                    f" does not match n_antennas {n}"
                )
            if not all(_is_number(p) for p in phases):
                raise CodebookFormatError(f"beam {pos} phases_rad must be numbers")
            if max(abs(float(p) - e) for p, e in zip(phases, _fine_phases(geom, psi0))) > 1e-9:
                raise CodebookFormatError(
                    f"beam {pos} phases_rad are not the fine-beam phases for psi0={psi0!r}"
                )
            cov = entry["coverage"]
            if not isinstance(cov, dict) or "lo" not in cov or "hi" not in cov:
                raise CodebookFormatError(f"beam {pos} coverage must carry 'lo' and 'hi'")
            lo, hi = cov["lo"], cov["hi"]
            if not (_is_number(lo) and _is_number(hi) and lo < hi):
                raise CodebookFormatError(f"beam {pos} coverage [{lo!r}, {hi!r}] is not a valid interval")
            foci.append(float(psi0))
        # after the sort order, so that an unsorted document is reported as such
        for pos, entry in enumerate(raw_beams):
            if entry["index"] != pos:
                raise CodebookFormatError(f"beam {pos} index must be its position {pos}, got {entry['index']!r}")

        return cls(
            foci=tuple(foci),
            psi_m=float(psi_m),
            band=BandSpec(float(b)),
            n_antennas=n,
            threshold=GainThreshold(float(ratio)),
        )

    @classmethod
    def from_json(cls, text: str) -> "Codebook":
        import json
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
            raise CodebookFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


class Infeasibility(_Record):
    """Why no codebook exists, with the violated bound values attached."""

    reason: str
    n_antennas: int
    psi_m: float
    fractional_bandwidth: float
    max_fractional_bandwidth: float
    max_antennas: int | None


class DesignOutcome(_Record):
    """Either a codebook or an infeasibility report."""

    codebook: Codebook | None = None
    infeasibility: Infeasibility | None = None

    def __post_init__(self) -> None:
        if (self.codebook is None) == (self.infeasibility is None):
            raise ValueError("exactly one of codebook / infeasibility must be set")

    @property
    def feasible(self) -> bool:
        return self.codebook is not None

    @property
    def size(self) -> int:
        if self.codebook is None:
            raise ValueError(f"design is infeasible: {self.infeasibility.reason}")
        return self.codebook.size


def _check_psi_m(psi_m: float) -> float:
    if not (math.isfinite(psi_m) and 0.0 < psi_m <= 1.0):
        raise ValueError(f"psi_m must lie in (0, 1], got {psi_m!r}")
    return float(psi_m)


def min_size_no_squint(n_antennas: int, psi_m: float) -> int:
    """Beams needed to tile [-psi_m, psi_m] with constant-width beams:
    ceil(2*psi_m / (1.772/N))."""
    width = half_power_beamwidth(n_antennas)
    return int(math.ceil(2.0 * _check_psi_m(psi_m) / width - _EDGE_TOL))


def max_fractional_bandwidth(n_antennas: int, psi_m: float) -> float:
    """Largest usable fractional bandwidth, 1.772/(psi_m * N).

    Designs are feasible strictly below this value: at the bound the edge
    beam's effective width collapses to zero and the codebook size diverges.
    """
    return half_power_beamwidth(n_antennas) / _check_psi_m(psi_m)


def max_antennas(band: BandSpec, psi_m: float) -> int | None:
    """Largest usable array size, floor(1.772/(psi_m*b)); None when b = 0
    (no bound)."""
    _check_psi_m(psi_m)
    b = band.fractional_bandwidth
    if b == 0.0:
        return None
    return int(math.floor(HALF_POWER_CONSTANT / (psi_m * b) + _EDGE_TOL))


def design_no_squint(n_antennas: int, psi_m: float) -> Codebook:
    """Tile [-psi_m, psi_m] with abutting constant-width beams, symmetric
    about broadside.

    Odd count: one beam at broadside plus pairs at +-k*width. Even count:
    pairs at +-(k - 1/2)*width. Exactly ``min_size_no_squint`` beams; the
    outermost coverage may overshoot psi_m.
    """
    n = _check_n(n_antennas)
    psi_m = _check_psi_m(psi_m)
    band = BandSpec(0.0)
    return Codebook(_foci(n, band, psi_m), psi_m, band, n, GainThreshold())


def _tile_right_half(n: int, band: BandSpec, psi_m: float, odd: bool) -> tuple[float, ...] | None:
    """Abutting squinted beams rightward from broadside, mirrored.

    Returns the ascending foci or None if the tiling stalls (the in-loop
    guard; unreachable once the bound precheck has passed, kept as a
    defense against float collapse right at the bound).
    """
    positive: list[float] = []
    half, b = 0.5 * half_power_beamwidth(n), band.fractional_bandwidth
    # the odd procedure seeds a beam at broadside, the even one an edge
    psi_cr = half / (1.0 + 0.5 * b) if odd else 0.0
    while psi_cr < psi_m - _EDGE_TOL:
        # focus_from_left_edge(psi_cl), then squinted_coverage(psi0).hi by the
        # same float operations: psi_cl >= 0, so the right edge psi0 + half > 0
        psi_cl = psi_cr
        psi0 = (1.0 - 0.5 * b) * psi_cl + half
        psi_cr = (psi0 + half) / (1.0 + 0.5 * b)
        if psi_cl >= psi_cr:
            return None
        positive.append(psi0)
    return tuple([-f for f in reversed(positive)] + ([0.0] if odd else []) + positive)


def _foci(n: int, band: BandSpec, psi_m: float) -> tuple[float, ...] | None:
    """The ascending, mirror-symmetric foci of the minimum codebook (one at
    broadside when their count is odd), or None when no codebook exists.
    The only place that decides a codebook's foci; raises ValueError on an
    invalid n or psi_m."""
    b = band.fractional_bandwidth
    if b == 0.0:
        size, width = min_size_no_squint(n, psi_m), half_power_beamwidth(n)
        return tuple((i - (size - 1) / 2) * width for i in range(size))
    if b >= max_fractional_bandwidth(n, psi_m):
        return None
    tilings = [_tile_right_half(n, band, psi_m, odd) for odd in (True, False)]
    return None if None in tilings else min(tilings, key=len)


def _plan(n: int, band: BandSpec, psi_m: float) -> tuple[float, ...] | Infeasibility:
    """:func:`_foci`, or the Infeasibility that rules the design out."""
    foci = _foci(n, band, psi_m)
    if foci is not None:
        return foci
    b, bound = band.fractional_bandwidth, max_fractional_bandwidth(n, psi_m)
    reason = (
        f"fractional bandwidth {b:.6f} is not below the bound {bound:.6f} = 1.772/(psi_m*N) for N={n}, psi_m={psi_m:g}"
        if b >= bound  # else the tiling stalled right at the bound
        else f"beam tiling stalled before reaching psi_m={psi_m:g} (fractional bandwidth {b:.6f} at the feasibility bound {bound:.6f})"
    )
    return Infeasibility(reason, n, psi_m, b, bound, max_antennas(band, psi_m))


def design_with_squint(n_antennas: int, band: BandSpec, psi_m: float) -> DesignOutcome:
    """Squint-compensated minimum codebook: run the odd procedure (seed
    beam at broadside) and the even procedure (seed edge at broadside),
    mirror each, keep the smaller.

    Infeasible when b >= 1.772/(psi_m*N); the report carries the bound
    values. Without squint (b = 0) this is :func:`design_no_squint`.
    """
    n = _check_n(n_antennas)
    psi_m = _check_psi_m(psi_m)
    plan = _plan(n, band, psi_m)
    if isinstance(plan, Infeasibility):
        return DesignOutcome(infeasibility=plan)
    return DesignOutcome(codebook=Codebook(plan, psi_m, band, n, GainThreshold()))


__all__ = _public(globals())
