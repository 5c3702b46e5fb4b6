"""Uniform linear array model.

Steering vectors, fine-beam phase shifts, the array gain by direct
summation, and the closed-form Dirichlet-style gain kernel for
half-wavelength element spacing. All functions are pure and safe to call
concurrently. numpy is imported inside the functions that build arrays,
so importing this module does not load it.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

# |sin(pi*r/2)| below this is the kernel's one removable singularity, r = 0.
_SINGULARITY_TOL = 1e-12

# Values per chunk (kernel values, band-edge values of a pair batch, or phases),
# at least one carrier angle's worth; bounds the size of every temporary.
_GAIN_CHUNK = 1 << 14

# Slack for "psi must be a sine" range checks, absorbs round trips through
# sin/arcsin.
_PSI_TOL = 1e-12


def _public(namespace: dict) -> list[str]:
    """A module's ``__all__``: the public names that it defines itself."""
    return [k for k, v in namespace.items() if not k.startswith("_") and getattr(v, "__module__", None) == namespace["__name__"]]


class _Fields(type):
    """The records' metaclass: a record's fields are its class's own annotations,
    in order, held in ``__slots__``, with class attributes as defaults."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", {}))
        defaults = {f: ns.pop(f) for f in fields if f in ns}  # a slot admits no class attribute of its name
        check, size, store = ns.get("__post_init__"), len(fields), object.__setattr__

        def __init__(self, /, *args, **kwargs) -> None:
            if kwargs or len(args) != size:
                # bound as inspect.Signature.bind binds the fields, with its TypeError
                # for an argument repeated, too many, missing or unknown, in that order
                given, rest = {**defaults, **kwargs}, fields[len(args) :]
                if not kwargs.keys().isdisjoint(fields[: len(args)]):
                    raise TypeError(f"{name}() multiple values for argument {next(f for f in fields[: len(args)] if f in kwargs)!r}")
                if len(args) > size:
                    raise TypeError(f"{name}() too many positional arguments")
                if missing := [f for f in rest if f not in given]:
                    raise TypeError(f"{name}() missing a required argument: {missing[0]!r}")
                if not kwargs.keys() <= set(fields):
                    raise TypeError(f"{name}() got an unexpected keyword argument {next(k for k in kwargs if k not in fields)!r}")
                args = [*args, *(given[f] for f in rest)]
            for f, value in zip(fields, args):
                store(self, f, value)
            if check is not None:
                check(self)

        return super().__new__(mcls, name, bases, {**ns, "__slots__": fields, "_fields": fields, "__init__": __init__})


class _Record(metaclass=_Fields):
    """Base of the frozen records, without generated code. As a frozen
    dataclass, a record is built by position, keyword or default, runs its
    ``__post_init__`` once built, equals only its own type, hashes and prints
    by its fields, pickles, and refuses assignment and deletion."""

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return self._asdict() == other._asdict() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._asdict().items())})"

    def __reduce__(self):  # by position: a slotted record takes no state by assignment
        return type(self), tuple(self._asdict().values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class ArrayGeometry(_Record):
    """ULA with ``n_antennas`` identical isotropic elements spaced
    ``spacing_ratio`` carrier wavelengths apart.

    The summation-form gain accepts any positive spacing; the closed-form
    kernel and everything built on it (beamwidths, codebook design) are
    derived for half-wavelength spacing only.
    """

    n_antennas: int
    spacing_ratio: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_antennas", _check_n(self.n_antennas))
        d = self.spacing_ratio
        if not (math.isfinite(d) and d > 0):
            raise ValueError(f"spacing_ratio must be positive and finite, got {d!r}")

    @property
    def max_gain(self) -> float:
        """Peak voltage gain sqrt(N), attained by a matched fine beam."""
        return math.sqrt(self.n_antennas)


def _check_n(n_antennas: int) -> int:
    try:  # the range first, so that int() meets no infinity, NaN or non-number
        if 2 <= n_antennas < math.inf and n_antennas == int(n_antennas):
            return int(n_antennas)
    except TypeError:  # None or a string: no order with 2
        pass
    raise ValueError(f"n_antennas must be an integer >= 2, got {n_antennas!r}")


def _check_psi(psi: float) -> None:
    # also rejects NaN, which fails every comparison
    if not abs(psi) <= 1.0 + _PSI_TOL:
        raise ValueError(f"psi must be a sine value in [-1, 1], got {psi!r}")


def _check_xi(xi: float) -> None:
    if not (math.isfinite(xi) and xi > 0):
        raise ValueError(f"frequency ratio xi must be positive, got {xi!r}")


def steering_vector(geom: ArrayGeometry, psi: float, xi: float = 1.0) -> np.ndarray:
    """Frequency-scaled ULA response phasors for sine-angle ``psi``: element
    ``n`` (1-based) has phase ``2*pi*xi*spacing_ratio*(n-1)*psi``, with ``xi``
    the evaluated frequency over the carrier. These are the phases
    ``fine_beam_weights(geom, xi*psi)``, as a fine beam's weights are the
    steering phases of its focus; a phase that overflows raises ValueError.
    """
    import numpy as np
    _check_psi(psi)
    _check_xi(xi)
    return np.exp(1j * fine_beam_weights(geom, xi * psi))


def fine_beam_weights(geom: ArrayGeometry, psi0: float) -> np.ndarray:
    """Phase-shifter settings focusing the beam on ``psi0`` at the carrier.

    With these phases the gain magnitude reaches sqrt(N) at ``(psi = psi0,
    xi = 1)``. Phases come back unreduced (not wrapped to ``[0, 2*pi)``).
    No range check on ``psi0``: the outermost beams of a squint-compensated
    codebook can have a nominal focus marginally outside the visible region,
    where the phases stay well-defined; a phase that overflows raises ValueError.
    """
    import numpy as np
    return np.array(_fine_phases(geom, psi0))


def _fine_phases(geom: ArrayGeometry, psi0: float) -> list[float]:
    """:func:`fine_beam_weights` as a list, without numpy: element k's phase
    is ``2*pi*spacing_ratio*psi0`` times k, the IEEE multiply that numpy's
    array product makes (so -0.0 at k = 0 for a negative focus)."""
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    step = 2.0 * math.pi * geom.spacing_ratio * psi0
    if not math.isfinite(step * (geom.n_antennas - 1)):  # the largest phase
        raise ValueError(f"the phase 2*pi*spacing_ratio*(N-1)*psi0 overflows at spacing_ratio={geom.spacing_ratio!r}, psi0={psi0!r}, N={geom.n_antennas}")
    return [step * k for k in range(geom.n_antennas)]


def array_gain_sum(weights: np.ndarray, geom: ArrayGeometry, psi, xi: float = 1.0):
    """Array gain by direct summation over elements.

    Returns ``(1/sqrt(N)) * sum_n exp(j*(2*pi*xi*spacing_ratio*(n-1)*psi
    - beta_n))``. Valid for arbitrary spacing and arbitrary weights, not
    only fine beams. Scalar ``psi`` in, complex out; an ndarray of angles
    in, a complex ndarray of the same shape out. An ``xi`` at which that
    phase overflows raises ValueError.
    """
    import numpy as np
    w = np.asarray(weights, dtype=float)
    if w.shape != (geom.n_antennas,):
        raise ValueError(f"weights must have shape ({geom.n_antennas},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite phases in radians")
    angles, k = np.asarray(psi, dtype=float), np.arange(geom.n_antennas)
    top = abs(float(angles)) if angles.ndim == 0 else float(np.abs(angles).max(initial=0.0))
    _check_psi(top)  # NaN propagates
    _check_xi(xi)
    scale = 2.0 * math.pi * xi * geom.spacing_ratio if top else 0.0  # at psi = 0 every phase is 0, not inf*0
    if not math.isfinite(scale * (top * (geom.n_antennas - 1))):  # the largest phase
        raise ValueError(f"frequency ratio xi = {xi!r} overflows the phase 2*pi*xi*spacing_ratio*(N-1)*psi at N={geom.n_antennas}")
    if angles.ndim == 0:  # one angle: the loop's float operations on its one row, without its set-up
        phase = scale * (float(angles) * k) - w
        return complex((np.exp(1j * phase).sum(keepdims=True) / math.sqrt(geom.n_antennas))[0])
    flat = angles.reshape(-1)
    total = np.empty(len(flat), dtype=complex)
    rows = max(1, _GAIN_CHUNK // geom.n_antennas)  # the angle x element phases of a chunk
    for i in range(0, len(flat), rows):
        phase = scale * np.multiply.outer(flat[i : i + rows], k) - w
        total[i : i + rows] = np.exp(1j * phase).sum(axis=-1) / math.sqrt(geom.n_antennas)
    return total.reshape(angles.shape)


def _kernel_factor(x: np.ndarray, n: int) -> np.ndarray:
    """The real factor ``sin(N*pi*r/2) / (sqrt(N)*sin(pi*r/2))`` of the
    kernel at ``r = x - 2*rint(x/2)``, x modulo its period 2 in [-1, 1], as
    a fresh array for an ndarray ``x`` of at least one dimension; the one
    removable singularity, r = 0, returns its limit sqrt(N)."""
    import numpy as np
    half = 0.5 * x
    half -= np.rint(half)  # r/2, in place and exact (Sterbenz's lemma); x/2 where |x| <= 1
    half *= math.pi
    ratio = n * half
    np.sin(ratio, out=ratio)
    den = np.sin(half, out=half)
    near = np.abs(den) < _SINGULARITY_TOL
    any_near = np.count_nonzero(near)
    if any_near:
        den[near] = 1.0
    ratio /= den
    sqrt_n = math.sqrt(n)
    ratio /= sqrt_n
    if any_near:
        ratio[near] = sqrt_n
    return ratio


def _kernel_factor_at(x: float, n: int) -> float:
    """:func:`_kernel_factor` of one float, by its float operations, with math.remainder
    for the reduction and math.sin for numpy's sin; infinite x gives NaN, as numpy's."""
    half = math.pi * math.remainder(0.5 * x, 1.0) if math.isfinite(x) else math.nan
    den = math.sin(half)
    if abs(den) < _SINGULARITY_TOL:
        return math.sqrt(n)
    return math.sin(n * half) / den / math.sqrt(n)


def gain_kernel(x, n_antennas: int):
    """Closed-form fine-beam gain ``g(x)`` for half-wavelength spacing.

    ``g(x) = sin(N*pi*r/2) / (sqrt(N)*sin(pi*r/2)) * exp(j*(N-1)*pi*r/2)``,
    g's period 2 taken once: ``r = x - 2*rint(x/2)``, exact, in [-1, 1]. At
    every lobe peak x = 2k, r = 0 and g is exactly ``sqrt(N) + 0j``. The fine
    beam focused on ``psi0`` has gain ``g(xi*psi_c - psi0)``.

    Accepts a scalar or an ndarray; returns complex of matching shape.
    """
    import numpy as np
    n = _check_n(n_antennas)
    one = np.ndim(x) == 0  # one value takes the one-float factor, without the array set-up
    x = float(x) if one else np.asarray(x, dtype=float)
    phase = np.exp(1j * (n - 1) * (0.5 * math.pi * (x - 2.0 * np.rint(0.5 * x))))
    return complex(_kernel_factor_at(x, n) * phase) if one else _kernel_factor(x, n) * phase


def gain_kernel_magnitude(x, n_antennas: int):
    """|g(x)| without the phase factor; the hot path for grid sweeps.

    Same singularity handling as :func:`gain_kernel`. Scalar in, float out;
    ndarray in, ndarray out.
    """
    import numpy as np
    n = _check_n(n_antennas)
    mag = _kernel_factor(np.atleast_1d(np.asarray(x, dtype=float)), n)
    np.abs(mag, out=mag)
    return float(mag[0]) if np.ndim(x) == 0 else mag


def worst_subcarrier_gain(psi, psi0s, band, n_antennas: int):
    """The best beam's gain at its worst frequency, per carrier angle:
    ``max over psi0s of min over the band of |g(xi*psi - psi0)|``, the band
    being the continuous range ``[band.xi_min, band.xi_max]`` of a
    ``BandSpec``; each pair's min is :func:`_band_min`. Scalar ``psi`` in,
    float out; ndarray in, ndarray of the same shape out. Every angle and
    focus must be finite, and there must be at least one focus.

    A window cascade: round by round, h = 1/N, 2/N, 4/N, ..., 1, each beam
    meets the angles whose ``x = psi - psi0`` at the carrier (xi = 1, inside
    every band) lies within h of a lobe image 2k, in three windows on the
    angles sorted by ``psi`` modulo 2.
    Outside them ``|g(x)| <= 1/(sqrt(N)*|sin(pi*x/2)|) <= E(h) =
    1/(sqrt(N)*sin(pi*h/2))``, which bounds the beam's min over the band; so
    an angle whose best beats E(h) is final, and only the others go on. At
    h = 1 every beam is in a window. The kernel is element-wise and max/min
    are exact, so no bit moves.
    """
    import numpy as np
    n = _check_n(n_antennas)
    angles, offsets = np.asarray(psi, dtype=float), np.asarray(psi0s, dtype=float)
    flat, offsets = angles.reshape(-1), offsets.reshape(-1)
    for name, values in (("psi", flat), ("psi0s", offsets)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {float(values[~np.isfinite(values)][0])!r}")
    if not offsets.size:  # the best of no beams would be -inf
        raise ValueError("psi0s must hold at least one focus, got none")
    phase = flat - 2.0 * np.rint(0.5 * flat)  # x + psi0 at the carrier, modulo 2 into [-1, 1]
    # Windows are padded by 1e-12, far above the rounding of their edges, all
    # in [-4, 4], so they overlap at h = 1; phases and foci taken modulo 2
    # are exact. The floor's relative 1e-9 on E(h) covers the rest at a
    # window's edge: x is off by a few ulps of |x| <= reach (the kernel takes
    # it modulo 2 exactly), which at h >= 1/N from 2k moves |g| by a relative
    # few ulps times reach*N, under 2e-10 while reach*N <= 1e5; beyond, h starts at 1.
    top = max(-flat.min(initial=0.0), flat.max(initial=0.0))
    h = 1.0 / n if n * (top + np.abs(offsets).max(initial=0.0)) <= 1e5 else 1.0
    order = slice(None) if (phase[1:] >= phase[:-1]).all() else np.argsort(phase, kind="stable")
    phase, flat = phase[order], flat[order]
    beams, centre = np.repeat(np.arange(offsets.size), 3), ((offsets - 2.0 * np.rint(0.5 * offsets))[:, None] + [-2.0, 0.0, 2.0]).reshape(-1)
    best, todo = np.full(flat.size, -math.inf), slice(None)  # the first round on every angle, in place
    while len(part := best[todo]):
        lo, hi = np.searchsorted(phase[todo], [centre - (h + 1e-12), centre + (h + 1e-12)])
        _raise_to_window_mins(flat[todo], offsets, band, n, lo, hi, beams, part)
        best[todo] = part
        floor = (1.0 + 1e-9) / (math.sqrt(n) * math.sin(0.5 * math.pi * h)) if h < 1 else -math.inf
        todo, h = np.flatnonzero(best < floor), min(2 * h, 1.0)
    best[order] = best  # back in input order; numpy copies the overlapping right-hand side
    return float(best[0]) if angles.ndim == 0 else best.reshape(angles.shape)


def _raise_to_window_mins(angles, offsets, band, n, lo, hi, beams, best):
    """Raise ``best[r]`` to :func:`_band_min` of each pair ``(angles[r],
    offsets[beams[w]])``, ``lo[w] <= r < hi[w]``, one batch per block of
    angles of at most ``_GAIN_CHUNK`` band-edge values: memory is bounded at
    any number of angles and overlap."""
    import numpy as np
    # the most windows over one angle: an end 2*hi sorts before a start 2*lo+1 at one index
    overlap = np.cumsum(np.sort(np.concatenate([2 * lo + 1, 2 * hi])) % 2 * 2 - 1).max(initial=1)
    block = max(1, _GAIN_CHUNK // (overlap * 2))
    for a in range(0, len(angles), block):
        start = np.maximum(lo, a)
        length = np.maximum(np.minimum(hi, a + block) - start, 0)
        rows = _runs(start - a, length)
        mins = _band_min(angles[a : a + block][rows], offsets[np.repeat(beams, length)], band, n)
        np.maximum.at(best[a : a + block], rows, mins)


def _runs(start, length):
    """The runs ``start[i] + arange(length[i])``, concatenated."""
    import numpy as np
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())


def _band_min(psi, psi0, band, n):
    """The min over the ``BandSpec``'s continuous band ``[xi_min, xi_max]`` of
    ``|g(xi*psi - psi0)|``, element-wise over broadcast ``psi`` and ``psi0``, from
    one kernel call on the two band-edge offsets. Scalars in, float out; a float
    pair (np.float64 too) takes :func:`_kernel_factor_at` and builds no array.

    The lobe rule: a pair whose two band-edge offsets have a null ``2j/N``
    (j not a multiple of N) in ``(lo, hi]`` between them crosses it inside
    the band, and takes 0. Any other pair takes its band-edge min: between
    two nulls ``|g|`` rises once and falls once (a peak 2k lies inside such
    a lobe), so the exact min is at an edge. Where a subcarrier in between
    computes a few ulps below both edges (bands of about 1e-6 or less), the
    edge min stays the exact-arithmetic one, above that sampled value.
    """
    lo, hi = psi * band.xi_min - psi0, psi * band.xi_max - psi0
    if isinstance(lo, float) and abs(lo) + abs(hi) < 2.0**52 / n:  # the array path's float operations; under 2**53 the int floors subtract as its float floors do
        same = math.floor((0.5 * n) * lo) - math.floor(0.5 * lo) == math.floor((0.5 * n) * hi) - math.floor(0.5 * hi)
        return min(abs(_kernel_factor_at(lo, n)), abs(_kernel_factor_at(hi, n))) if same else 0.0
    import numpy as np
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x = np.concatenate((lo.reshape(-1), hi.reshape(-1)))
    g, m = gain_kernel_magnitude(x, n), lo.size
    lobe = np.floor((0.5 * n) * x) - np.floor(0.5 * x)  # nulls up to x, less the peaks 2k
    mins = np.where(lobe[:m] != lobe[m:], 0.0, np.minimum(g[:m], g[m:]))
    return float(mins[0]) if lo.ndim == 0 else mins.reshape(lo.shape)


def _cell_screen(grid, psi0s, band, cutoff):
    """At least ``flatnonzero(reach >= R)`` on the ascending 1-D ``grid``, from offsets
    at O(foci) angles: the reach ``max(|psi*xi_min - p|, |psi*xi_max - p|)`` of the focus
    ``p`` nearest at the carrier (as in :func:`_band_min`), ``R = cutoff(a)``, ``a`` an
    angle of largest reach. Each focus owns a run of the grid, its cell. Rounded products
    by xi > 0 and differences are monotone: in a cell reach falls, then rises (it peaks at
    a cell end), below R on the angles above both (p - R)/xi and below both (p + R)/xi.
    The cuts take R less 1e-12*(1 + |p|), beyond the rounding of a cut and of the offsets
    next to it (a few ulps of |p| + 2): every angle left out has reach < R, and every
    extra angle kept has reach within that margin of R."""
    import numpy as np
    foci, size = np.sort(psi0s), len(grid)
    stops = np.searchsorted(grid, 0.5 * (foci[1:] + foci[:-1]), side="right")
    starts, stops = np.concatenate(([0], stops)), np.concatenate((stops, [size]))
    ends = np.stack([starts, stops - 1], axis=1)[starts < stops]  # each cell's first and last index
    at, p = grid[ends], foci[starts < stops, None]
    level = cutoff(float(at.reshape(-1)[np.argmax(np.maximum(np.abs(at * band.xi_min - p), np.abs(at * band.xi_max - p)))]))
    level = level - 1e-12 * (1.0 + np.abs(foci))  # per focus, the stated margin under R
    below, above = (np.divide.outer(foci + s * level, [band.xi_min, band.xi_max]) for s in (-1.0, 1.0))
    cut = [np.searchsorted(grid, below.max(axis=1), side="right"), np.searchsorted(grid, above.min(axis=1), side="left")]
    a, b = np.clip(cut, starts, stops)  # per cell, [a, b) is left out; B before A leaves out none
    keep = np.concatenate(([0], np.maximum(a, b)))  # the kept runs [0, a_0), [b_0, a_1), ..., [b_last, size)
    return _runs(keep, np.concatenate((a, [size])) - keep)


def equivalent_aoa(theta_c: float, xi: float) -> float:
    """Apparent arrival angle at frequency ratio ``xi`` for carrier AoA
    ``theta_c`` (radians): ``arcsin(xi * sin(theta_c))``.

    Raises ValueError when ``|xi*sin(theta_c)| > 1``: the squinted signal
    aliases outside the visible region and the caller decides whether to
    clamp.
    """
    _check_xi(xi)
    s = xi * math.sin(theta_c)
    if abs(s) > 1.0:
        raise ValueError(f"equivalent AoA undefined: xi*sin(theta_c) = {s:.6f} is outside [-1, 1]")
    return math.asin(s)


def psi_from_theta(theta: float) -> float:
    """Map a physical angle (radians, measured from broadside) to psi = sin(theta)."""
    if not math.isfinite(theta) or abs(theta) > 0.5 * math.pi + _PSI_TOL:
        raise ValueError(f"theta must lie in [-pi/2, pi/2], got {theta!r}")
    return math.sin(theta)


def theta_from_psi(psi: float) -> float:
    """Inverse of :func:`psi_from_theta`; exact round trip up to float tolerance."""
    _check_psi(psi)
    return math.asin(min(1.0, max(-1.0, psi)))


__all__ = _public(globals())
