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

# |sin(pi x / 2)| below this is treated as a removable singularity of the
# closed-form kernel (the points x = 2k, where naive division is unstable).
_SINGULARITY_TOL = 1e-12

# Values per chunk (kernel values, probe values of a pair batch, or phases),
# at least one carrier angle's worth; bounds the size of every temporary.
_GAIN_CHUNK = 1 << 14

# Band-edge screen margin of worst_subcarrier_gain, in units of sqrt(N);
# absolute, as a relative one is too loose next to the first null.
_SCREEN_TOL = 1e-9

# Slack for "psi must be a sine" range checks, absorbs round trips through
# sin/arcsin.
_PSI_TOL = 1e-12


def _public(namespace: dict) -> list[str]:
    """A module's ``__all__``: the public names that it defines itself."""
    return [k for k, v in namespace.items() if not k.startswith("_") and getattr(v, "__module__", None) == namespace["__name__"]]


class _Record:
    """Base of the frozen records, without generated code: the fields are the
    class's own annotations, in order, with class attributes as defaults. As
    a frozen dataclass, a record runs its ``__post_init__`` once built, equals
    only its own type, hashes and prints by its fields, pickles, and refuses
    assignment and deletion."""

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(vars(cls).get("__annotations__", {}))
        check, size, store = vars(cls).get("__post_init__"), len(fields), object.__setattr__
        defaults = tuple(vars(cls)[f] for f in fields if f in vars(cls))  # of the trailing fields, as in a signature

        def __init__(self, *args, **kwargs) -> None:
            if kwargs or not size - len(defaults) <= len(args) <= size:
                args = self._bind(args, kwargs)
            elif len(args) < size:
                args += defaults[len(args) - size :]
            for name, value in zip(fields, args):
                store(self, name, value)
            if check is not None:
                check(self)

        if "__init__" not in vars(cls):  # a record built in bulk may spell its own out
            cls.__init__ = __init__

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The fields' values from a call with keywords or defaults, bound as
        a signature binds them: TypeError for an argument too many, unknown,
        repeated or missing."""
        from inspect import Parameter, Signature  # loaded already, by dataclasses

        defaults, kind = vars(type(self)), Parameter.POSITIONAL_OR_KEYWORD
        params = [Parameter(f, kind, default=defaults.get(f, Parameter.empty)) for f in self._fields]
        try:
            bound = Signature(params).bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{type(self).__name__}() {exc}") from None
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return self._asdict() == other._asdict() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._asdict().items())})"

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
        _check_n(self.n_antennas)
        d = self.spacing_ratio
        if not (math.isfinite(d) and d > 0):
            raise ValueError(f"spacing_ratio must be positive and finite, got {d!r}")

    @property
    def max_gain(self) -> float:
        """Peak voltage gain sqrt(N), attained by a matched fine beam."""
        return math.sqrt(self.n_antennas)


def _check_n(n_antennas: int) -> int:
    if n_antennas != int(n_antennas) or int(n_antennas) < 2:
        raise ValueError(f"n_antennas must be an integer >= 2, got {n_antennas!r}")
    return int(n_antennas)


def _check_psi(psi: float) -> None:
    # also rejects NaN, which fails every comparison
    if not abs(psi) <= 1.0 + _PSI_TOL:
        raise ValueError(f"psi must be a sine value in [-1, 1], got {psi!r}")


def _check_xi(xi: float) -> None:
    if not (math.isfinite(xi) and xi > 0):
        raise ValueError(f"frequency ratio xi must be positive, got {xi!r}")


def steering_vector(geom: ArrayGeometry, psi: float, xi: float = 1.0) -> np.ndarray:
    """Frequency-scaled ULA response phasors for sine-angle ``psi``.

    Element ``n`` (1-based) is the unit-magnitude phasor with phase
    ``2*pi*xi*spacing_ratio*(n-1)*psi``, wavelength referenced to the
    carrier; ``xi`` is the evaluated frequency divided by the carrier.
    """
    import numpy as np
    _check_psi(psi)
    _check_xi(xi)
    k = np.arange(geom.n_antennas)
    return np.exp(2j * math.pi * xi * geom.spacing_ratio * psi * k)


def fine_beam_weights(geom: ArrayGeometry, psi0: float) -> np.ndarray:
    """Phase-shifter settings focusing the beam on ``psi0`` at the carrier.

    With these phases the gain magnitude reaches sqrt(N) at
    ``(psi  = psi0, xi = 1)``. Phases come back unreduced (not wrapped to
    ``[0, 2*pi)``). No range check on ``psi0``: the outermost beams of a
    squint-compensated codebook can have a nominal focus marginally outside
    the visible region, and the phase recipe stays well-defined there.
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
    return [step * k for k in range(geom.n_antennas)]


def array_gain_sum(weights: np.ndarray, geom: ArrayGeometry, psi, xi: float = 1.0):
    """Array gain by direct summation over elements.

    Returns ``(1/sqrt(N)) * sum_n exp(j*(2*pi*xi*spacing_ratio*(n-1)*psi
    - beta_n))``. Valid for arbitrary spacing and arbitrary weights, not
    only fine beams. Scalar ``psi`` in, complex out; an ndarray of angles
    in, a complex ndarray of the same shape out.
    """
    import numpy as np
    w = np.asarray(weights, dtype=float)
    if w.shape != (geom.n_antennas,):
        raise ValueError(f"weights must have shape ({geom.n_antennas},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite phases in radians")
    angles, k = np.asarray(psi, dtype=float), np.arange(geom.n_antennas)
    _check_psi(abs(float(angles)) if angles.ndim == 0 else float(np.abs(angles).max(initial=0.0)))  # NaN propagates
    _check_xi(xi)
    if angles.ndim == 0:  # one angle: the loop's float operations on its one row, without its set-up
        phase = 2.0 * math.pi * xi * geom.spacing_ratio * (float(angles) * k) - w
        return complex((np.exp(1j * phase).sum(keepdims=True) / math.sqrt(geom.n_antennas))[0])
    flat = angles.reshape(-1)
    total = np.empty(len(flat), dtype=complex)
    rows = max(1, _GAIN_CHUNK // geom.n_antennas)  # the angle x element phases of a chunk
    for i in range(0, len(flat), rows):
        phase = 2.0 * math.pi * xi * geom.spacing_ratio * np.multiply.outer(flat[i : i + rows], k) - w
        total[i : i + rows] = np.exp(1j * phase).sum(axis=-1) / math.sqrt(geom.n_antennas)
    return total.reshape(angles.shape)


def _kernel_factor(x: np.ndarray, n: int) -> np.ndarray:
    """The real factor ``sin(N*pi*x/2) / (sqrt(N)*sin(pi*x/2))`` of the
    kernel, as a fresh array for an ndarray ``x`` of at least one
    dimension; the removable singularities at ``x = 2k`` return their
    limit instead of dividing by ~0."""
    import numpy as np
    half = 0.5 * math.pi * x
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
        # limit of sin(N pi x/2)/sin(pi x/2) at x = 2k is N*(-1)^(k(N-1))
        k = np.rint(0.5 * x[near])
        ratio[near] = (1.0 - 2.0 * np.mod(k * (n - 1), 2.0)) * sqrt_n
    return ratio


def _kernel_factor_at(x: float, n: int) -> float:
    """:func:`_kernel_factor` of one float, by the same float operations
    (and numpy's sin, which may round unlike math.sin)."""
    import numpy as np
    half = 0.5 * math.pi * x
    den = float(np.sin(half))
    if abs(den) < _SINGULARITY_TOL:
        return (1.0 - 2.0 * (float(round(0.5 * x)) * (n - 1) % 2.0)) * math.sqrt(n)
    return float(np.sin(n * half)) / den / math.sqrt(n)


def gain_kernel(x, n_antennas: int):
    """Closed-form fine-beam gain ``g(x)`` for half-wavelength spacing.

    ``g(x) = sin(N*pi*x/2) / (sqrt(N)*sin(pi*x/2)) * exp(j*(N-1)*pi*x/2)``,
    evaluated so that the removable singularities at ``x = 2k`` return the
    analytic limit (magnitude sqrt(N)) instead of dividing by ~0. The fine
    beam focused on ``psi0`` has gain ``g(xi*psi_c - psi0)``.

    Accepts a scalar or an ndarray; returns complex of matching shape.
    """
    import numpy as np
    n = _check_n(n_antennas)
    if np.ndim(x) == 0:  # one value, without the array set-up
        return complex(_kernel_factor_at(float(x), n) * np.exp(1j * (n - 1) * (0.5 * math.pi * float(x))))
    arr = np.asarray(x, dtype=float)
    return _kernel_factor(arr, n) * np.exp(1j * (n - 1) * (0.5 * math.pi * arr))


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


def worst_subcarrier_gain(psi, psi0s, xis, n_antennas: int):
    """The best beam's gain at its worst subcarrier, per carrier angle:
    ``max over psi0s of min over xis of |g(xi*psi - psi0)|`` for ascending
    ``xis``, bit for bit, every beam's window being all of ``psi``. Scalar
    ``psi`` in, float out; ndarray in, ndarray of the same shape out."""
    import numpy as np
    angles, offsets = np.asarray(psi, dtype=float), np.asarray(psi0s, dtype=float).reshape(-1)
    flat, beams, best = angles.reshape(-1), np.arange(offsets.size), np.full(angles.size, -math.inf)
    whole = np.zeros_like(beams), np.full_like(beams, len(flat)), beams  # every beam on every angle
    _raise_to_window_mins(flat, offsets, np.asarray(xis, dtype=float), n_antennas, *whole, best, -math.inf)
    return float(best[0]) if angles.ndim == 0 else best.reshape(angles.shape)


def _raise_to_window_mins(angles, offsets, xis, n, lo, hi, beams, best, floor):
    """:func:`_raise_to_pair_mins` on the pairs ``(r, beams[w])``, ``lo[w] <=
    r < hi[w]``, one batch per block of angles of at most ``_GAIN_CHUNK``
    probe values: memory is bounded at any number of angles and overlap."""
    import numpy as np
    # the most windows over one angle: an end 2*hi sorts before a start 2*lo+1 at one index
    edges = np.sort(np.concatenate([2 * lo + 1, 2 * hi]))
    overlap = np.cumsum(edges % 2 * 2 - 1).max(initial=1)
    block = max(1, _GAIN_CHUNK // (overlap * min(len(xis), 4)))
    for a in range(0, len(angles), block):
        start = np.maximum(lo, a)
        length = np.maximum(np.minimum(hi, a + block) - start, 0)
        pairs = _ranges(start - a, length), np.repeat(beams, length)  # rows within the block
        _raise_to_pair_mins(angles[a : a + block], offsets, xis, n, *pairs, best[a : a + block], floor)


def _ranges(starts, lengths):
    """``concatenate([arange(s, s + m) for s, m in zip(starts, lengths)])``."""
    import numpy as np
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _raise_to_pair_mins(angles, offsets, xis, n, rows, beams, best, floor):
    """Raise ``best[r]`` to the min over ``xis`` of ``|g(xi*angles[r] -
    offsets[b])|`` for each pair ``(r, b)`` of ``(rows, beams)``, wherever
    that min can exceed ``max(best[r], floor)``.

    With five or more subcarriers each pair is first probed at
    ``xis[[0, 1, -2, -1]]``. Its band-edge min ``U`` is two of its values,
    so at least its min, and it *is* its min when both edge offsets lie in
    the main lobe ``|x| < 2/N`` and both neighbours exceed ``U`` by
    ``_SCREEN_TOL*sqrt(N)``:

    - the computed ``x_j = xi_j*psi - psi0`` are weakly monotone in j, as
      rounding is monotone, so all lie between the two edge offsets;
    - on the main lobe ``|g|`` is even and decreasing in ``|x|``, so
      unimodal along j, and the exact interior min is at j = 1 or j = -2;
    - the kernel's absolute error there, about ``1e-15*sqrt(N)``, is far
      below the margin, so every computed interior value exceeds ``U``.

    The screened mins go into ``best`` first. The unscreened pairs go to
    every subcarrier while their ``U`` exceeds the bar ``max(best[r],
    floor)``, which rises as they go: each angle's largest ``U`` first,
    then the rest. A skipped pair's min is at most ``U``, so at most the
    bar, and every max keeps its bits.
    """
    import numpy as np
    probe = [0, 1, -2, -1] if len(xis) >= 5 else slice(None)
    x = angles[rows, None] * xis[probe] - offsets[beams, None]  # pairs x probe
    g = gain_kernel_magnitude(x, n)
    if len(xis) < 5:  # every subcarrier is probed, and that is the whole min
        np.maximum.at(best, rows, g.min(axis=1))
        return
    upper = np.minimum(g[:, 0], g[:, 3])
    screened = np.all(np.abs(x[:, [0, 3]]) < 2.0 / n, axis=1)
    screened &= np.minimum(g[:, 1], g[:, 2]) - upper >= _SCREEN_TOL * math.sqrt(n)
    np.maximum.at(best, rows[screened], upper[screened])
    todo, peak = np.flatnonzero(~screened), np.full(len(angles), -math.inf)
    np.maximum.at(peak, rows[todo], upper[todo])  # each angle's largest U
    top = upper[todo] == peak[rows[todo]]
    step = max(1, _GAIN_CHUNK // len(xis))
    for group in (todo[top], todo[~top]):
        while len(group := group[upper[group] > np.maximum(best[rows[group]], floor)]):
            r, b = rows[group[:step]], beams[group[:step]]
            np.maximum.at(best, r, gain_kernel_magnitude(angles[r, None] * xis - offsets[b, None], n).min(axis=1))
            group = group[step:]


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
        raise ValueError(
            f"equivalent AoA undefined: xi*sin(theta_c) = {s:.6f} is outside [-1, 1]"
        )
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
