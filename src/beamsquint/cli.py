"""Command-line front end.

Subcommands: ``pattern`` (gain dumps per frequency), ``design`` (codebook
JSON), ``verify`` (brute-force certification of a codebook file),
``sweep-b`` / ``sweep-n`` (size-vs-parameter tables), ``bounds``
(feasibility limits). All outputs are machine-readable; exit codes:
0 ok/pass, 2 invalid config or malformed input, 3 infeasible design,
4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .array_model import _GAIN_CHUNK, ArrayGeometry, array_gain_sum, fine_beam_weights, psi_from_theta
from .codebook import Codebook, CodebookFormatError, design_with_squint, max_antennas, max_fractional_bandwidth
from .squint import _MAX_GRID_POINTS, BandSpec, GainThreshold
from .verification import _to_db, sweep_size_vs_b, sweep_size_vs_n, verify_codebook

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_INFEASIBLE = 3
_EXIT_VERIFY_FAIL = 4


def _output(out: str | None):  # the --out file opened for writing, or stdout
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out: str | None) -> None:
    with _output(out) as stream:
        stream.write(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _EXIT_CONFIG


def _band_from_args(args, required: bool = True) -> BandSpec | None:
    has_b = args.fractional_bandwidth is not None
    has_fc = getattr(args, "carrier_ghz", None) is not None
    has_bw = getattr(args, "bandwidth_ghz", None) is not None
    if has_b and (has_fc or has_bw):
        raise ValueError("give either --fractional-bandwidth or --carrier-ghz with --bandwidth-ghz, not both")
    if has_b:  # NaN and inf fail the range too
        if not 0 <= args.fractional_bandwidth < 2:
            raise ValueError(f"--fractional-bandwidth must satisfy 0 <= b < 2, got {args.fractional_bandwidth}")
        return BandSpec(args.fractional_bandwidth)
    if has_fc != has_bw:
        raise ValueError("--carrier-ghz and --bandwidth-ghz must be given together")
    if has_fc:
        # in GHz, before BandSpec.from_carrier quotes Hz; NaN fails every comparison, and GHz that overflow in Hz are infinite
        if not (0 < args.carrier_ghz * 1e9 < math.inf and 0 <= args.bandwidth_ghz * 1e9 < math.inf):
            raise ValueError(f"need finite --carrier-ghz > 0 and --bandwidth-ghz >= 0, got {args.carrier_ghz} and {args.bandwidth_ghz}")
        if not args.bandwidth_ghz * 1e9 / (args.carrier_ghz * 1e9) < 2:  # the b that BandSpec.from_carrier computes, in Hz
            raise ValueError(f"--bandwidth-ghz over --carrier-ghz must be below 2, got {args.bandwidth_ghz} over {args.carrier_ghz}")
        return BandSpec.from_carrier(args.carrier_ghz * 1e9, args.bandwidth_ghz * 1e9)
    if required:
        raise ValueError("band is required: either --fractional-bandwidth or --carrier-ghz with --bandwidth-ghz")
    return None


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{flag} expects numbers, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} must not be empty")
    return values


# ---------------------------------------------------------------- pattern


# one pattern row as json.dumps(rows, indent=2) writes it
_JSON_ROW = '  {\n    "psi": %r,\n    "theta_deg": %r,\n    "xi": %r,\n    "gain_abs": %r,\n    "gain_db": %r\n  }'


def _cmd_pattern(args) -> int:
    import numpy as np
    geom = ArrayGeometry(args.antennas, args.spacing_ratio)
    if (args.psi0 is None) == (args.theta0_deg is None):
        raise ValueError("give exactly one of --psi0 or --theta0-deg")
    try:
        psi0 = args.psi0 if args.psi0 is not None else psi_from_theta(math.radians(args.theta0_deg))
    except ValueError:  # the library's message gives the angle in radians
        raise ValueError(f"--theta0-deg must lie in [-90, 90], got {args.theta0_deg!r}") from None
    if not abs(psi0) <= 1.0:  # also rejects NaN
        raise ValueError(f"--psi0 must lie in [-1, 1], got {psi0!r}")

    if args.xi is not None and args.freq_ghz is not None:
        raise ValueError("give either --xi or --freq-ghz, not both")
    if args.xi is not None:
        xis = args.xi
    elif args.freq_ghz is not None:
        # also rejects a NaN carrier
        if args.carrier_ghz is None or not args.carrier_ghz > 0:
            raise ValueError(f"--freq-ghz requires a positive --carrier-ghz, got {args.carrier_ghz}")
        xis = [f / args.carrier_ghz for f in args.freq_ghz]
    else:
        raise ValueError("give a frequency list via --xi or --freq-ghz")
    # also rejects NaN; a step up to 1 leaves at least 3 grid points
    if not (0 < args.psi_step <= 1 and 2.0 / args.psi_step <= _MAX_GRID_POINTS - 1):
        raise ValueError(f"--psi-step must lie in (0, 1] (at most {_MAX_GRID_POINTS} points), got {args.psi_step}")

    # rounded so that decimal steps land on exact decimal grid points
    grid = np.round(np.linspace(-1.0, 1.0, int(round(2.0 / args.psi_step)) + 1), 12)
    weights = fine_beam_weights(geom, psi0)
    thetas = [math.degrees(math.asin(psi)) for psi in grid.tolist()]
    for xi in xis:  # its checks at the grid's widest angle, before the first byte: rows are written as they are made
        array_gain_sum(weights, geom, 1.0, xi)
    # %r writes a float as json.dumps and str do; the first rows go out after the header
    row, sep, prefix, tail = ("%r,%r,%r,%r,%r", "\n", "psi,theta_deg,xi,gain_abs,gain_db\n", "\n") if args.format == "csv" else (_JSON_ROW, ",\n", "[\n", "\n]\n")
    with _output(args.out) as stream:
        for xi in xis:
            mags = np.abs(array_gain_sum(weights, geom, grid, xi))
            for lo in range(0, len(grid), _GAIN_CHUNK):  # so the rows held as text are one chunk's
                hi = lo + _GAIN_CHUNK
                rows = zip(grid[lo:hi].tolist(), thetas[lo:hi], mags[lo:hi].tolist())
                stream.write(prefix + sep.join([row % (psi, theta, xi, m, _to_db(m)) for psi, theta, m in rows]))
                prefix = sep
        stream.write(tail)
    return _EXIT_OK


# ----------------------------------------------------------------- design


def _cmd_design(args) -> int:
    band = _band_from_args(args)
    outcome = design_with_squint(args.antennas, band, args.psi_max)
    if not outcome.feasible:
        print(f"codebook does not exist: {outcome.infeasibility.reason}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    book = outcome.codebook

    _emit(book.to_json(), args.out)
    print(
        f"designed codebook: size={book.size} parity={book.parity} "
        f"b={book.band.fractional_bandwidth:.6f} N={book.n_antennas} "
        f"psi_m={book.psi_m:g}",
        file=sys.stderr,
    )
    return _EXIT_OK


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    try:
        with open(args.codebook) as stream:  # the locale's encoding, as Path.read_text
            text = stream.read()
    except OSError as exc:
        raise ValueError(f"cannot read codebook file: {exc}") from exc
    try:
        book = Codebook.from_json(text)
    except CodebookFormatError as exc:
        raise ValueError(f"malformed codebook: {exc}") from exc

    if args.threshold_db is not None:
        book = Codebook(book.foci, book.psi_m, book.band, book.n_antennas, GainThreshold.from_db(args.threshold_db))
    report = verify_codebook(book, psi_step=args.psi_step, xi_points=args.xi_points, slack_db=args.slack_db)
    _emit(report.to_json(), args.out)
    print(
        f"verification {'pass' if report.passed else 'FAIL'}: "
        f"worst_gain_db={report.worst_gain_db:.4f} at psi={report.worst_psi:g} "
        f"xi={report.worst_xi:g}, gaps={len(report.gaps)}",
        file=sys.stderr,
    )
    return _EXIT_OK if report.passed else _EXIT_VERIFY_FAIL


# ----------------------------------------------------------------- sweeps


def _check_table(series: int, values: int) -> None:
    """Refuses, before it is built, a sweep table of more than _MAX_GRID_POINTS points."""
    if series * values > _MAX_GRID_POINTS:
        raise ValueError(f"a sweep table holds at most {_MAX_GRID_POINTS} points, got {series} series x {values} values")


def _b_grid_from_args(args) -> list[float]:
    if args.b_list is not None:
        if args.b_min is not None or args.b_max is not None:
            raise ValueError("give either --b-list or --b-min/--b-max/--b-points, not both")
        grid = _parse_float_list(args.b_list, "--b-list")
        _check_table(len(args.antennas), len(grid))
        return grid
    if args.b_min is None or args.b_max is None:
        raise ValueError("give a bandwidth grid via --b-list or --b-min/--b-max/--b-points")
    if args.b_points < 2:
        raise ValueError(f"--b-points must be >= 2, got {args.b_points}")
    # also rejects NaN and an infinite --b-max, which linspace would turn into NaN
    if not 0.0 <= args.b_min <= args.b_max < math.inf:
        raise ValueError(f"need 0 <= --b-min <= --b-max < inf, got {args.b_min} and {args.b_max}")
    _check_table(len(args.antennas), args.b_points)
    return _linspace(args.b_min, args.b_max, args.b_points)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for num >= 2, bit for bit:
    numpy's rule, including its zero-step branch for subnormal steps."""
    div, delta = num - 1, stop - start
    step = delta / div
    grid = [i / div * delta + start if step == 0 else i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def _cmd_sweep_b(args) -> int:
    grid = _b_grid_from_args(args)
    table = sweep_size_vs_b(args.antennas, grid, args.psi_max)
    _emit(table.to_csv() if args.format == "csv" else json.dumps(table.to_dict(), indent=2) + "\n", args.out)
    return _EXIT_OK


def _cmd_sweep_n(args) -> int:
    b_values = _parse_float_list(args.b_list, "--b-list")
    if args.n_min < 2 or args.n_max < args.n_min or args.n_step < 1:
        raise ValueError("need 2 <= --n-min <= --n-max and --n-step >= 1")
    _check_table(len(b_values), (args.n_max - args.n_min) // args.n_step + 1)
    n_values = list(range(args.n_min, args.n_max + 1, args.n_step))
    table = sweep_size_vs_n(b_values, n_values, args.psi_max)
    _emit(table.to_csv() if args.format == "csv" else json.dumps(table.to_dict(), indent=2) + "\n", args.out)
    return _EXIT_OK


# ----------------------------------------------------------------- bounds


def _cmd_bounds(args) -> int:
    band = _band_from_args(args, required=False)
    bound = max_fractional_bandwidth(args.antennas, args.psi_max)
    doc = {
        "n_antennas": args.antennas,
        "psi_m": args.psi_max,
        "max_fractional_bandwidth": None if math.isinf(bound) else bound,  # JSON has no infinity
        "fractional_bandwidth": None if band is None else band.fractional_bandwidth,
        "max_antennas": None if band is None else max_antennas(band, args.psi_max),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return _EXIT_OK


# ------------------------------------------------------------ parser setup


def _add_out(parser, default_format: str | None = None) -> None:
    parser.add_argument("--out", help="output file (default: stdout)")
    if default_format:  # design, verify and bounds write JSON only and have no --format
        parser.add_argument("--format", choices=["csv", "json"], default=default_format, help="output format")


def _add_band(parser) -> None:
    parser.add_argument("--fractional-bandwidth", type=float, help="b = B/f_c, dimensionless")
    parser.add_argument("--carrier-ghz", type=float, help="carrier frequency in GHz")
    parser.add_argument("--bandwidth-ghz", type=float, help="baseband bandwidth in GHz")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: <message>`` line, exit 2."""

    def error(self, message):
        self.exit(_EXIT_CONFIG, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsquint", description="Design and certify ULA analog-beamforming codebooks under wideband beam squint.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="dump gain patterns for a fine beam at several frequencies")
    p.add_argument("--antennas", type=int, required=True)
    p.add_argument("--spacing-ratio", type=float, default=0.5)
    p.add_argument("--psi0", type=float, help="focus angle as psi = sin(theta)")
    p.add_argument("--theta0-deg", type=float, help="focus angle in degrees")
    p.add_argument("--xi", type=float, nargs="+", help="frequency ratios f/f_c")
    p.add_argument("--freq-ghz", type=float, nargs="+", help="absolute frequencies in GHz")
    p.add_argument("--carrier-ghz", type=float, help="carrier frequency in GHz (for --freq-ghz)")
    p.add_argument("--psi-step", type=float, default=1e-3)
    _add_out(p, "csv")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("design", help="design a minimum-size codebook and write it as JSON")
    p.add_argument("--antennas", type=int, required=True)
    _add_band(p)
    p.add_argument("--psi-max", type=float, default=1.0, help="target coverage [-psi_max, psi_max]")
    _add_out(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("verify", help="brute-force certify a codebook JSON file")
    p.add_argument("--codebook", required=True, help="codebook JSON file to check")
    p.add_argument("--psi-step", type=float, default=1e-4)
    p.add_argument("--xi-points", type=int, default=65, help="subcarriers on which worst_xi is read; gains are over the continuous band")
    p.add_argument("--slack-db", type=float, default=0.2)
    p.add_argument("--threshold-db", type=float, default=None, help="override the file's threshold")
    _add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep-b", help="minimum size vs fractional bandwidth")
    p.add_argument("--antennas", type=int, nargs="+", required=True, help="one series per N")
    p.add_argument("--b-list", help="comma- or space-separated b values")
    p.add_argument("--b-min", type=float)
    p.add_argument("--b-max", type=float)
    p.add_argument("--b-points", type=int, default=25)
    p.add_argument("--psi-max", type=float, default=1.0)
    _add_out(p, "csv")
    p.set_defaults(func=_cmd_sweep_b)

    p = sub.add_parser("sweep-n", help="minimum size vs number of antennas")
    p.add_argument("--b-list", required=True, help="comma- or space-separated b values, one series each")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--psi-max", type=float, default=1.0)
    _add_out(p, "csv")
    p.set_defaults(func=_cmd_sweep_n)

    p = sub.add_parser("bounds", help="feasibility limits from the bandwidth/antenna bound")
    p.add_argument("--antennas", type=int, required=True)
    _add_band(p)
    p.add_argument("--psi-max", type=float, default=1.0)
    _add_out(p)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
