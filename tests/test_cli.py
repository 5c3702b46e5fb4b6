import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamsquint import cli
from beamsquint.cli import _linspace, build_parser, main
from beamsquint.codebook import Codebook, design_no_squint, design_with_squint, max_fractional_bandwidth
from beamsquint.squint import _MAX_GRID_POINTS, BandSpec, GainThreshold
from beamsquint.verification import sweep_size_vs_b, verify_codebook


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [r.split(",") for r in rows if not r.startswith("#")]


class TestDesignCommand:
    def test_73ghz_band_design(self, tmp_path, capsys):
        out = tmp_path / "cb.json"
        code = run_cli(
            "design", "--antennas", "16", "--carrier-ghz", "73",
            "--bandwidth-ghz", "2.5", "--psi-max", "1.0", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["size"] == 22
        assert doc["parity"] == "even"
        assert doc["fractional_bandwidth"] == 2.5 / 73
        assert doc["n_antennas"] == 16
        assert len(doc["beams"]) == 22
        assert len(doc["beams"][0]["phases_rad"]) == 16
        summary = capsys.readouterr().err
        assert "size=22" in summary
        assert "0.034247" in summary  # b to six decimals

    def test_zero_bandwidth_uses_plain_tiling(self, tmp_path):
        out = tmp_path / "cb.json"
        assert run_cli(
            "design", "--antennas", "16", "--fractional-bandwidth", "0", "--out", str(out)
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["size"] == 19
        assert doc["fractional_bandwidth"] == 0.0

    def test_infeasible_exits_3_citing_bound(self, capsys):
        code = run_cli("design", "--antennas", "16", "--fractional-bandwidth", "0.2")
        assert code == 3
        err = capsys.readouterr().err
        assert "0.110750" in err
        assert "does not exist" in err

    def test_infeasible_message_is_the_library_reason(self, capsys):
        code = run_cli("design", "--antennas", "64", "--fractional-bandwidth", "0.0342")
        assert code == 3
        reason = design_with_squint(64, BandSpec(0.0342), 1.0).infeasibility.reason
        assert capsys.readouterr() == ("", f"codebook does not exist: {reason}\n")

    def test_stalled_tiling_is_not_reported_as_beyond_the_bound(self, capsys):
        b = 8.859999999999999e-05  # just below the bound 1.772/20000
        assert b < max_fractional_bandwidth(20000, 1.0)
        assert run_cli("design", "--antennas", "20000", "--fractional-bandwidth", repr(b)) == 3
        err = capsys.readouterr().err
        assert err.startswith("codebook does not exist: beam tiling stalled")
        assert ">= bound" not in err

    def test_band_required(self, capsys):
        assert run_cli("design", "--antennas", "16") == 2
        capsys.readouterr()
        # a carrier without a bandwidth, and band flags out of range: the error
        # names the flags and quotes GHz (the library's Hz message read
        # -1000000000.0, and an infinite carrier or a b of -1 named the
        # library's value or field, not the flag)
        need = "need finite --carrier-ghz > 0 and --bandwidth-ghz >= 0, got"
        for band, message in (
            (("--carrier-ghz", "73"), "--carrier-ghz and --bandwidth-ghz must be given together"),
            (("--carrier-ghz", "73", "--bandwidth-ghz", "-1"), f"{need} 73.0 and -1.0"),
            (("--carrier-ghz", "nan", "--bandwidth-ghz", "2.5"), f"{need} nan and 2.5"),
            (("--carrier-ghz", "73", "--bandwidth-ghz", "nan"), f"{need} 73.0 and nan"),
            (("--carrier-ghz", "inf", "--bandwidth-ghz", "2.5"), f"{need} inf and 2.5"),
            (("--carrier-ghz", "73", "--bandwidth-ghz", "inf"), f"{need} 73.0 and inf"),
            (("--carrier-ghz", "1e300", "--bandwidth-ghz", "2.5"), f"{need} 1e+300 and 2.5"),  # infinite in Hz
            # a ratio of 2 or more, in Hz as BandSpec.from_carrier divides (the library's
            # message named fractional_bandwidth; the second ratio is 1.00001e+20 in Hz)
            (("--carrier-ghz", "1", "--bandwidth-ghz", "5"), "--bandwidth-ghz over --carrier-ghz must be below 2, got 5.0 over 1.0"),
            (("--carrier-ghz", "1e-320", "--bandwidth-ghz", "1e-300"), "--bandwidth-ghz over --carrier-ghz must be below 2, got 1e-300 over 1e-320"),
            (("--carrier-ghz", "1", "--bandwidth-ghz", "2"), "--bandwidth-ghz over --carrier-ghz must be below 2, got 2.0 over 1.0"),
            (("--fractional-bandwidth", "-1"), "--fractional-bandwidth must satisfy 0 <= b < 2, got -1.0"),
            (("--fractional-bandwidth", "2"), "--fractional-bandwidth must satisfy 0 <= b < 2, got 2.0"),
            (("--fractional-bandwidth", "inf"), "--fractional-bandwidth must satisfy 0 <= b < 2, got inf"),
            (("--fractional-bandwidth", "nan"), "--fractional-bandwidth must satisfy 0 <= b < 2, got nan"),
        ):
            for command in ("design", "bounds"):
                assert run_cli(command, "--antennas", "16", *band) == 2
                assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_phase_table_is_capped(self, capsys):
        # every other grid and table holds at most 2**22 points; at b = 0 that admits N up to 1,927
        assert run_cli("design", "--antennas", "2048", "--fractional-bandwidth", "0", "--out", os.devnull) == 2
        assert capsys.readouterr() == ("", f"error: a codebook's phase table holds at most {_MAX_GRID_POINTS} phases, got 2312 beams x 2048 antennas\n")
        # refused before any of its 112,866,818 foci is built
        assert run_cli("design", "--antennas", str(10**8), "--fractional-bandwidth", "0", "--out", os.devnull) == 2
        assert capsys.readouterr() == ("", f"error: a design holds at most {_MAX_GRID_POINTS} beams, got at least 112866818 for N=100000000\n")

    def test_band_overdetermined(self):
        assert run_cli(
            "design", "--antennas", "16", "--fractional-bandwidth", "0.03",
            "--carrier-ghz", "73", "--bandwidth-ghz", "2.5",
        ) == 2

    def test_nonhalf_spacing_rejected(self):
        assert run_cli(
            "design", "--antennas", "16", "--fractional-bandwidth", "0.03",
            "--spacing-ratio", "0.7",
        ) == 2

    def test_custom_threshold_rejected(self):
        assert run_cli(
            "design", "--antennas", "16", "--fractional-bandwidth", "0.03",
            "--threshold-db", "2.0",
        ) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("design", "--antennas", "16", "--fractional-bandwidth", "0.0342")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    @pytest.fixture()
    def codebook_path(self, tmp_path):
        out = tmp_path / "cb.json"
        assert run_cli(
            "design", "--antennas", "16", "--fractional-bandwidth", "0.0342",
            "--out", str(out),
        ) == 0
        return out

    def test_round_trip_passes(self, codebook_path, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "verify", "--codebook", str(codebook_path), "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["gaps"] == []
        assert report["worst_gain_db"] >= -3.2

    def test_threshold_override_reaches_the_report(self, codebook_path, tmp_path):
        # the report is verify_codebook's on the file's codebook at the given threshold
        report_path = tmp_path / "report.json"
        assert run_cli("verify", "--codebook", str(codebook_path), "--threshold-db", "2", "--out", str(report_path)) == 4
        book = Codebook.from_json(codebook_path.read_text())
        want = verify_codebook(Codebook(book.foci, book.psi_m, book.band, book.n_antennas, GainThreshold.from_db(2.0))).to_json()
        assert report_path.read_bytes() == want.encode()
        assert want != verify_codebook(book).to_json()

    def test_deleted_beam_fails_with_gap(self, codebook_path, tmp_path):
        doc = json.loads(codebook_path.read_text())
        del doc["beams"][11]  # first positive focus
        doc["size"] = len(doc["beams"])
        doc["parity"] = "odd"
        for i, beam in enumerate(doc["beams"]):
            beam["index"] = i
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        report_path = tmp_path / "r.json"
        code = run_cli("verify", "--codebook", str(edited), "--slack-db", "0",
                       "--out", str(report_path))
        assert code == 4
        report = json.loads(report_path.read_text())
        assert report["pass"] is False
        assert len(report["gaps"]) == 1
        gap = report["gaps"][0]
        assert gap["hi"] - gap["lo"] == pytest.approx(0.108888, abs=2e-3)

    def test_wrong_phase_count_exits_2(self, codebook_path, tmp_path, capsys):
        doc = json.loads(codebook_path.read_text())
        doc["beams"][0]["phases_rad"].append(0.0)
        edited = tmp_path / "bad.json"
        edited.write_text(json.dumps(doc))
        assert run_cli("verify", "--codebook", str(edited)) == 2
        assert "phases_rad" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("verify", "--codebook", str(tmp_path / "nope.json")) == 2

    def test_contradicting_parity_exits_2(self, tmp_path, capsys):
        doc = design_no_squint(16, 1.0).to_dict()  # 19 beams
        doc["parity"] = "even"
        edited = tmp_path / "parity.json"
        edited.write_text(json.dumps(doc))
        assert run_cli("verify", "--codebook", str(edited)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed codebook: parity")
        assert err.count("\n") == 1

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{")
        assert run_cli("verify", "--codebook", str(bad)) == 2
        assert "malformed codebook" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("lo", "-1.0"), ("index", [0]), ("index", True), ("lo", False), ("index", -7)],
    )
    def test_wrongly_typed_beam_field_exits_2(self, codebook_path, tmp_path, capsys, field, value):
        doc = json.loads(codebook_path.read_text())
        beam = doc["beams"][0]
        (beam["coverage"] if field == "lo" else beam)[field] = value
        edited = tmp_path / "typed.json"
        edited.write_text(json.dumps(doc))
        assert run_cli("verify", "--codebook", str(edited)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed codebook: beam 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "option",
        ["--psi-step=0", "--psi-step=nan", "--xi-points=1", "--slack-db=-1",
         "--slack-db=nan", "--slack-db=inf", "--threshold-db=-1e10", "--threshold-db=nan",
         # a step too fine for the grid-size cap, refused before any grid is built
         "--psi-step=5", "--psi-step=1e-300", "--psi-step=5e-324", f"--psi-step={2 / 2**22!r}",
         # more subcarriers than one kernel block holds
         "--xi-points=16385", "--xi-points=100000"],
    )
    def test_out_of_range_option_exits_2(self, codebook_path, capsys, option):
        capsys.readouterr()  # drop the fixture's design summary
        assert run_cli("verify", "--codebook", str(codebook_path), option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("slack", ["nan", "inf"])
    def test_non_finite_slack_does_not_certify(self, tmp_path, capsys, slack):
        # the narrowband N=16 codebook fails under squint at the default slack
        book = dataclasses.replace(design_no_squint(16, 1.0), band=BandSpec(0.0342))
        path = tmp_path / "narrowband.json"
        path.write_text(book.to_json())
        assert run_cli("verify", "--codebook", str(path), "--psi-step", "1e-3") == 4
        capsys.readouterr()
        assert run_cli("verify", "--codebook", str(path), "--slack-db", slack) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: slack_db must be finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("db", ["6153.2", "6400", "7000", "1e300"])
    def test_threshold_whose_amplitude_is_subnormal_exits_2_in_db(self, codebook_path, capsys, db):
        # 10^(-dB/20) is subnormal from about 6,153 dB and 0 from about 6,472
        # dB: the error names the dB, where 6400 wrote threshold_db -6400.00009669896
        assert run_cli("verify", "--codebook", str(codebook_path), "--threshold-db", db) == 2
        message = f"threshold dB must be finite, >= 0 and at most about 6153, where 10^(-dB/20) is a normal float, got {float(db)!r}"
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestPatternCommand:
    def test_fig2_reproduction(self, tmp_path):
        out = tmp_path / "pattern.csv"
        code = run_cli(
            "pattern", "--antennas", "16", "--theta0-deg", "30",
            "--carrier-ghz", "73", "--freq-ghz", "65.7", "73", "80.2",
            "--out", str(out),
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == "psi,theta_deg,xi,gain_abs,gain_db"
        by_xi = {}
        for psi, theta, xi, gain, _db in rows:
            by_xi.setdefault(float(xi), []).append((float(psi), float(gain)))
        assert set(round(x, 9) for x in by_xi) == {0.9, 1.0, round(80.2 / 73, 9)}
        # carrier curve peaks at exactly sqrt(16) on the focus angle
        carrier = dict(by_xi[1.0])
        assert carrier[0.5] == 4.0
        for xi, curve in by_xi.items():
            gains = dict(curve)
            if xi != 1.0:
                assert gains[0.5] < 4.0
            # peak shifts to psi0/xi
            peak_psi = max(curve, key=lambda t: t[1])[0]
            assert abs(peak_psi - 0.5 / xi) <= 1e-3 + 1e-12

    def test_grid_step_determinism(self, tmp_path):
        coarse, fine = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("pattern", "--antennas", "16", "--psi0", "0.5", "--xi", "1.0")
        assert run_cli(*base, "--psi-step", "1e-3", "--out", str(coarse)) == 0
        assert run_cli(*base, "--psi-step", "1e-4", "--out", str(fine)) == 0
        _, coarse_rows = read_csv(coarse)
        _, fine_rows = read_csv(fine)
        fine_map = {r[0]: r for r in fine_rows}
        shared = [r for r in coarse_rows if r[0] in fine_map]
        assert len(shared) == len(coarse_rows)
        for row in shared:
            assert fine_map[row[0]] == row

    def test_focus_required_and_unique(self, capsys):
        assert run_cli("pattern", "--antennas", "16", "--xi", "1.0") == 2
        assert run_cli(
            "pattern", "--antennas", "16", "--psi0", "0", "--theta0-deg", "0",
            "--xi", "1.0",
        ) == 2
        capsys.readouterr()
        assert run_cli("pattern", "--antennas", "16", "--psi0", "2", "--xi", "1.0") == 2
        assert capsys.readouterr() == ("", "error: --psi0 must lie in [-1, 1], got 2.0\n")

    @pytest.mark.parametrize("theta", ["150", "-91", "90.0000001", "inf", "nan"])
    def test_focus_angle_outside_the_visible_range_exits_2(self, capsys, theta):
        # the library's range check on theta, with its 1e-12 slack: 150 used
        # to run as 30 degrees, and inf to fail with "math domain error";
        # the error names the option and the degrees given, not radians
        assert run_cli("pattern", "--antennas", "8", f"--theta0-deg={theta}", "--xi", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --theta0-deg must lie in [-90, 90], got {float(theta)!r}\n"
        for edge in ("90", "-90"):
            assert run_cli("pattern", "--antennas", "8", f"--theta0-deg={edge}", "--xi", "1", "--psi-step", "0.5") == 0

    def test_frequencies_required(self, capsys):
        assert run_cli("pattern", "--antennas", "16", "--psi0", "0.5") == 2
        assert run_cli(
            "pattern", "--antennas", "16", "--psi0", "0.5",
            "--freq-ghz", "73",  # missing --carrier-ghz
        ) == 2
        capsys.readouterr()
        assert run_cli("pattern", "--antennas", "16", "--psi0", "0.5", "--xi", "1", "--freq-ghz", "73", "--carrier-ghz", "73") == 2
        assert capsys.readouterr() == ("", "error: give either --xi or --freq-ghz, not both\n")

    @pytest.mark.parametrize(
        "options",
        # a step above 1 leaves fewer than 3 points on [-1, 1], one below
        # 2/(2**22 - 1) more than the grid-size cap; a carrier of 0 would
        # divide by zero; a focus outside [-1, 1] read "focus angle psi0"
        [["--xi", "1", "--psi-step", step] for step in ("inf", "nan", "1.5", "3", "1e-300", "5e-324")]
        + [["--freq-ghz", "73", "--carrier-ghz", fc] for fc in ("0", "-73", "nan")]
        + [["--xi", "1", "--psi0", psi0] for psi0 in ("2", "-1.5", "inf", "nan")],
        ids=lambda options: "=".join(options[-2:]),
    )
    def test_out_of_range_option_exits_2(self, capsys, options):
        assert run_cli("pattern", "--antennas", "8", "--psi0", "0", *options) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert options[-2] in captured.err  # names the option
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "fmt, options, message",
        [
            # the phase at xi = 1e308 overflows: the rows of xi = 1 were written,
            # then gain_abs nan (not strict JSON) with a numpy RuntimeWarning
            *[(fmt, ("--psi0", "0", "--xi", "1", "1e308"), "error: frequency ratio xi = 1e+308 overflows") for fmt in ("csv", "json")],
            # the fine beam's phase step overflows: the error named no option
            # ("weights must be finite phases in radians")
            *[(fmt, ("--spacing-ratio", "1e308", "--psi0", "0.5", "--xi", "1"), "error: the phase 2*pi*spacing_ratio*(N-1)*psi0 overflows at spacing_ratio=1e+308") for fmt in ("csv", "json")],
        ],
        ids=["csv", "json", "spacing-ratio-csv", "spacing-ratio-json"],
    )
    def test_overflowing_phase_exits_2_before_the_first_byte(self, capsys, fmt, options, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("pattern", "--antennas", "8", *options, "--format", fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    def test_psi0_zero_at_a_huge_xi_keeps_exit_2_and_the_golden_bytes(self, capsys):
        # array_gain_sum now takes psi = 0 at any xi, but `pattern` checks
        # the xi at psi = 1, so `--psi0 0 --xi 1e308` still exits 2 (above);
        # the phase law keeps its bits: the SHA-256 of the golden command
        assert run_cli("pattern", "--antennas", "16", "--psi0", "0", "--xi", "1e308", "--psi-step", "0.5") == 2
        assert capsys.readouterr().err.startswith("error: frequency ratio xi = 1e+308 overflows")
        assert run_cli("pattern", "--antennas", "16", "--theta0-deg", "30", "--carrier-ghz", "73", "--freq-ghz", "71.75", "73", "74.25") == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (469051, "73c2c125502c690d11017740e1ae7cb2f1ab00c8c7cb1b472d27646d2c7c23f2")

    def test_general_spacing_uses_summation_form(self, tmp_path):
        out = tmp_path / "pattern.csv"
        assert run_cli(
            "pattern", "--antennas", "8", "--spacing-ratio", "0.7",
            "--psi0", "0.25", "--xi", "1.0", "--psi-step", "0.25",
            "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        gains = {float(r[0]): float(r[3]) for r in rows}
        assert gains[0.25] == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_json_format(self, tmp_path):
        out = tmp_path / "pattern.json"
        assert run_cli(
            "pattern", "--antennas", "4", "--psi0", "0", "--xi", "1.0",
            "--psi-step", "0.5", "--format", "json", "--out", str(out),
        ) == 0
        rows = json.loads(out.read_text())
        assert {r["psi"] for r in rows} == {-1.0, -0.5, 0.0, 0.5, 1.0}
        peak = next(r for r in rows if r["psi"] == 0.0)
        assert peak["gain_abs"] == 2.0
        assert peak["gain_db"] == pytest.approx(20 * math.log10(2), abs=1e-12)

    def test_memory_is_a_few_times_the_output(self, tmp_path):
        # with a dict per grid point and subcarrier the peak was 8 to 9 times the output
        out = tmp_path / "pattern"
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                assert run_cli(
                    "pattern", "--antennas", "8", "--psi0", "0", "--xi", "0.98", "1", "1.02",
                    "--psi-step", "2e-4", "--format", fmt, "--out", str(out),
                ) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * out.stat().st_size, fmt

    def test_fine_grid_memory_peak(self):
        # 200,001 angles: array_gain_sum sums the angle x element phases in
        # chunks and the rows are made and written 16,384 at a time, so the
        # CSV peak is about 14.5 MB for 14 MB of output, mostly the grid and
        # its angles in degrees (63 MB when the whole text was held twice,
        # 79 MB also with the whole phase matrix)
        tracemalloc.start()
        try:
            assert run_cli(
                "pattern", "--antennas", "8", "--psi0", "0", "--xi", "1",
                "--psi-step", "1e-5", "--out", os.devnull,
            ) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestSweepCommands:
    def test_sweep_b_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep-b", "--antennas", "16", "--b-list", "0,0.0342,0.12",
            "--out", str(out),
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == "axis,value_or_status,bound"
        assert rows[0] == ["0.0", "19", "0.11075"]
        assert rows[1] == ["0.0342", "22", "0.11075"]
        assert rows[2] == ["0.12", "INFEASIBLE", "0.11075"]

    def test_sweep_b_all_infeasible(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep-b", "--antennas", "16", "--b-list", "0.12,0.15,0.2",
            "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert all(r[1] == "INFEASIBLE" for r in rows)

    def test_sweep_n_last_feasible(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep-n", "--b-list", "0.0714", "--n-min", "20", "--n-max", "28",
            "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        feasible = [float(r[0]) for r in rows if r[1] != "INFEASIBLE"]
        assert max(feasible) == 24.0
        assert all(r[2] == "24.0" for r in rows)

    def test_sweep_n_multi_series(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep-n", "--b-list", "0.0179,0.0342,0.0360,0.0714",
            "--n-min", "32", "--n-max", "32", "--out", str(out),
        ) == 0
        text = out.read_text()
        assert "# series: b=0.0179" in text
        assert "# series: b=0.0714" in text
        _, rows = read_csv(out)
        assert rows[1] == ["32.0", "57", "51.0"]  # b=0.0342 row

    def test_sweep_n_json_is_strict_for_unbounded_series(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli(
            "sweep-n", "--b-list", "0,0.0714", "--n-min", "20", "--n-max", "21",
            "--format", "json", "--out", str(out),
        ) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        unbounded, bounded = doc["series"]
        assert [p["bound"] for p in unbounded["points"]] == [None, None]
        assert [p["bound"] for p in bounded["points"]] == [24.0, 24.0]

    def test_sweep_n_bound_beyond_the_float_range(self, capsys):
        # floor(1.772/b) at b = 1e-320 overflowed, a traceback with exit 1
        assert run_cli("sweep-n", "--b-list", "1e-320,0", "--n-min", "8", "--n-max", "9", "--format", "json") == 0
        tiny, zero = json.loads(capsys.readouterr().out)["series"]
        assert [p["bound"] for p in tiny["points"]] == [None, None]
        assert [p["size"] for p in tiny["points"]] == [p["size"] for p in zero["points"]] == [10, 11]

    def test_tiny_psi_max_takes_one_beam(self, capsys):
        # psi_m under the tiling tolerance gave size 0, and design exit 2
        assert run_cli("sweep-n", "--b-list", "0,0.1", "--n-min", "8", "--n-max", "8", "--psi-max", "1e-13") == 0
        _, *rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[1] for row in rows if not row.startswith("#")] == ["1", "1"]
        assert run_cli("design", "--antennas", "8", "--fractional-bandwidth", "0", "--psi-max", "1e-13") == 0
        assert json.loads(capsys.readouterr().out)["size"] == 1

    def test_sweep_n_csv_keeps_inf_bound(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-n", "--b-list", "0", "--n-min", "20", "--n-max", "20",
                       "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert rows == [["20.0", "23", "inf"]]

    def test_bad_grid_exits_2(self, capsys):
        assert run_cli("sweep-b", "--antennas", "16") == 2
        assert run_cli("sweep-b", "--antennas", "16", "--b-list", "abc") == 2
        assert run_cli("sweep-n", "--b-list", "0.03", "--n-min", "1") == 2
        capsys.readouterr()
        assert run_cli("sweep-b", "--antennas", "16", "--b-min", "0", "--b-max", "0.1", "--b-points", "1") == 2
        assert capsys.readouterr() == ("", "error: --b-points must be >= 2, got 1\n")

    @pytest.mark.parametrize("b_min, b_max", [("0", "inf"), ("inf", "inf"), ("0", "nan")])
    def test_non_finite_b_bound_exits_2(self, capsys, b_min, b_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("sweep-b", "--antennas", "16", "--b-min", b_min, "--b-max", b_max,
                           "--b-points", "3")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--b-max" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-b", "--antennas", "8", "--b-min", "0", "--b-max", "0.1", "--b-points", str(_MAX_GRID_POINTS + 1)),
            ("sweep-b", "--antennas", "8", "16", "--b-min", "0", "--b-max", "0.1", "--b-points", str(_MAX_GRID_POINTS // 2 + 1)),
            ("sweep-n", "--b-list", "0.01", "--n-min", "2", "--n-max", str(_MAX_GRID_POINTS + 2)),
            ("sweep-n", "--b-list", "0.01 0.02", "--n-min", "2", "--n-max", str(10**40)),
        ],
    )
    def test_table_beyond_the_cap_exits_2_before_it_is_built(self, capsys, argv):
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: a sweep table holds at most {_MAX_GRID_POINTS} points")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("sweep-b", "--antennas", "8", "16", "--b-list", "0,0.01,0.02"), 0),
            (("sweep-b", "--antennas", "8", "16", "--b-list", "0,0.01,0.02,0.03"), 2),
            (("sweep-b", "--antennas", "8", "16", "--b-min", "0", "--b-max", "0.1", "--b-points", "3"), 0),
            (("sweep-b", "--antennas", "8", "16", "--b-min", "0", "--b-max", "0.1", "--b-points", "4"), 2),
            (("sweep-n", "--b-list", "0 0.01", "--n-min", "4", "--n-max", "9", "--n-step", "2"), 0),
            (("sweep-n", "--b-list", "0 0.01", "--n-min", "4", "--n-max", "10", "--n-step", "2"), 2),
        ],
    )
    def test_table_cap_counts_series_times_values(self, monkeypatch, argv, code):
        # the patched cap also bounds a b > 0 point's beams; at psi_m = 0.25
        # N = 16 needs 5, so only the table cap decides
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 6)
        assert run_cli(*argv, "--psi-max", "0.25", "--format", "json") == code

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep-n", "--b-list", "0 1e-9", "--n-min", str(10**8), "--n-max", str(10**8)),
            ("sweep-b", "--antennas", "16", str(10**8), "--b-list", "0,1e-9"),
        ],
        ids=["sweep-n", "sweep-b"],
    )
    def test_point_beyond_the_beam_cap_exits_2_before_any_focus_is_built(self, capsys, argv):
        # N = 10**8 needs 112,866,818 beams even without squint (gigabytes of
        # foci at b = 1e-9); it is refused as design refuses it, in well
        # under a megabyte, while at b = 0 the same N builds no foci and
        # prints its size
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert capsys.readouterr() == ("", f"error: a sweep point at b > 0 holds at most {_MAX_GRID_POINTS} beams, got at least 112866818 for N=100000000\n")
        assert run_cli(*[arg.replace("0 1e-9", "0").replace("0,1e-9", "0") for arg in argv]) == 0
        assert capsys.readouterr().out.splitlines()[-1] in ("100000000.0,112866818,inf", "0.0,112866818,1.772e-08")
        # a b of 2 or more is no point: the band's own message, as at the parent
        assert run_cli(*[arg.replace("0 1e-9", "5").replace("0,1e-9", "5") for arg in argv]) == 2
        assert capsys.readouterr() == ("", "error: fractional_bandwidth must satisfy 0 <= b < 2, got 5.0\n")

    def test_beam_cap_is_designs(self, capsys):
        # design's precheck: at psi_m = 1, N = 3,716,153 needs exactly 2**22
        # beams without squint and passes (b = 0.1 is then infeasible, no
        # focus built); one antenna more is refused by design and both sweeps
        assert run_cli("sweep-b", "--antennas", "3716153", "--b-list", "0.1") == 0
        assert capsys.readouterr().out.startswith("axis,value_or_status,bound\n0.1,INFEASIBLE,")
        tail = f"holds at most {_MAX_GRID_POINTS} beams, got at least {_MAX_GRID_POINTS + 1} for N=3716154\n"
        for argv, what in (
            (("design", "--antennas", "3716154", "--fractional-bandwidth", "0.1"), "a design"),
            (("sweep-b", "--antennas", "3716154", "--b-list", "0.1"), "a sweep point at b > 0"),
            (("sweep-n", "--b-list", "0.1", "--n-min", "3716153", "--n-max", "3716154"), "a sweep point at b > 0"),
        ):
            assert run_cli(*argv) == 2
            assert capsys.readouterr() == ("", f"error: {what} {tail}")

    @pytest.mark.parametrize(
        "argv, size, sha256",
        [
            (("sweep-b", "--antennas", "8", "16", "32", "64", "128", "--b-min", "0", "--b-max", "0.2", "--b-points", "200"),
             36759, "6cfcc7589a94a3d5e7da70c82a3a02de164ab41968cb9ba9e4bb88fc97bc7ad6"),
            (("sweep-n", "--b-list", "0,0.0179,0.0342,0.0714,0.12", "--n-min", "4", "--n-max", "512"),
             50070, "e64cfec79c03dad11519cb9898629f4c3b89b02d22743fc8150eea2f1a0fa212"),
        ],
        ids=["sweep-b", "sweep-n"],
    )
    def test_golden_sweeps_keep_their_bytes(self, capsys, argv, size, sha256):
        # the benchmark's two golden sweeps (perfbench/reference/cli_golden.json)
        assert run_cli(*argv) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, sha256)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep-b", "--antennas", "16", "--b-min", "0", "--b-max", "0.1",
                "--b-points", "5")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=500, deadline=None)
    @given(
        start=st.floats(allow_nan=False, allow_infinity=False),
        stop=st.floats(allow_nan=False, allow_infinity=False),
        num=st.integers(2, 300),
    )
    @example(start=0.05, stop=0.05, num=7)  # b_min == b_max
    @example(start=-0.0, stop=-0.0, num=3)
    @example(start=0.0, stop=0.11, num=2)
    @example(start=0.0, stop=5e-324, num=3)  # the step rounds to zero
    @example(start=1e-310, stop=1.2e-310, num=9)  # a subnormal step
    def test_b_grid_is_numpy_linspace_bit_for_bit(self, start, stop, num):
        with np.errstate(over="ignore", invalid="ignore"):  # a range near the float limit
            expected = np.linspace(start, stop, num).tolist()
        # repr tells -0.0 from 0.0
        assert list(map(repr, _linspace(start, stop, num))) == list(map(repr, expected))

    def test_sweep_b_range_is_the_linspace_grid(self, capsys):
        args = ("--antennas", "8", "16", "--b-min", "1e-310", "--b-max", "0.2", "--b-points", "41")
        assert run_cli("sweep-b", *args, "--format", "json") == 0
        grid = np.linspace(1e-310, 0.2, 41).tolist()
        assert json.loads(capsys.readouterr().out) == sweep_size_vs_b([8, 16], grid).to_dict()


class TestBoundsCommand:
    def test_with_band(self, capsys):
        assert run_cli("bounds", "--antennas", "16", "--fractional-bandwidth", "0.0714") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_fractional_bandwidth"] == pytest.approx(0.110750, abs=1e-12)
        assert doc["max_antennas"] == 24

    def test_without_band(self, capsys):
        assert run_cli("bounds", "--antennas", "32") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_fractional_bandwidth"] == pytest.approx(0.055375, abs=1e-12)
        assert doc["max_antennas"] is None
        assert doc["fractional_bandwidth"] is None

    @pytest.mark.parametrize(
        "options, key",
        [
            (["--fractional-bandwidth", "1e-320"], "max_antennas"),  # was an OverflowError traceback
            (["--fractional-bandwidth", "1e-10", "--psi-max", "1e-320"], "max_antennas"),  # was a ZeroDivisionError
            (["--psi-max", "1e-320"], "max_fractional_bandwidth"),  # was "Infinity"
        ],
    )
    def test_bound_beyond_the_float_range_is_null(self, capsys, options, key):
        assert run_cli("bounds", "--antennas", "8", *options) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc[key] is None


@pytest.mark.parametrize("value", ["0", "1.5", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--antennas", "16", "--fractional-bandwidth", "0.0342"],
        ["sweep-b", "--antennas", "16", "--b-list", "0.0342"],
        ["sweep-n", "--b-list", "0.0342", "--n-min", "4", "--n-max", "8"],
        ["bounds", "--antennas", "16"],
    ],
    ids=["design", "sweep-b", "sweep-n", "bounds"],
)
def test_psi_max_out_of_range_exits_2(capsys, argv, value):
    assert run_cli(*argv, "--psi-max", value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: psi_m must lie in (0, 1]")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--antennas", "16", "--fractional-bandwidth", "0.03"],
        ["sweep-n", "--b-list", "0.03", "--n-min", "4", "--n-max", "8"],
    ],
    ids=["design", "sweep-n"],
)
def test_unwritable_out_exits_2_with_one_line(capsys, tmp_path, argv):
    # design printed its success summary before the write failed: two lines
    assert run_cli(*argv, "--out", str(tmp_path / "missing" / "out.txt")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output")
    assert captured.err.count("\n") == 1


def test_unknown_command_exits_2():
    assert run_cli("frobnicate") == 2


def test_missing_required_flag_exits_2():
    assert run_cli("design") == 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["pattern", "--antennas", "x", "--psi0", "0", "--xi", "1"],
        ["pattern", "--psi0", "0", "--xi", "1"],
        ["design", "--antennas", "16", "--fractional-bandwidth", "0.03", "--threshold-db", "3"],
        ["design", "--fractional-bandwidth", "0.03"],
        ["verify", "--codebook", "book.json", "--xi-points", "many"],
        ["verify"],
        ["sweep-b", "--antennas", "16", "--b-points"],
        ["sweep-b", "--b-list", "0.03"],
        ["sweep-n", "--b-list", "0.03", "--n-max", "1.5"],
        ["sweep-n"],
        ["bounds", "--antennas", "16", "--format", "csv"],
        ["bounds", "--fractional-bandwidth", "0.03"],
        ["design", "--antennas", "16", "--fractional-bandwidth", "0.03", "--format", "json"],
    ],
    ids=[
        "no-command", "unknown-command",
        "pattern-bad-int", "pattern-missing-required",
        "design-unknown-option", "design-missing-required",
        "verify-bad-int", "verify-missing-required",
        "sweep-b-missing-value", "sweep-b-missing-required",
        "sweep-n-bad-int", "sweep-n-missing-required",
        "bounds-bad-choice", "bounds-missing-required",
        "design-no-format-option",
    ],
)
def test_usage_error_is_one_line(capsys, argv):
    # argparse's own errors keep the one-line contract of every other exit 2
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["design", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: beamsquint design")


@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_run_freezes_the_collector_between_main_and_exit(monkeypatch, code):
    # the process entry point: teardown's collections then skip what the command loaded
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli.sys, "exit", lambda status: calls.append(("exit", status)))
    cli.run()
    assert calls == ["main", "freeze", ("exit", code)]


@pytest.mark.parametrize("argv", [["bounds", "--antennas", "16"], ["design", "--antennas", "16", "--fractional-bandwidth", "0.2"], ["frobnicate"]])
def test_main_leaves_the_collector_unfrozen(capsys, argv):
    # tests, perfbench's in-process cli and library callers run main in a live interpreter
    before = gc.get_freeze_count()
    main(argv)
    assert gc.get_freeze_count() == before


# Option values for the cli.main fuzz: malformed tokens plus a few valid
# ones, bounded so that no example asks for a large grid or array. "@good",
# "@missing" and "@dir" stand for a codebook file, a missing path and a
# directory.
_BAD = ["nan", "inf", "-1", "0", "x", ""]
_N = _BAD + ["2", "8", "64"]
_PSI_MAX = _BAD + ["1", "0.3"]
_BAND = {
    "--fractional-bandwidth": _BAD + ["0.0342", "0.5"],
    "--carrier-ghz": _BAD + ["73"],
    "--bandwidth-ghz": _BAD + ["2.5"],
}
_OUT = {"--out": ["@dir", "@out"]}
_FORMAT = {"--format": ["csv", "json", "x"]}
_OPTIONS = {
    "pattern": {
        "--antennas": _N,
        "--spacing-ratio": _BAD + ["0.5", "0.7"],
        "--psi0": _BAD + ["0.5", "1.5"],
        "--theta0-deg": _BAD + ["30"],
        "--xi": _BAD + ["1", "1.05"],
        "--freq-ghz": _BAD + ["73"],
        "--carrier-ghz": _BAD + ["73"],
        "--psi-step": _BAD + ["1e-2", "3"],
        **_FORMAT,
        **_OUT,
    },
    "design": {"--antennas": _N, **_BAND, "--psi-max": _PSI_MAX, **_OUT},
    "verify": {
        "--codebook": ["@good", "@missing", "@dir"],
        "--psi-step": _BAD + ["1e-2", "0.5"],
        "--xi-points": _BAD + ["2", "65"],
        "--slack-db": _BAD + ["0.2"],
        "--threshold-db": _BAD + ["3"],
        **_OUT,
    },
    "sweep-b": {
        "--antennas": _N,
        "--b-list": _BAD + ["0,0.0342", "0.1 0.2"],
        "--b-min": _BAD + ["0.01"],
        "--b-max": _BAD + ["0.2"],
        "--b-points": _BAD + ["2", "50"],
        "--psi-max": _PSI_MAX,
        **_FORMAT,
        **_OUT,
    },
    "sweep-n": {
        "--b-list": _BAD + ["0,0.0342", "0.1 0.2"],
        "--n-min": _BAD + ["2", "16"],
        "--n-max": _BAD + ["32", "64"],
        "--n-step": _BAD + ["1", "5"],
        "--psi-max": _PSI_MAX,
        **_FORMAT,
        **_OUT,
    },
    "bounds": {"--antennas": _N, **_BAND, "--psi-max": _PSI_MAX, **_OUT},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command]
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [name, draw(st.sampled_from(options[name]))]
    return argv


class TestMainFuzz:
    """Whatever the arguments, cli.main returns an exit code of the
    contract, and an exit of 2 prints one ``error:`` line."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        good = root / "good.json"
        good.write_text(design_with_squint(8, BandSpec(0.0179), 1.0).codebook.to_json())
        return {"@good": good, "@missing": root / "missing.json", "@dir": root, "@out": root / "out"}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=_argv())
    @example(argv=["sweep-b", "--antennas", "16", "--b-min", "0", "--b-max", "inf", "--b-points", "3"])
    def test_exit_code_and_one_line_errors(self, paths, argv):
        argv = [str(paths.get(token, token)) for token in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in {0, 2, 3, 4}
        if code == 2:
            assert stderr.getvalue().startswith("error: ")
            assert stderr.getvalue().count("\n") == 1
