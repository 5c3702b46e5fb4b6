"""What ``import beamsquint`` exports and loads. numpy is imported only by
the code that evaluates the gain kernel or builds a grid, so the design
criterion (bounds, design, the sweeps) runs without it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamsquint
from beamsquint.codebook import design_with_squint
from beamsquint.squint import BandSpec

PUBLIC_NAMES = [
    "ArrayGeometry", "BandSpec", "Beam", "Codebook", "CodebookFormatError",
    "CoverageInterval", "CoverageReport", "DesignOutcome", "GainThreshold",
    "HALF_POWER_CONSTANT", "Infeasibility", "SweepPoint", "SweepSeries",
    "SweepTable", "__version__", "array_gain_sum", "design_no_squint",
    "design_with_squint", "effective_beamwidth", "equivalent_aoa",
    "exact_half_power_beamwidth", "fine_beam_weights", "focus_from_left_edge",
    "gain_kernel", "gain_kernel_magnitude", "half_power_beamwidth",
    "max_antennas", "max_fractional_bandwidth", "min_size_no_squint",
    "numeric_coverage", "psi_from_theta", "squinted_coverage",
    "steering_vector", "sweep_size_vs_b", "sweep_size_vs_n", "theta_from_psi",
    "verify_codebook",
]


def test_public_names():
    assert sorted(beamsquint.__all__) == PUBLIC_NAMES
    assert all(hasattr(beamsquint, name) for name in beamsquint.__all__)


def _env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(beamsquint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run(code, *argv):
    """Run ``code`` in a fresh interpreter with this checkout's package;
    returns its last line of stderr."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_env(), check=True
    )
    return result.stderr.splitlines()[-1]


LAYERS = ["beamsquint.array_model", "beamsquint.codebook", "beamsquint.squint", "beamsquint.verification"]


def test_import_loads_every_layer_but_not_numpy():
    loaded = "print(sorted(m for m in sys.modules if m == 'numpy' or m in %r), file=sys.stderr)" % LAYERS
    assert _run("import sys, beamsquint; " + loaded) == repr(LAYERS)
    # perfbench's tracer patches the layers that importing the CLI loads
    assert _run("import sys, beamsquint.cli; " + loaded) == repr(LAYERS)


def test_start_up_loads_no_json_typing_or_pathlib():
    # -S: no site hook, so nothing the interpreter's .pth files import hides a load
    def loaded(module, names):
        code = "import sys, %s; print(sorted(m for m in %r if m in sys.modules), file=sys.stderr)" % (module, names)
        return subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_env(), check=True
        ).stderr.splitlines()[-1]

    assert loaded("beamsquint", ["json", "numpy", "typing"]) == "[]"
    assert loaded("beamsquint.cli", ["pathlib", "typing"]) == "[]"


SUBMODULE_NAMES = {
    "array_model": ["ArrayGeometry", "array_gain_sum", "equivalent_aoa", "fine_beam_weights", "gain_kernel",
                    "gain_kernel_magnitude", "psi_from_theta", "steering_vector", "theta_from_psi",
                    "worst_subcarrier_gain"],
    "codebook": ["Beam", "Codebook", "CodebookFormatError", "DesignOutcome", "Infeasibility", "design_no_squint",
                 "design_with_squint", "max_antennas", "max_fractional_bandwidth", "min_size_no_squint"],
    "squint": ["BandSpec", "CoverageInterval", "GainThreshold", "HALF_POWER_CONSTANT", "effective_beamwidth",
               "exact_half_power_beamwidth", "focus_from_left_edge", "half_power_beamwidth", "numeric_coverage",
               "squinted_coverage"],
    "verification": ["CoverageReport", "SweepPoint", "SweepSeries", "SweepTable", "sweep_size_vs_b",
                     "sweep_size_vs_n", "verify_codebook"],
}


@pytest.mark.parametrize("name", sorted(SUBMODULE_NAMES))
def test_submodule_all_is_what_the_module_defines(name):
    module = importlib.import_module(f"beamsquint.{name}")
    assert sorted(module.__all__) == SUBMODULE_NAMES[name]
    assert all(getattr(module, n).__module__ == module.__name__ for n in module.__all__ if n != "HALF_POWER_CONSTANT")


def test_design_library_leaves_numpy_unloaded():
    code = (
        "import sys\nfrom beamsquint import *\n"
        "book = design_with_squint(16, BandSpec(0.0342), 1.0).codebook\n"
        "assert Codebook.from_json(book.to_json()) == book\n"
        "design_no_squint(64, 0.5).to_json(); max_antennas(BandSpec(0.0179), 1.0)\n"
        "sweep_size_vs_b([8, 16], [0.0, 0.05]); sweep_size_vs_n([0.0179], range(4, 65))\n"
        "effective_beamwidth(0.3, BandSpec(0.0342), 16); psi_from_theta(0.4)\n"
        "assert 0 < exact_half_power_beamwidth(64) < exact_half_power_beamwidth(16, GainThreshold(0.3)) < 1\n"
        "print('numpy' in sys.modules, file=sys.stderr)"
    )
    assert _run(code) == "False"


def test_psi_check_leaves_numpy_unloaded():
    code = (
        "import math, sys\nfrom beamsquint import theta_from_psi\n"
        "assert theta_from_psi(0.5) == math.asin(0.5) and theta_from_psi(-1.0) == -math.pi / 2\n"
        "for bad in (1.5, -1.0 - 1e-9, math.nan):\n"
        "    try:\n        theta_from_psi(bad)\n    except ValueError:\n        pass\n"
        "    else:\n        raise AssertionError(bad)\n"
        "print('numpy' in sys.modules, file=sys.stderr)"
    )
    assert _run(code) == "False"


def _main_loads_numpy(*argv):
    code = (
        "import sys\nfrom beamsquint.cli import main\n"
        "code = main(sys.argv[1:])\nprint(code, 'numpy' in sys.modules, file=sys.stderr)"
    )
    exit_code, loaded = _run(code, *argv).split()
    return int(exit_code), loaded == "True"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["bounds", "--antennas", "16", "--fractional-bandwidth", "0.0342"], 0),
        (["design", "--antennas", "64", "--fractional-bandwidth", "0.0179"], 0),
        (["design", "--antennas", "16", "--fractional-bandwidth", "0.2"], 3),
        (["sweep-b", "--antennas", "8", "16", "--b-min", "0", "--b-max", "0.2", "--b-points", "9"], 0),
        (["sweep-n", "--b-list", "0,0.0342", "--n-min", "4", "--n-max", "64"], 0),
    ],
    ids=["bounds", "design", "design-infeasible", "sweep-b", "sweep-n"],
)
def test_design_commands_leave_numpy_unloaded(argv, exit_code):
    assert _main_loads_numpy(*argv, "--out", os.devnull) == (exit_code, False)


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["bounds", "--antennas", "16", "--carrier-ghz", "73", "--bandwidth-ghz", "2.5"], False),
        (["design", "--antennas", "64", "--fractional-bandwidth", "0.0179"], False),
        (["sweep-b", "--antennas", "8", "16", "--b-min", "0", "--b-max", "0.2", "--b-points", "9"], False),
        (["sweep-n", "--b-list", "0,0.0342", "--n-min", "4", "--n-max", "64"], False),
        (["pattern", "--antennas", "4", "--psi0", "0", "--xi", "1", "--psi-step", "0.5"], True),
    ],
    ids=["bounds", "design", "sweep-b", "sweep-n", "pattern"],
)
def test_module_entry_point_loads_numpy_only_for_the_kernel(argv, loads_numpy):
    # the command as a user runs it; -X importtime names every module the
    # interpreter imports on stderr, one "import time: ... | <name>" line each
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "beamsquint", *argv, "--out", os.devnull],
        capture_output=True, text=True, env=_env(),
    )
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
    assert "beamsquint.cli" in imported
    assert ("numpy" in imported) == loads_numpy


def test_kernel_commands_load_numpy(tmp_path):
    book = tmp_path / "cb.json"
    book.write_text(design_with_squint(8, BandSpec(0.0), 1.0).codebook.to_json())
    verify = ["verify", "--codebook", str(book), "--out", os.devnull]
    pattern = ["pattern", "--antennas", "4", "--psi0", "0", "--xi", "1", "--psi-step", "0.5", "--out", os.devnull]
    assert _main_loads_numpy(*verify) == (0, True)
    assert _main_loads_numpy(*pattern) == (0, True)
