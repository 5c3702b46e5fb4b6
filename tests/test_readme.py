"""README's examples, run as written: the library quick start and the CLI
block, each in a fresh interpreter in a temporary directory, against the
outputs that README states for them."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from test_imports import _env

ROOT = Path(__file__).resolve().parents[1]


def _block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _run(argv, cwd):
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, env=_env())


def test_quick_start_prints_what_readme_states(tmp_path):
    code = _block("Library quick start", "python")
    result = _run([sys.executable, "-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    # each print's comment states its output
    stated = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    beams, without = map(int, re.fullmatch(r"(\d+) beams \((\d+) without squint\)", stated[0]).groups())
    passed, db = re.fullmatch(r"(True|False), about (-?\d+\.\d\d) dB vs peak", stated[2]).groups()
    assert (beams, without, int(stated[1]), passed, db) == (22, 19, 19, "True", "-3.00")
    size, narrowband, report = result.stdout.splitlines()
    assert (int(size), int(narrowband)) == (beams, without)
    got_passed, got_db = report.split()
    assert got_passed == passed and f"{float(got_db):.2f}" == db


def test_cli_block_runs_as_written(tmp_path):
    # every command of the block, as `python -m beamsquint`, in order: design
    # writes the codebook that verify reads
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("beamsquint ")]
    assert [argv[1] for argv in commands] == ["pattern", "design", "verify", "sweep-b", "sweep-n", "bounds"]
    stated = re.search(r'prints "(size=\d+ parity=\w+) \.\.\." on stderr', _block("CLI", "sh")).group(1)
    for argv in commands:
        result = _run([sys.executable, "-m", *argv], tmp_path)
        assert result.returncode == 0, (argv, result.stderr)
        if argv[1] == "design":
            assert f" {stated} " in f" {result.stderr}", result.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"pattern.csv", "codebook.json", "report.json"}
