"""Smoke tests: each experiment script runs end to end on tiny arguments."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the whole stdout of bound_scan at its test arguments: its two staircase
# witnesses pin count_ptrop_points on germs that exceed the claimed bound
BOUND_SCAN_STDOUT = """\
explicit witnesses exceeding the bound:
  degree 4: y^4 + x*y^2 + x^2*y + x^4: 3 points (bound claims 2)
  degree 7: y^7 + x*y^4 + x^2*y^2 + x^3*y + x^5: 4 points (bound claims 3)

seed 0: 0 violation(s) in 35 germs

overall: 0 violation(s) in 35 germs (0.00%)
"""


@pytest.mark.parametrize("name, argv, line", [
    ("galaxy_demo", ["--levels", "12"],
     "cycle sizes per level: [3, 6, 12, 24, 48, 96, 192, 384, 768, 1536, "
     "3072, 6144]"),
    ("galaxy_demo", ["--levels", "20"],
     "    sqrt2-1: UndecidableSign: enclosure [414213/1000000, "
     "207107/500000] of sqrt2-1 is not strictly inside one edge of the "
     "786432-gon"),
    ("bound_scan", ["--seeds", "0", "--per-degree", "5"], BOUND_SCAN_STDOUT),
    ("ptrop_survey", ["--germs", "3"],
     "exact routes: 9 germs, 0 disagreements, "),
], ids=["galaxy_demo", "galaxy_demo-20-levels", "bound_scan",
        "ptrop_survey"])
def test_script_runs(capsys, name, argv, line):
    """`line` starts one row of stdout, or is the whole of it when it ends
    in a newline."""
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    if line.endswith("\n"):
        assert out == line
    else:
        assert any(row.startswith(line) for row in out.splitlines()), out


def test_cli_startup_shows_only_ptrop_loading_numpy(capsys):
    argv = ["--runs", "1", "fan-validate", "ptrop"]
    assert load_script("cli_startup").main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"fan-validate: numpy no, scipy no, \d+\.\d{3} s, "
                        r"parse \d+\.\d{2} ms", rows[1]), rows
    assert re.fullmatch(r"ptrop: numpy yes, scipy yes, \d+\.\d{3} s, "
                        r"parse \d+\.\d{2} ms", rows[2]), rows
