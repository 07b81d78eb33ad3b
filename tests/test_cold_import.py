"""Fresh-process checks of which CLI subcommands load numpy.

The closed-form subcommands (``thresholds``, ``report`` and the analytic
``sweep --shots 0``) must run without importing numpy; the numpy-backed
ones (``simulate``, ``verify``) must still import what they need lazily.
Each case runs ``cli.main`` in a new interpreter, so no module imported by
this test process can hide a missing or an extra import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs cli.main on the arguments, then reports its exit code and whether
# numpy was imported as one JSON line on stderr
CHILD = """
import json, sys
from leggettsim.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps({"code": code, "numpy": "numpy" in sys.modules}) + "\\n")
"""


def run_child(*argv) -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ("thresholds", "--inequality", "i26"),
        ("thresholds", "--inequality", "i28"),
        ("report",),
        ("report", "--json"),
        ("sweep", "--shots", "0", "--steps", "61"),
        ("sweep", "--inequality", "i28", "--shots", "0", "--format", "json"),
    ],
    ids=" ".join,
)
def test_light_subcommand_does_not_import_numpy(argv):
    result = run_child(*argv)
    assert result == {"code": 0, "numpy": False}


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--phi", "36.87", "--shots", "1000", "--correct", "--seed", "4"),
        ("sweep", "--shots", "1000", "--steps", "3", "--correct", "--f0-nuclear", "0.97"),
        ("verify", "--inequality", "i28", "--phi", "44.42", "--grid-size", "100"),
    ],
    ids=" ".join,
)
def test_numpy_subcommand_runs_in_fresh_process(argv):
    assert run_child(*argv)["code"] == 0
