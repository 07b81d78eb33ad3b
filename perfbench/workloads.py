"""The three workloads: inputs drawn from the seed, one operation, its check.

Each is a closed loop with one client and one operation in flight.  Ops run
in cycles (i26 then i28, or the six CLI commands in order) and a run ends
only on a cycle boundary, so every run holds each kind of op equally often
and its median does not jump between the modes of a mixed distribution.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from checks import (
    INEQUALITIES,
    check_analytic_sweep,
    check_bound_report,
    check_report,
    check_simulate,
    check_sweep_csv,
    check_thresholds,
    check_verify,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TRACING_SCRIPT = Path(__file__).resolve().parent / "tracing.py"
CHILD_TIMEOUT_S = 120

TAGS = ("i26", "i28")
# angles of maximal violation at V = 1, in degrees
MAX_VIOLATION_DEG = {"i26": 36.87, "i28": 44.42}

SWEEP_STEPS = 61
SWEEP_PHI_STOP = 90.0
SWEEP_SHOTS = 100_000
SWEEP_VISIBILITY = 0.98
# f0_nuclear, f1_nuclear, f0_electron, f1_electron
SWEEP_FIDELITIES = (0.97, 0.95, 0.96, 0.94)

CERTIFY_GRID = 2000
CLI_VERIFY_GRID = 500
CLI_SIMULATE_PHI = 36.87


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def op_rng(seed: int, index: int) -> random.Random:
    """Generator for the inputs of op ``index``; same seed, same inputs."""
    return random.Random(f"{seed}/{index}")


class SweepSampled:
    """Finite-shot, readout-corrected sweeps through in-process ``cli.main``."""

    name = "sweep_sampled"
    cycle = 2
    work_unit = "settings sampled at 1e5 shots (settings_per_s)"
    rusage = resource.RUSAGE_SELF
    # what an op imports; set-up time is the cold import of these
    modules = ("leggettsim.cli",)

    def __init__(self, seed: int):
        from leggettsim import cli

        self.cli = cli
        self.seed = seed

    def op_input(self, index: int):
        tag = TAGS[index % 2]
        f0n, f1n, f0e, f1e = SWEEP_FIDELITIES
        argv = [
            "sweep", "--inequality", tag, "--visibility", repr(SWEEP_VISIBILITY),
            "--phi-start", "0", "--phi-stop", repr(SWEEP_PHI_STOP),
            "--steps", str(SWEEP_STEPS), "--shots", str(SWEEP_SHOTS), "--correct",
            "--seed", str(op_rng(self.seed, index).randrange(2**31)),
            "--f0-nuclear", repr(f0n), "--f1-nuclear", repr(f1n),
            "--f0-electron", repr(f0e), "--f1-electron", repr(f1e),
        ]
        return "sweep", tag, argv

    def run(self, op, tracer):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(op[2])
        return code, buf.getvalue()

    def check(self, op, out, zs):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return check_sweep_csv(
            text, op[1], SWEEP_VISIBILITY, SWEEP_FIDELITIES, SWEEP_STEPS, SWEEP_PHI_STOP, zs
        )

    def work(self, op) -> int:
        return SWEEP_STEPS * 2 * INEQUALITIES[op[1]][2]


class CertifyGrid:
    """Grid certification of the hidden-variable bound via ``oracle.verify_bound``."""

    name = "certify_grid"
    cycle = 2
    work_unit = "(u, v) cells x setting pairs (cells_per_s)"
    rusage = resource.RUSAGE_SELF
    modules = ("leggettsim.geometry", "leggettsim.oracle")

    def __init__(self, seed: int):
        from leggettsim import geometry, oracle

        self.geometry = geometry
        self.oracle = oracle
        self.seed = seed

    def op_input(self, index: int):
        tag = TAGS[index % 2]
        if index < len(TAGS):
            phi_deg = MAX_VIOLATION_DEG[tag]
        else:
            phi_deg = op_rng(self.seed, index).uniform(0.0, 90.0)
        canonical = getattr(self.geometry, f"canonical_{tag}")
        return "verify_bound", tag, phi_deg, canonical(math.radians(phi_deg))

    def run(self, op, tracer):
        return self.oracle.verify_bound(op[3], CERTIFY_GRID)

    def check(self, op, report, zs):
        problems = [] if report.passed else ["report did not pass"]
        return problems + check_bound_report(report.to_json_dict(), op[1], op[2], CERTIFY_GRID)

    def work(self, op) -> int:
        return CERTIFY_GRID * CERTIFY_GRID * INEQUALITIES[op[1]][2]


class CliCold:
    """One fresh ``python -m leggettsim.cli`` process per op."""

    name = "cli_cold"
    cycle = 6
    work_unit = "CLI processes"
    rusage = resource.RUSAGE_CHILDREN
    modules = ("leggettsim.cli",)

    def __init__(self, seed: int):
        self.seed = seed
        self.env = child_env()

    def op_input(self, index: int):
        kind = index % self.cycle
        if kind < 2:
            return "thresholds", ["thresholds", "--inequality", TAGS[kind]]
        if kind == 2:
            return "report", ["report"]
        if kind == 3:
            return "sweep", ["sweep", "--shots", "0", "--steps", str(SWEEP_STEPS)]
        if kind == 4:
            seed = op_rng(self.seed, index).randrange(2**31)
            return "simulate", [
                "simulate", "--phi", repr(CLI_SIMULATE_PHI), "--shots", str(SWEEP_SHOTS),
                "--correct", "--seed", str(seed),
            ]
        return "verify", [
            "verify", "--inequality", "i28", "--phi", repr(MAX_VIOLATION_DEG["i28"]),
            "--grid-size", str(CLI_VERIFY_GRID),
        ]

    def run(self, op, tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "leggettsim.cli", *op[1]]
            trace_path = None
        else:
            trace_path = OUT_DIR / f"child-{os.getpid()}.json"
            argv = [sys.executable, str(TRACING_SCRIPT), str(trace_path), "--", *op[1]]
        proc = subprocess.run(
            argv, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        return proc.returncode, proc.stdout, trace_path

    def collect(self, tracer, out):
        trace_path = out[2]
        with open(trace_path) as fh:
            data = json.load(fh)
        os.unlink(trace_path)
        tracer.adopt(data["spans"], data["counters"], data["peak_alloc_bytes"])

    def check(self, op, out, zs):
        code, stdout, _ = out
        if code != 0:
            return [f"{op[0]} exit code {code}"]
        name, argv = op
        if name == "thresholds":
            return check_thresholds(stdout, argv[2])
        if name == "report":
            return check_report(stdout)
        if name == "sweep":
            return check_analytic_sweep(stdout)
        if name == "simulate":
            return check_simulate(stdout, "i26", CLI_SIMULATE_PHI, zs)
        return check_verify(stdout, "i28", MAX_VIOLATION_DEG["i28"], CLI_VERIFY_GRID)

    def work(self, op) -> int:
        return 1


WORKLOADS = {w.name: w for w in (SweepSampled, CertifyGrid, CliCold)}
