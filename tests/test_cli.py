import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_one
from leggettsim import cli, expsim, oracle
from leggettsim.cli import build_parser, main
from leggettsim.expsim import ReadoutModel
from leggettsim.geometry import adapt_to_state, canonical_i26, canonical_i28
from leggettsim.qstate import correlation_tensor, werner


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sweep_rows(capsys, *argv):
    """Data rows of a CSV sweep, each a dict from column name to cell."""
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 0, err
    header, *lines = out.splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def simulate_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 0, err
    return json.loads(out)


# the two subcommands that sample
RUN_ARGVS = [("sweep", "--steps", "2"), ("simulate", "--phi", "30")]
READOUT_ARGS = ("--f0-nuclear", "0.97", "--f1-nuclear", "0.95", "--f0-electron", "0.96")


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_in_process_sweeps_identical(self, capsys):
        argv = ("--inequality", "i28", "--shots", "2000", "--steps", "3", "--correct",
                *READOUT_ARGS)
        first = run(capsys, "sweep", *argv)
        second = run(capsys, "sweep", *argv)
        assert first[0] == 0, first[2]
        assert first == second

    def test_dispatch_reaches_a_rebound_command(self, capsys, monkeypatch):
        # the parser is cached, so it must not hold the cmd_* it was built with
        assert run(capsys, "sweep", "--steps", "2")[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.command) or 0)
        assert run(capsys, "sweep", "--steps", "2") == (0, "", "")
        assert seen == ["sweep"]


class TestThresholds:
    def test_i26(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--inequality", "i26")
        assert code == 0
        data = json.loads(out)
        assert data["v_min"] == pytest.approx(0.942809, abs=1e-6)
        assert data["f_min"] == pytest.approx(0.978318, abs=1e-6)
        assert data["phi_star_deg"] == pytest.approx(36.8699, abs=1e-4)
        assert data["max_value"] == pytest.approx(6.324555, abs=1e-6)

    def test_i28(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--inequality", "i28")
        assert code == 0
        data = json.loads(out)
        assert data["v_min"] == pytest.approx(0.912871, abs=1e-6)
        assert data["f_min"] == pytest.approx(0.966775, abs=1e-6)
        assert data["phi_star_deg"] == pytest.approx(44.4153, abs=1e-4)
        assert data["max_value"] == pytest.approx(8.640988, abs=1e-6)

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "thresholds", "--inequality", "i99")
        assert code == 2
        assert err.startswith("error:")


class TestReport:
    def test_default_table(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        for expected in ("4.00", "10.91", "7.18", "15.51"):
            assert expected in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "report", "--json")
        assert code == 0
        rows = json.loads(out)
        sigmas = [r["sigmas_violation"] for r in rows]
        assert sigmas == pytest.approx([4.00, 10.91, 7.18, 15.51], abs=0.01)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--from-file", str(tmp_path / "nope.json"))
        assert code == 3
        assert err.startswith("error:")

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"kind": "i26", "value": 6.3, "sigma": 0.1}]))
        code, out, _ = run(capsys, "report", "--json", "--from-file", str(path))
        assert code == 0
        assert json.loads(out)[0]["sigmas_violation"] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "data",
        [
            [{"kind": "i99", "value": 6.3, "sigma": 0.1}],
            [{"kind": "i26", "value": 6.3}],
            {"kind": "i26", "value": 6.3, "sigma": 0.1},
            [{"kind": "i26", "value": "6.3", "sigma": 0.1}],
            [6.3],
            [{"kind": "i26", "value": 6.1, "sigma": math.nan}],
            [{"kind": "i26", "value": 6.1, "sigma": math.inf}],
            [{"kind": "i26", "value": 6.1, "sigma": 0.0}],
            [{"kind": "i26", "value": 6.1, "sigma": -0.1}],
            [{"kind": "i28", "value": math.inf, "sigma": 0.04}],
            [{"kind": "i28", "value": -math.inf, "sigma": 0.04}],
            [{"kind": "i28", "value": math.nan, "sigma": 0.04}],
            [{"kind": "i28", "value": 10**400, "sigma": 0.04}],
        ],
        ids=[
            "unknown_kind", "missing_key", "top_level_object", "non_numeric_value",
            "entry_not_object", "nan_sigma", "infinite_sigma", "zero_sigma", "negative_sigma",
            "infinite_value", "negative_infinite_value", "nan_value", "int_beyond_float",
        ],
    )
    def test_malformed_file(self, capsys, tmp_path, data):
        path = tmp_path / "values.json"
        # json.dumps writes NaN and Infinity as the tokens json.load reads back
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--from-file", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("sigma", math.nan, "sigma: expected a positive number, got nan"),
            ("value", math.inf, "value: expected a finite number, got inf"),
        ],
    )
    def test_non_finite_entry_named(self, capsys, tmp_path, key, bad, message):
        # such entries once printed nan and inf rows, and --json wrote the
        # non-standard tokens NaN and Infinity
        path = tmp_path / "values.json"
        entry = {"kind": "i28", "value": 8.3, "sigma": 0.04, key: bad}
        path.write_text(json.dumps([{"kind": "i26", "value": 6.3, "sigma": 0.1}, entry]))
        code, out, err = run(capsys, "report", "--json", "--from-file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: from-file: {path}: entry 1: {message}\n"


class TestSweep:
    def test_analytic_peak(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--inequality",
            "i26",
            "--shots",
            "0",
            "--phi-start",
            "0",
            "--phi-stop",
            "90",
            "--steps",
            "61",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("phi_deg,I_analytic,bound")
        assert len(lines) == 62
        peak = max(float(line.split(",")[1]) for line in lines[1:])
        assert peak == pytest.approx(6.3246, abs=1e-3)

    def test_analytic_i28_peak(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--inequality", "i28", "--shots", "0", "--steps", "121",
            "--phi-start", "0", "--phi-stop", "90",
        )
        assert code == 0
        peak = max(float(l.split(",")[1]) for l in out.strip().splitlines()[1:])
        assert peak == pytest.approx(8.6410, abs=1e-3)

    def test_golden_byte_stability(self, tmp_path):
        args = [
            "sweep", "--shots", "0", "--phi-start", "0", "--phi-stop", "90",
            "--steps", "61",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_analytic_seed_independence(self, tmp_path):
        base = ["sweep", "--shots", "0", "--steps", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "999", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sampled_violation_flags(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--visibility", "0.95", "--shots", "20000", "--seed", "7",
            "--phi-start", "10", "--phi-stop", "70", "--steps", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            phi, violated, marginal = float(cells[0]), cells[9], cells[10]
            inside = 25.36 < phi < 51.98
            if marginal == "false":
                assert (violated == "true") == inside

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--shots", "0", "--steps", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 and rows[0]["bound"] == 6.0

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"inequality": "i28", "steps": 2, "shots": 0}))
        code, out, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "8.0"

    def test_bad_config_field(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "data",
        [
            {"steps": "61"}, {"visibility": "0.9"}, {"steps": 2.5}, {"correct": "yes"},
            {"correct": 1}, {"shots": True}, [1],
        ],
        ids=[
            "str_steps", "str_visibility", "float_steps", "str_correct", "int_correct",
            "bool_shots", "top_level_list",
        ],
    )
    def test_wrong_typed_config_field(self, capsys, tmp_path, data):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_int_config_fields_print_like_flags(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"phi_start": 10, "phi_stop": 10, "steps": 1}))
        code, from_config, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        code, from_flags, _ = run(
            capsys, "sweep", "--phi-start", "10", "--phi-stop", "10", "--steps", "1"
        )
        assert code == 0
        assert from_config.encode() == from_flags.encode()
        assert from_config.splitlines()[1].startswith("10.0,")

    @pytest.mark.parametrize("argv", RUN_ARGVS, ids=" ".join)
    @pytest.mark.parametrize("seed", ["4294967296", "-1"])
    def test_seed_out_of_range(self, capsys, argv, seed):
        code, out, err = run(capsys, *argv, "--shots", "10", "--seed", seed)
        assert code == 2
        assert err.startswith("error: seed:")
        assert out == ""

    @pytest.mark.parametrize("argv", RUN_ARGVS, ids=" ".join)
    @pytest.mark.parametrize(
        "shots", ["9007199254740993", "9223372036854775807", "9223372036854775808", "-1"]
    )
    def test_shots_out_of_range(self, capsys, argv, shots):
        # beyond 2**53 float64 counts are inexact; at 2**63 the sampler overflowed
        code, out, err = run(capsys, *argv, "--shots", shots)
        assert (code, out) == (2, "")
        assert err == f"error: shots: must lie in [0, 2**53], got {shots}\n"

    @pytest.mark.parametrize("argv", RUN_ARGVS, ids=" ".join)
    def test_shots_out_of_range_in_config(self, capsys, tmp_path, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"shots": 2**63}))
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: shots: must lie in [0, 2**53]")

    def test_later_step_does_not_alias_a_larger_seed(self, capsys):
        rows = sweep_rows(
            capsys, "--shots", "1000", "--seed", "0", "--steps", "2",
            "--phi-start", "30", "--phi-stop", "30",
        )
        data = simulate_json(capsys, "--phi", "30", "--shots", "1000", "--seed", "1000003")
        assert float(rows[1]["I_raw"]) != data["raw"]["value"]

    def test_rows_are_steps_of_one_seed(self, capsys):
        rows = sweep_rows(
            capsys, "--visibility", "0.98", "--shots", "2000", "--seed", "11",
            "--steps", "3", "--phi-start", "30", "--phi-stop", "30", "--correct",
            *READOUT_ARGS,
        )
        state = werner(0.98, "phi_minus")
        config = adapt_to_state(correlation_tensor(state), canonical_i26(math.radians(30)))
        readout = ReadoutModel(0.97, 0.95, 0.96, 1.0)
        counts = set()
        for i, row in enumerate(rows):
            result = run_one(state, config, 2000, seed=11, readout=readout, correct=True, step=i)
            assert float(row["I_raw"]) == result.raw.value[0]
            assert float(row["sigma_raw"]) == result.raw.sigma[0]
            assert float(row["I_corrected"]) == result.corrected.value[0]
            assert float(row["sigma_corrected"]) == result.corrected.sigma[0]
            counts.add(result.counts.tobytes())
        assert len(counts) == 3

    def test_bad_phi_range(self, capsys):
        code, _, err = run(capsys, "sweep", "--phi-start", "50", "--phi-stop", "10")
        assert code == 2
        assert err.startswith("error:")

    def test_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--shots", "0", "--steps", "2",
            "--out", str(tmp_path / "missing" / "out.csv"),
        )
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("out", [False, True])
    def test_step0_error_writes_nothing(self, capsys, tmp_path, out):
        # fidelities just above 1/2 make R nearly singular: the first row fails
        path = tmp_path / "out.csv"
        argv = ["sweep", "--shots", "10", "--steps", "3", "--correct"]
        argv += ["--f0-nuclear", "0.5000001", "--f1-nuclear", "0.5000001"]
        if out:
            argv += ["--out", str(path)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: confusion matrix condition number")
        assert stdout == ""
        assert not path.exists()

    @pytest.mark.parametrize("shots", ["0", "500"])
    def test_json_equals_one_document(self, capsys, shots):
        argv = ("sweep", "--shots", shots, "--steps", "4", "--correct", *READOUT_ARGS)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)) == 4

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
    def test_memory_bounded_in_steps(self):
        # rows are written as they are made, so peak RSS does not grow with
        # the number of steps.  The child reads its peak RSS from VmHWM:
        # ru_maxrss of a child started from this process would start at
        # this process's own, larger peak.
        child = (
            "import sys\n"
            "from pathlib import Path\n"
            "from leggettsim.cli import main\n"
            "code = main(['sweep', '--shots', '0', '--steps', sys.argv[1],"
            " '--out', sys.argv[2]])\n"
            "status = Path('/proc/self/status').read_text().split('VmHWM:')[1]\n"
            "print(code, status.split()[0])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        peak_kb = {}
        for steps in (1000, 100000):
            proc = subprocess.run(
                [sys.executable, "-c", child, str(steps), os.devnull],
                env=dict(os.environ, PYTHONPATH=path),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            code, peak_kb[steps] = (int(x) for x in proc.stdout.split())
            assert code == 0
        assert peak_kb[100000] - peak_kb[1000] < 4 * 1024, peak_kb


class TestSweepBlocks:
    # longer than two default blocks, and not a multiple of any block below
    ARGV = (
        "--inequality", "i28", "--visibility", "0.98", "--shots", "300", "--seed", "5",
        "--steps", "130", "--correct", *READOUT_ARGS,
    )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_size_does_not_change_bytes(self, capsys, monkeypatch, fmt):
        calls = []
        run_experiments = expsim.run_experiments

        def counting(state, config, phis, *args, **kwargs):
            calls.append(len(phis))
            return run_experiments(state, config, phis, *args, **kwargs)

        monkeypatch.setattr(expsim, "run_experiments", counting)
        outputs = set()
        for block in (1, 7, 64):
            monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
            calls.clear()
            code, out, err = run(capsys, "sweep", *self.ARGV, "--format", fmt)
            assert code == 0, err
            assert calls == [block] * (130 // block) + [130 % block] * (130 % block > 0)
            outputs.add(out)
        assert len(outputs) == 1

    def test_rows_equal_single_steps(self, capsys):
        rows = sweep_rows(capsys, *self.ARGV)
        assert len(rows) == 130
        state = werner(0.98, "phi_minus")
        readout = ReadoutModel(0.97, 0.95, 0.96, 1.0)
        for k, row in enumerate(rows):
            config = adapt_to_state(state.tensor, canonical_i28(math.radians(float(row["phi_deg"]))))
            result = run_one(state, config, 300, seed=5, readout=readout, correct=True, step=k)
            assert float(row["I_raw"]) == result.raw.value[0]
            assert float(row["sigma_raw"]) == result.raw.sigma[0]
            assert float(row["I_corrected"]) == result.corrected.value[0]
            assert float(row["sigma_corrected"]) == result.corrected.sigma[0]
            assert float(row["sigmas_violation_raw"]) == result.raw.sigmas_violation[0]
            assert float(row["sigmas_violation_corrected"]) == result.corrected.sigmas_violation[0]


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--inequality", "i26",
            "--phi", "10", "--phi", "36.87", "--phi", "73.74", "--grid-size", "300",
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 3
        assert all(r["margin"] >= 0 for r in reports)

    def test_i28(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--inequality", "i28", "--phi", "44.42", "--grid-size", "300"
        )
        assert code == 0
        assert json.loads(out)[0]["margin"] >= 0

    def test_grid_too_small(self, capsys):
        code, _, err = run(
            capsys, "verify", "--inequality", "i26", "--phi", "10", "--grid-size", "10"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_grid_too_large_rejected_before_any_scan(self, capsys, monkeypatch):
        scans = []
        monkeypatch.setattr(oracle, "verify_bound", lambda *args: scans.append(args))
        code, out, err = run(
            capsys, "verify", "--inequality", "i26", "--phi", "30", "--grid-size", "1000000000000"
        )
        assert code == 2
        assert err == f"error: grid-size: must be <= {oracle.MAX_GRID_SIZE}, got 1000000000000\n"
        assert out == "" and scans == []

    def test_bad_later_phi_rejected_before_any_scan(self, capsys, monkeypatch):
        scans = []
        monkeypatch.setattr(oracle, "verify_bound", lambda *args: scans.append(args))
        code, out, err = run(
            capsys, "verify", "--inequality", "i26", "--phi", "10", "--phi", "200"
        )
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
        assert scans == []

    def test_missing_phi(self, capsys):
        code, _, err = run(capsys, "verify", "--inequality", "i26")
        assert code == 2
        assert err.startswith("error:")


class TestSimulate:
    def test_basic(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--phi", "36.87", "--shots", "20000", "--seed", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "i26"
        assert abs(data["raw"]["value"] - 6.3246) < 5 * data["sigma_raw"]

    def test_with_correction(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--phi", "40", "--shots", "10000", "--correct",
            "--f0-electron", "0.97", "--f1-electron", "0.95",
        )
        assert code == 0
        data = json.loads(out)
        assert "corrected" in data

    def test_corrected_beyond_one_reported(self, capsys):
        # the corrected C is the unclipped linear inversion, so at V = 1 and
        # a small phi it can exceed 1, and it is reported, not rejected
        data = simulate_json(
            capsys, "--visibility", "1", "--phi", "10", "--shots", "1000", "--correct",
            *READOUT_ARGS, "--f1-electron", "0.94",
        )
        assert data["clip_events"] > 0
        assert max(s["c_corrected"] for s in data["settings"]) > 1.0

    @pytest.mark.parametrize("tag", ["i26", "i28"])
    @pytest.mark.parametrize(
        "phi, seed", [("36.87", "4"), ("12.5", "0"), ("90", "4294967295"), ("30", "7")]
    )
    def test_equals_single_step_sweep(self, capsys, tag, phi, seed):
        common = (
            "--inequality", tag, "--visibility", "0.97", "--shots", "5000",
            "--seed", seed, "--correct", *READOUT_ARGS,
        )
        data = simulate_json(capsys, "--phi", phi, *common)
        (row,) = sweep_rows(capsys, "--steps", "1", "--phi-start", phi, "--phi-stop", phi, *common)
        # degrees(radians(30)) is 29.999999999999996: both write the angle given
        written = [data[key]["phi_deg"] for key in ("raw", "corrected", "config")]
        assert [data["phi_deg"], *written] == [float(phi)] * 4 == [float(row["phi_deg"])] * 4
        assert float(row["I_raw"]) == data["raw"]["value"]
        assert float(row["sigma_raw"]) == data["sigma_raw"]
        assert float(row["I_corrected"]) == data["corrected"]["value"]
        assert float(row["sigma_corrected"]) == data["sigma_corrected"]

    @pytest.mark.parametrize("phi", ["200", "nan", "-1"])
    def test_phi_out_of_range(self, capsys, phi):
        code, out, err = run(capsys, "simulate", "--phi", phi, "--shots", "100")
        assert code == 2
        assert err.startswith("error: phi:")
        assert "[0, 180]" in err
        assert out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_is_a_sweep_option(self, capsys, fmt):
        # simulate always writes one JSON document, so --format is refused
        code, out, err = run(
            capsys, "simulate", "--phi", "40", "--shots", "100", "--format", fmt
        )
        assert code == 2
        assert "--format" in err
        assert out == ""

    @pytest.mark.parametrize(
        "key, value", [("format", "csv"), ("phi_start", 10), ("phi_stop", 20), ("steps", 5)]
    )
    def test_sweep_only_config_key(self, capsys, tmp_path, key, value):
        # simulate has no flag for these, so a config file may not set them
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run(
            capsys, "simulate", "--phi", "40", "--shots", "100", "--config", str(config)
        )
        assert code == 2
        assert err == f"error: config: unknown field {key!r}\n"
        assert out == ""

    @pytest.mark.parametrize("command", [["sweep"], ["simulate", "--phi", "40"]])
    def test_bell_removed(self, capsys, tmp_path, command):
        # the state is the Werner state of phi_minus: over the four Bell
        # bases the adapted settings gave the same counts, values and sigmas
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bell": "psi_minus"}))
        code, out, err = run(capsys, *command, "--shots", "100", "--config", str(config))
        assert (code, out, err) == (2, "", "error: config: unknown field 'bell'\n")
        code, out, err = run(capsys, *command, "--shots", "100", "--bell", "psi_minus")
        assert code == 2 and out == "" and "unrecognized arguments: --bell" in err

    def test_sweep_takes_sweep_only_config_keys(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"format": "json", "phi_start": 10, "phi_stop": 20, "steps": 2})
        )
        code, out, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 0
        assert [row["phi_deg"] for row in json.loads(out)] == [10.0, 20.0]

    def test_requires_shots(self, capsys):
        code, _, err = run(capsys, "simulate", "--phi", "40", "--shots", "0")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--visibility", "--f0-nuclear", "--f1-electron"])
    def test_nan_flag(self, capsys, flag):
        code, out, err = run(capsys, "simulate", "--phi", "40", "--shots", "100", flag, "nan")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_nan_config(self, capsys, tmp_path):
        # json.load accepts the NaN literal
        config = tmp_path / "config.json"
        config.write_text('{"visibility": NaN}')
        code, out, err = run(
            capsys, "simulate", "--phi", "40", "--shots", "100", "--config", str(config)
        )
        assert code == 2
        assert err.startswith("error: visibility:")
        assert out == ""

    def test_bad_fidelity(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--phi", "40", "--shots", "100", "--f0-nuclear", "0.4"
        )
        assert code == 2
        assert err.startswith("error:")


class TestExperimentConfigs:
    @pytest.mark.parametrize("tag", ["i26", "i28"])
    @pytest.mark.parametrize("visibility", [0.98, 0.6])
    def test_equal_replaced_canonical(self, monkeypatch, tag, visibility):
        config = cli.RunConfig(inequality=tag, visibility=visibility, shots=10)
        phis = [math.radians(deg) for deg in (0.0, 12.5, 36.87, 90.0, 180.0)]
        block = cli._experiment(config)(phis)
        # the reference: the canonical configuration rebuilt at each phi, with
        # the Alice vectors adapted once
        canonical = {"i26": canonical_i26, "i28": canonical_i28}[tag]
        state = werner(visibility)
        alice = adapt_to_state(correlation_tensor(state), canonical(0.0)).alice
        assert block.phis.tolist() == phis
        assert len(block.settings) == len(phis)
        for k, phi in enumerate(phis):
            expected = dataclasses.replace(canonical(phi), alice=alice)
            got = dataclasses.replace(block.config, phi=float(block.phis[k]))
            assert got.kind is expected.kind and got.pairing == expected.pairing
            assert got.phi == expected.phi == phi
            for name in ("alice", "u", "e_hat", "pairs"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert block.settings[k].tobytes() == expected.pairs.tobytes()
