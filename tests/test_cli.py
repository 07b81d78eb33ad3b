import json

import pytest

from leggettsim import oracle
from leggettsim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ],
        ids=[
            "unknown_kind", "missing_key", "top_level_object", "non_numeric_value",
            "entry_not_object",
        ],
    )
    def test_malformed_file(self, capsys, tmp_path, data):
        path = tmp_path / "values.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--from-file", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


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

    def test_requires_shots(self, capsys):
        code, _, err = run(capsys, "simulate", "--phi", "40", "--shots", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_fidelity(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--phi", "40", "--shots", "100", "--f0-nuclear", "0.4"
        )
        assert code == 2
        assert err.startswith("error:")
