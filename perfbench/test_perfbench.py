"""Tests of the benchmark's own arithmetic, tracer and output checks.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import sys

import pytest

from workloads import SRC, SWEEP_FIDELITIES, CertifyGrid, CliCold, SweepSampled

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from run import IMPORT_CODE, SETUP_CODE, run_child, tail  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

from leggettsim import cli, expsim, geometry, inequalities, oracle, qstate  # noqa: E402


def cli_output(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


class TestTail:
    def test_ten_samples_beyond(self):
        assert tail(list(range(20, 0, -1))) == (10, 50.0)
        assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)

    def test_percentile_tracks_sample_count(self):
        value, pct = tail(list(range(40)))
        assert value == 29
        assert pct == 75.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail(list(range(10)))


class TestChildTimings:
    def test_setup_child_reports_its_own_time(self):
        workload = CertifyGrid(0)
        code = SETUP_CODE.format(bench_dir=str(SRC.parent / "perfbench"))
        wall, out = run_child(code, workload.name, "0", *workload.modules)
        assert 0.0 < float(out) < wall

    def test_import_child_reports_numpy_and_package(self):
        wall, out = run_child(IMPORT_CODE)
        numpy_s, package_s = map(float, out.split())
        assert numpy_s > 0.0 and package_s > 0.0
        assert numpy_s + package_s < wall


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # (id, name, layer, start, end, parent, op)
        spans = [
            (1, "op", "bench", 0.0, 10.0, None, 0),
            (2, "a", "qstate", 1.0, 5.0, 1, 0),
            (3, "b", "expsim", 2.0, 3.0, 2, 0),
            (4, "c", "qstate", 6.0, 9.0, 1, 0),
            (5, "d", "qstate", 6.5, 7.5, 4, 0),
        ]
        out = self_times(spans)
        assert out == pytest.approx({"bench": 3.0, "qstate": 6.0, "expsim": 1.0})
        assert sum(out.values()) == pytest.approx(10.0)


class TestTracer:
    def test_wraps_every_binding_and_restores(self):
        original = qstate.joint_probabilities
        assert expsim.joint_probabilities is original
        tracer = Tracer().install()
        try:
            assert qstate.joint_probabilities is not original
            assert expsim.joint_probabilities is qstate.joint_probabilities
            state = qstate.werner(0.9)
            config = geometry.canonical_i26(math.radians(30))
            tracer.begin_op(1)
            expsim.run_experiment(state, config, inequalities.I26, 1000, 3, correct=True)
            oracle.verify_bound(config, 60)
            tracer.end_op("op", 0.0, 1.0)
        finally:
            tracer.uninstall()
        assert qstate.joint_probabilities is original
        assert expsim.joint_probabilities is original

        names = [span[1] for span in tracer.spans]
        assert names.count("qstate.joint_probabilities") == 6
        assert names.count("qstate.correlation_tensor") == 6
        assert tracer.counters["expsim.settings"] == 6
        assert tracer.counters["expsim.corrected_settings"] == 6
        assert tracer.counters["oracle.cells"] == 60 * 60 * 3
        assert tracer.peak_alloc_bytes > 60 * 60 * 8
        by_id = {span[0]: span for span in tracer.spans}
        for span in tracer.spans:
            if span[1] == "qstate.joint_probabilities":
                assert by_id[span[5]][1] == "expsim.run_experiment"

    def test_untraced_functions_are_plain(self):
        assert not hasattr(cli.main, "__wrapped__")
        assert not hasattr(oracle.verify_bound, "__wrapped__")


SWEEP_ARGS = dict(tag="i28", visibility=0.98, fidelities=SWEEP_FIDELITIES, steps=5, phi_stop=90.0)


@pytest.fixture(scope="module")
def sweep_csv():
    op = SweepSampled(0).op_input(1)[2]
    op[op.index("--steps") + 1] = "5"
    op[op.index("--shots") + 1] = "20000"
    return cli_output(*op)


def corrupt_cell(text, row, column, change):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = repr(change(float(cells[col]), lines, header, cells))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestSweepCheck:
    def test_passes_on_real_output(self, sweep_csv):
        zs = []
        assert checks.check_sweep_csv(sweep_csv, zs=zs, **SWEEP_ARGS) == []
        assert len(zs) == 5

    @pytest.mark.parametrize("column", ["I_raw", "I_corrected"])
    def test_sampled_value_off_by_many_sigma(self, sweep_csv, column):
        def shift(value, lines, header, cells):
            return value + 10 * float(cells[header.index("sigma_raw")])

        bad = corrupt_cell(sweep_csv, 2, column, shift)
        assert checks.check_sweep_csv(bad, zs=[], **SWEEP_ARGS)

    def test_analytic_value_off(self, sweep_csv):
        bad = corrupt_cell(sweep_csv, 3, "I_analytic", lambda v, *_: v + 1e-9)
        assert checks.check_sweep_csv(bad, zs=[], **SWEEP_ARGS)

    def test_missing_row(self, sweep_csv):
        bad = "".join(sweep_csv.splitlines(keepends=True)[:-1])
        assert checks.check_sweep_csv(bad, zs=[], **SWEEP_ARGS)

    def test_failed_exit_code(self, sweep_csv):
        workload = SweepSampled(0)
        assert workload.check(workload.op_input(0), (2, sweep_csv), [])


class TestBoundCheck:
    @pytest.fixture(scope="class")
    def report(self):
        return oracle.verify_bound(geometry.canonical_i26(math.radians(40.0)), 300).to_json_dict()

    def test_passes_on_real_output(self, report):
        assert checks.check_bound_report(report, "i26", 40.0, 300) == []

    def test_negative_margin(self, report):
        bad = dict(report, margin=-1e-6, oracle_value=report["bound"] + 1e-6)
        assert checks.check_bound_report(bad, "i26", 40.0, 300)

    def test_margin_too_wide_for_grid(self, report):
        # a scan that skipped most cells falls short of the bound by more
        # than 2 sin(20 deg) sqrt(4 pi / 300) = 0.14
        bad = dict(report, margin=0.2, oracle_value=report["bound"] - 0.2)
        assert checks.check_bound_report(bad, "i26", 40.0, 300)

    def test_inconsistent_margin(self, report):
        bad = dict(report, oracle_value=report["oracle_value"] - 1e-3)
        assert checks.check_bound_report(bad, "i26", 40.0, 300)


class TestCliChecks:
    def test_thresholds(self):
        out = cli_output("thresholds", "--inequality", "i28")
        assert checks.check_thresholds(out, "i28") == []
        data = json.loads(out)
        data["v_min"] += 1e-9
        assert checks.check_thresholds(json.dumps(data), "i28")

    def test_report(self):
        out = cli_output("report")
        assert checks.check_report(out) == []
        assert checks.check_report(out.replace("10.91", "10.92"))

    def test_analytic_sweep_bytes(self):
        out = cli_output("sweep", "--shots", "0", "--steps", "61")
        assert checks.check_analytic_sweep(out) == []
        assert checks.check_analytic_sweep(out.replace("6.0,", "6.00,", 1))

    def test_simulate(self):
        out = cli_output(
            "simulate", "--phi", "36.87", "--shots", "20000", "--correct", "--seed", "5"
        )
        assert checks.check_simulate(out, "i26", 36.87, []) == []
        data = json.loads(out)
        data["raw"]["value"] -= 10 * data["sigma_raw"]
        assert checks.check_simulate(json.dumps(data), "i26", 36.87, [])

    def test_verify(self):
        out = cli_output("verify", "--inequality", "i28", "--phi", "44.42", "--grid-size", "200")
        assert checks.check_verify(out, "i28", 44.42, 200) == []
        data = json.loads(out)
        data[0]["margin"] = 1.0
        assert checks.check_verify(json.dumps(data), "i28", 44.42, 200)

    def test_nonzero_exit_code(self):
        workload = CliCold(0)
        for index in range(workload.cycle):
            assert workload.check(workload.op_input(index), (1, "", None), [])
