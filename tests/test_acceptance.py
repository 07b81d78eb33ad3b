"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest

from conftest import corrected_correlation, run_one
from leggettsim.cli import main
from leggettsim.expsim import ReadoutModel, apply_confusion
from leggettsim.geometry import (
    _TETRA,
    X,
    Y,
    Z,
    adapt_to_state,
    canonical_i26,
    canonical_i28,
    geometric_factor,
)
from leggettsim.inequalities import (
    I26,
    I28,
    f_min,
    max_violation,
    v_min,
    violation_region,
)
from leggettsim.oracle import pair_term_max, verify_bound
from leggettsim.qstate import bell_state, correlation_tensor


def report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_criterion_1_six_setting_optimum():
    phi_star, value = max_violation(I26, 1.0)
    ok = (
        abs(math.degrees(phi_star) - 36.8699) <= 1e-4
        and abs(math.degrees(phi_star) - math.degrees(2 * math.atan(1 / 3))) <= 1e-6
        and abs(value - math.sqrt(40)) <= 1e-9
    )
    report("criterion 1: six-setting optimum (36.8699 deg, sqrt(40))", ok)


def test_criterion_2_eight_setting_optimum():
    phi_star, value = max_violation(I28, 1.0)
    ok = (
        abs(math.degrees(phi_star) - 44.4153) <= 1e-4
        and abs(math.degrees(phi_star) - math.degrees(2 * math.atan(1 / math.sqrt(6))))
        <= 1e-6
        and abs(value - 8 * math.sqrt(7 / 6)) <= 1e-9
    )
    report("criterion 2: eight-setting optimum (44.4153 deg, 8*sqrt(7/6))", ok)


def test_criterion_3_thresholds():
    ok = (
        abs(v_min(I26) - 0.942809) <= 1e-6
        and abs(f_min(I26) - 0.978318) <= 1e-6
        and abs(v_min(I28) - 0.912871) <= 1e-6
        and abs(f_min(I28) - 0.966775) <= 1e-6
    )
    report("criterion 3: visibility/fidelity thresholds", ok)


def test_criterion_4_sigma_arithmetic(capsys):
    code = main(["report", "--json"])
    out = capsys.readouterr().out
    import json

    sigmas = [r["sigmas_violation"] for r in json.loads(out)]
    ok = code == 0 and np.allclose(sigmas, [4.00, 10.91, 7.18, 15.51], atol=0.01)
    with capsys.disabled():
        report("criterion 4: sigma arithmetic on published values", ok)


def test_criterion_5_geometric_factors():
    triad = geometric_factor([X, Y, Z])
    tetra = geometric_factor(_TETRA)
    ok = abs(triad - 1.0) <= 1e-4 and abs(tetra - 4 / math.sqrt(6)) <= 1e-4
    report("criterion 5: geometric factors 1 and 4/sqrt(6)", ok)


def test_criterion_6_oracle_certification():
    phis = [10.0, 36.87, 44.42, 70.0, 88.83]
    ok = True
    for canonical in (canonical_i26, canonical_i28):
        for deg in phis:
            result = verify_bound(canonical(math.radians(deg)), 500)
            ok = ok and result.margin >= 0

    rng = np.random.default_rng(2024)
    for canonical, kind in ((canonical_i26, I26), (canonical_i28, I28)):
        phi = math.radians(40.0)
        config = canonical(phi)
        ceiling = kind.bound - kind.sine_coeff * math.sin(phi / 2)
        points = rng.normal(size=(10000, 2, 3))
        points /= np.linalg.norm(points, axis=2, keepdims=True)
        u, v = points[:5000, 0], points[:5000, 1]
        total = sum(
            pair_term_max(u @ config.alice[i], v @ m, v @ m_prime)
            for (m, m_prime), i in zip(config.pairs, config.pairing)
        )
        ok = ok and bool(np.all(total - ceiling <= 1e-12))
    report("criterion 6: oracle certification and per-lambda bound", ok)


def test_criterion_7_sampled_consistency():
    state = bell_state("phi_minus")
    phi = 2 * math.atan(1 / 3)
    config = adapt_to_state(correlation_tensor(state), canonical_i26(phi))
    values, sigmas = [], []
    for seed in range(50):
        result = run_one(state, config, 10**5, seed=seed)
        values.append(result.raw.value[0])
        sigmas.append(result.raw.sigma[0])
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    spread = float(np.std(values, ddof=1))
    propagated = float(np.mean(sigmas))
    ok = abs(mean - 6.3246) <= 3 * se + 1e-4 and abs(spread - propagated) / propagated < 0.20
    report("criterion 7: sampled mean and spread match quantum prediction", ok)


def test_criterion_8_readout_round_trip():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(100):
        model = ReadoutModel(*rng.uniform(0.9, 1.0, size=4))
        p = rng.dirichlet(np.ones(4))
        recovered = corrected_correlation(model, apply_confusion(model, [p])[0])
        if not abs(recovered - (p[0] - p[1] - p[2] + p[3])) <= 1e-10:
            ok = False
    report("criterion 8: readout correction round trip to 1e-10", ok)


def test_criterion_9_violation_regions():
    lo26, hi26 = violation_region(I26, 1.0)
    lo28, hi28 = violation_region(I28, 1.0)
    ok = (
        abs(math.degrees(lo26)) <= 1e-4
        and abs(math.degrees(hi26) - 73.7398) <= 1e-4
        and abs(math.degrees(lo28)) <= 1e-4
        and abs(math.degrees(hi28) - 88.8306) <= 1e-4
    )
    for kind in (I26, I28):
        ok = ok and violation_region(kind, v_min(kind) - 1e-6) is None
        ok = ok and violation_region(kind, v_min(kind) + 1e-6) is not None
    report("criterion 9: analytic violation regions and threshold behavior", ok)


def test_criterion_10_golden_sweep(tmp_path):
    args = [
        "sweep", "--inequality", "i26", "--shots", "0",
        "--phi-start", "0", "--phi-stop", "90", "--steps", "61",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = main(args + ["--out", str(a)]) == 0
    ok = ok and main(args + ["--out", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    report("criterion 10: analytic sweep is byte-stable", ok)
