"""Output checks, computed independently of ``leggettsim``.

Each check returns a list of problems (empty when the output is correct).
Expected values come from closed forms, never from the package under test:

* Werner state of visibility V with optimally adapted settings: every
  correlation is V cos(phi/2), so I = bound V cos(phi/2) + s sin(phi/2).
* Independent readout flips with fidelities (f0, f1) per qubit turn a
  correlation C with zero marginals into alpha_A alpha_B + beta_A beta_B C,
  where alpha = f0 - f1 and beta = f0 + f1 - 1.
* The grid oracle approaches the bound from below, falling short by at most
  about sin(phi/2) times the grid spacing sqrt(4 pi / grid).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

# inequality tag -> (bound, sine coefficient, number of setting pairs)
INEQUALITIES = {
    "i26": (6.0, 2.0, 3),
    "i28": (8.0, 8.0 / math.sqrt(6.0), 4),
}

# a sampled value further than this many sigmas from its expectation fails
K_SIGMA = 6.0
# exact closed forms are compared to this absolute tolerance
EXACT_TOL = 1e-12
# margin <= GRID_MARGIN_FACTOR * sin(phi/2) * sqrt(4 pi / grid); the largest
# ratio seen over random angles at grids 500 and 2000 is 0.78
GRID_MARGIN_FACTOR = 2.0
MARGIN_SLACK = 1e-9

# sha256 of `leggettsim sweep --shots 0 --steps 61` on stdout; the analytic
# CSV must stay byte-identical
ANALYTIC_SWEEP_SHA256 = "fa2835d10c8d5a272cb990ae28e58c77ae2bdff0f3ab21280eacb87d0dd1b535"


def analytic_value(tag: str, phi: float, visibility: float) -> float:
    bound, sine, _ = INEQUALITIES[tag]
    return bound * visibility * math.cos(phi / 2.0) + sine * math.sin(phi / 2.0)


def readout_gain(fidelities):
    """(alpha_A alpha_B, beta_A beta_B) for fidelities (f0_A, f1_A, f0_B, f1_B)."""
    f0a, f1a, f0b, f1b = fidelities
    return (f0a - f1a) * (f0b - f1b), (f0a + f1a - 1.0) * (f0b + f1b - 1.0)


def expected_raw_value(tag: str, phi: float, visibility: float, fidelities) -> float:
    bound, sine, pairs = INEQUALITIES[tag]
    offset, gain = readout_gain(fidelities)
    c_raw = offset + gain * visibility * math.cos(phi / 2.0)
    return pairs * abs(2.0 * c_raw) + sine * math.sin(phi / 2.0)


def check_sampled(tag, phi, visibility, fidelities, i_raw, sigma_raw, i_corr, sigma_corr, zs):
    """Check one sampled inequality value; append (z_raw, z_corrected) to zs."""
    problems = []
    if not (math.isfinite(sigma_raw) and sigma_raw > 0.0):
        return [f"sigma_raw {sigma_raw!r} is not positive"]
    expected_raw = expected_raw_value(tag, phi, visibility, fidelities)
    if abs(i_raw - expected_raw) > K_SIGMA * sigma_raw:
        problems.append(f"I_raw {i_raw} is not within {K_SIGMA} sigma of {expected_raw}")
    analytic = analytic_value(tag, phi, visibility)
    gain = readout_gain(fidelities)[1]
    if abs(i_corr - analytic) > K_SIGMA * sigma_raw / gain:
        problems.append(f"I_corrected {i_corr} is not within {K_SIGMA} sigma/beta of {analytic}")
    z_corr = (i_corr - analytic) / sigma_corr if sigma_corr > 0.0 else math.nan
    zs.append(((i_raw - expected_raw) / sigma_raw, z_corr))
    return problems


def check_sweep_csv(text, tag, visibility, fidelities, steps, phi_stop, zs):
    """Check a sampled, corrected sweep CSV covering phi in [0, phi_stop]."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != steps:
        return [f"expected {steps} rows, got {len(rows)}"]
    bound = INEQUALITIES[tag][0]
    problems = []
    for i, row in enumerate(rows):
        try:
            phi_deg = float(row["phi_deg"])
            values = {k: float(row[k]) for k in (
                "I_analytic", "bound", "I_raw", "sigma_raw", "I_corrected", "sigma_corrected"
            )}
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {i}: unreadable ({exc!r})")
            continue
        if abs(phi_deg - i * phi_stop / (steps - 1)) > EXACT_TOL * phi_stop:
            problems.append(f"row {i}: phi_deg {phi_deg}")
        phi = math.radians(phi_deg)
        analytic = analytic_value(tag, phi, visibility)
        if abs(values["I_analytic"] - analytic) > EXACT_TOL * bound:
            problems.append(f"row {i}: I_analytic {values['I_analytic']} != {analytic}")
        if values["bound"] != bound:
            problems.append(f"row {i}: bound {values['bound']} != {bound}")
        problems += [
            f"row {i}: {p}"
            for p in check_sampled(
                tag, phi, visibility, fidelities, values["I_raw"], values["sigma_raw"],
                values["I_corrected"], values["sigma_corrected"], zs,
            )
        ]
    return problems


def check_bound_report(report: dict, tag: str, phi_deg: float, grid: int):
    """Check one ``verify`` report: passed, and 0 <= margin <= grid tolerance."""
    bound = INEQUALITIES[tag][0]
    problems = []
    if report.get("kind") != tag or report.get("grid_size") != grid:
        problems.append(f"report is for {report.get('kind')} at grid {report.get('grid_size')}")
    if report.get("bound") != bound:
        problems.append(f"bound {report.get('bound')} != {bound}")
    margin = report.get("margin")
    spacing = math.sqrt(4.0 * math.pi / grid)
    limit = GRID_MARGIN_FACTOR * math.sin(math.radians(phi_deg) / 2.0) * spacing
    if not isinstance(margin, float) or not -MARGIN_SLACK <= margin <= limit + MARGIN_SLACK:
        problems.append(f"margin {margin!r} outside [0, {limit:.3g}]")
    elif abs(bound - report.get("oracle_value", math.nan) - margin) > EXACT_TOL * bound:
        problems.append(f"margin {margin} != bound - oracle_value")
    return problems


def check_thresholds(stdout: str, tag: str):
    bound, sine, _ = INEQUALITIES[tag]
    data = json.loads(stdout)
    problems = []
    v_min = math.sqrt(1.0 - (sine / bound) ** 2)
    if abs(data["v_min"] - v_min) > EXACT_TOL:
        problems.append(f"v_min {data['v_min']} != {v_min}")
    if abs(data["max_value"] - math.hypot(bound, sine)) > EXACT_TOL * bound:
        problems.append(f"max_value {data['max_value']} != {math.hypot(bound, sine)}")
    return problems


def check_report(stdout: str):
    """Each published value's sigmas of violation is (value - bound) / sigma."""
    lines = stdout.splitlines()
    if len(lines) != 5 or lines[0] != "kind dataset value sigma bound sigmas_violation":
        return [f"unexpected report layout: {lines[:1]} and {len(lines)} lines"]
    problems = []
    for line in lines[1:]:
        tag, _, value, sigma, bound, nsig = line.split()
        expected = (float(value) - INEQUALITIES[tag][0]) / float(sigma)
        if float(bound) != INEQUALITIES[tag][0] or nsig != f"{expected:.2f}":
            problems.append(f"report line {line!r}: expected {expected:.2f} sigmas")
    return problems


def check_analytic_sweep(stdout: str):
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != ANALYTIC_SWEEP_SHA256:
        return [f"analytic sweep sha256 {digest} != pinned {ANALYTIC_SWEEP_SHA256}"]
    return []


def check_simulate(stdout: str, tag: str, phi_deg: float, zs):
    """``simulate`` at visibility 1 with perfect readout, corrected."""
    data = json.loads(stdout)
    if len(data["settings"]) != 2 * INEQUALITIES[tag][2]:
        return [f"simulate reported {len(data['settings'])} settings"]
    return check_sampled(
        tag, math.radians(phi_deg), 1.0, (1.0, 1.0, 1.0, 1.0),
        data["raw"]["value"], data["sigma_raw"],
        data["corrected"]["value"], data["sigma_corrected"], zs,
    )


def check_verify(stdout: str, tag: str, phi_deg: float, grid: int):
    reports = json.loads(stdout)
    if len(reports) != 1:
        return [f"verify printed {len(reports)} reports"]
    return check_bound_report(reports[0], tag, phi_deg, grid)
