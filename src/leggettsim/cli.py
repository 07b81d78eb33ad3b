"""Command-line front end.

Subcommands: sweep, verify, thresholds, report, simulate.  Angles are
degrees at the CLI boundary and radians internally.  Exit codes: 0 ok,
1 verification failure, 2 usage/config error, 3 I/O error.

Import rule: at module level this file imports only the standard library
and the numpy-free ``inequalities``.  The numpy-backed modules (``qstate``,
``geometry``, ``expsim``, ``oracle``) are imported inside the commands that
need them, so ``thresholds``, ``report`` and the analytic ``sweep --shots 0``
start without loading numpy.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields

from . import inequalities

PUBLISHED_VALUES = (
    {"kind": "i26", "dataset": "raw", "value": 6.136, "sigma": 0.034},
    {"kind": "i26", "dataset": "corrected", "value": 6.382, "sigma": 0.035},
    {"kind": "i28", "dataset": "raw", "value": 8.323, "sigma": 0.045},
    {"kind": "i28", "dataset": "corrected", "value": 8.729, "sigma": 0.047},
)

SWEEP_COLUMNS = (
    "phi_deg",
    "I_analytic",
    "bound",
    "I_raw",
    "sigma_raw",
    "I_corrected",
    "sigma_corrected",
    "sigmas_violation_raw",
    "sigmas_violation_corrected",
    "violated",
    "marginal",
)


# sweep steps made and written per block: a sampled block is one stack,
# and memory is bounded by one block
_SWEEP_BLOCK = 64


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    inequality: str = "i26"
    visibility: float = 1.0
    phi_start: float = 0.0
    phi_stop: float = 90.0
    steps: int = 61
    shots: int = 0  # 0 is the analytic-only sentinel
    seed: int = 0
    correct: bool = False
    f0_nuclear: float = 1.0
    f1_nuclear: float = 1.0
    f0_electron: float = 1.0
    f1_electron: float = 1.0
    out: str = ""
    format: str = "csv"

    def validate(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), type(f.default))
        if self.inequality not in inequalities.KINDS:
            raise UsageError(f"inequality: unknown kind {self.inequality!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise UsageError(f"visibility: must lie in [0, 1], got {self.visibility}")
        if not 0.0 <= self.phi_start <= self.phi_stop <= 180.0:
            raise UsageError(
                f"phi range: need 0 <= start <= stop <= 180, got "
                f"[{self.phi_start}, {self.phi_stop}]"
            )
        if self.steps < 1:
            raise UsageError(f"steps: must be >= 1, got {self.steps}")
        # counts are exact in float64 only up to 2**53
        if not 0 <= self.shots <= 2**53:
            raise UsageError(f"shots: must lie in [0, 2**53], got {self.shots}")
        if not 0 <= self.seed < 2**32:
            raise UsageError(f"seed: must lie in [0, 2**32), got {self.seed}")
        for name in ("f0_nuclear", "f1_nuclear", "f0_electron", "f1_electron"):
            f = getattr(self, name)
            if not 0.5 < f <= 1.0:
                raise UsageError(f"{name}: must lie in (0.5, 1], got {f}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format: must be csv or json, got {self.format!r}")

    @classmethod
    def load(cls, args) -> "RunConfig":
        values = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise UsageError(f"config: cannot read {args.config}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise UsageError(f"config: {args.config}: {exc}") from exc
            if not isinstance(data, dict):
                raise UsageError(f"config: {args.config}: expected a JSON object")
            # only the fields this subcommand has flags for
            known = {f.name for f in fields(cls) if hasattr(args, f.name)}
            for key, value in data.items():
                if key not in known:
                    raise UsageError(f"config: unknown field {key!r}")
                values[key] = value
        for f in fields(cls):
            override = getattr(args, f.name, None)
            if override is not None:
                values[f.name] = override
        try:
            config = cls(**values)
        except TypeError as exc:
            raise UsageError(f"config: {exc}") from exc
        config.validate()
        # a JSON int in a float field prints like the flag's float
        for f in fields(cls):
            if type(f.default) is float:
                setattr(config, f.name, float(getattr(config, f.name)))
        return config


def _check_type(name: str, value, expected: type):
    """Reject a value whose type is not ``expected``; a float also accepts an int.

    bool is an int subclass, so it is accepted only where bool is expected.
    """
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise UsageError(
            f"{name}: expected {expected.__name__}, got {type(value).__name__} {value!r}"
        )


def _check_phi_deg(phi_deg: float):
    if not 0.0 <= phi_deg <= 180.0:
        raise UsageError(f"phi: must lie in [0, 180], got {phi_deg}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_table(rows, columns, fmt: str, out_path: str):
    """Write a non-empty iterable of rows as CSV or as one JSON list.

    Rows are formatted and written one at a time, so memory does not grow
    with their number; the bytes equal those of joining every row first.
    The first row is computed before ``out_path`` is opened, so an error
    while computing it leaves no output.
    """
    rows = iter(rows)
    rows = itertools.chain([next(rows)], rows)
    if fmt == "json":
        chunks = _json_list_chunks(dict(zip(columns, row)) for row in rows)
    else:
        header = [",".join(columns) + "\n"]
        body = (",".join(_fmt(cell) for cell in row) + "\n" for row in rows)
        chunks = itertools.chain(header, body)
    _write_chunks(chunks, out_path)


def _json_list_chunks(items):
    """The text of json.dumps(list(items), indent=2) + "\n", item by item."""
    separator = "[\n  "
    for item in items:
        # each item sits one indent level inside the list
        yield separator + json.dumps(item, indent=2).replace("\n", "\n  ")
        separator = ",\n  "
    yield "\n]\n"


def _write_text(text: str, out_path: str):
    _write_chunks([text], out_path)


def _write_chunks(chunks, out_path: str):
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IOError(f"cannot write {out_path}: {exc}") from exc


def cmd_sweep(args) -> int:
    config = RunConfig.load(args)
    _write_table(_sweep_rows(config), SWEEP_COLUMNS, config.format, config.out)
    return 0


def _sweep_rows(config: RunConfig):
    """Yield the rows of a phi sweep in step order.

    Steps go in blocks of ``_SWEEP_BLOCK``, and a sampled sweep runs each
    block as one ``run_experiments`` stack.  A block's rows are yielded once
    it is done, so memory is bounded by one block whatever the number of
    steps; each row equals that of its step run alone.  Sampled cells are
    read from the block's columns through ``tolist``, so they are floats;
    an analytic sweep leaves them empty.
    """
    kind = inequalities.KINDS[config.inequality]
    experiment = _experiment(config) if config.shots > 0 else None
    for first in range(0, config.steps, _SWEEP_BLOCK):
        stop = min(first + _SWEEP_BLOCK, config.steps)
        phis_deg = [_sweep_phi_deg(config, i) for i in range(first, stop)]
        phis = [math.radians(phi_deg) for phi_deg in phis_deg]
        raw = corrected = [[None] * len(phis)] * 3
        if experiment:
            block = experiment(phis, first_step=first)
            raw = _columns(block.raw)
            if config.correct:
                corrected = _columns(block.corrected)
        for phi_deg, phi, *cells in zip(phis_deg, phis, *raw, *corrected):
            i_raw, sigma_raw, nsig_raw, i_corr, sigma_corr, nsig_corr = cells
            analytic = inequalities.quantum_value(kind, phi, config.visibility)
            value, sigma = (i_corr, sigma_corr) if config.correct else (i_raw, sigma_raw)
            if value is None:
                value = analytic
            yield (
                phi_deg,
                analytic,
                kind.bound,
                i_raw,
                sigma_raw,
                i_corr,
                sigma_corr,
                nsig_raw,
                nsig_corr,
                value > kind.bound,
                None if sigma is None else abs(value - kind.bound) < 3.0 * sigma,
            )


def _columns(estimates) -> list:
    """Values, sigmas and sigmas of violation of a block, as lists of floats."""
    return [estimates.value.tolist(), estimates.sigma.tolist(), estimates.sigmas_violation.tolist()]


def _sweep_phi_deg(config: RunConfig, i: int) -> float:
    """The angle of sweep step ``i``, in degrees."""
    if config.steps == 1:
        return config.phi_start
    return config.phi_start + i * (config.phi_stop - config.phi_start) / (config.steps - 1)


def _experiment(config: RunConfig):
    """Return run(phis, first_step=0), the configured sampled experiments.

    The Werner state of phi_minus, its correlation tensor, the readout model and the
    canonical configuration adapted to the state are built and checked
    once; each call samples that configuration at each phi (radians) as one
    ``run_experiments`` block, experiment j with the streams of sweep step
    ``first_step + j``.  ``simulate`` is a block of one at step 0.
    """
    from . import expsim, geometry, qstate

    state = qstate.werner(config.visibility)
    readout = expsim.ReadoutModel(
        config.f0_nuclear, config.f1_nuclear, config.f0_electron, config.f1_electron
    )
    # the canonical bisectors do not depend on phi, so neither does the
    # adaptation: these are the bits adapt_to_state gives at every phi
    template = geometry.adapt_to_state(state.tensor, geometry.CANONICAL[config.inequality](0.0))

    return functools.partial(
        expsim.run_experiments,
        state,
        template,
        shots_per_setting=config.shots,
        seed=config.seed,
        readout=readout,
        correct=config.correct,
    )


def cmd_verify(args) -> int:
    if args.grid_size < 50:
        raise UsageError(f"grid-size: must be >= 50, got {args.grid_size}")
    if not args.phi:
        raise UsageError("phi: at least one angle required")
    for phi_deg in args.phi:
        _check_phi_deg(phi_deg)
    from . import geometry, oracle

    if args.grid_size > oracle.MAX_GRID_SIZE:
        raise UsageError(f"grid-size: must be <= {oracle.MAX_GRID_SIZE}, got {args.grid_size}")
    canonical = geometry.CANONICAL[args.inequality]
    reports = []
    all_pass = True
    for phi_deg in args.phi:
        report = oracle.verify_bound(canonical(math.radians(phi_deg)), args.grid_size)
        reports.append(report.to_json_dict())
        all_pass = all_pass and report.passed
    _write_text(json.dumps(reports, indent=2) + "\n", args.out or "")
    return 0 if all_pass else 1


def thresholds_payload(tag: str) -> dict:
    """Optimum and visibility/fidelity thresholds of one inequality."""
    kind = inequalities.KINDS[tag]
    phi_star, max_value = inequalities.max_violation(kind, 1.0)
    return {
        "v_min": inequalities.v_min(kind),
        "f_min": inequalities.f_min(kind),
        "phi_star_deg": math.degrees(phi_star),
        "max_value": max_value,
    }


def cmd_thresholds(args) -> int:
    payload = thresholds_payload(args.inequality)
    _write_text(json.dumps(payload, indent=2) + "\n", args.out or "")
    return 0


def _check_report_entries(entries, path: str):
    """Raise UsageError unless entries is a list of {kind, value, sigma} objects."""
    if not isinstance(entries, list):
        raise UsageError(f"from-file: {path}: expected a JSON list of entries")
    for i, entry in enumerate(entries):
        where = f"from-file: {path}: entry {i}"
        if not isinstance(entry, dict):
            raise UsageError(f"{where}: expected an object, got {entry!r}")
        missing = [key for key in ("kind", "value", "sigma") if key not in entry]
        if missing:
            raise UsageError(f"{where}: missing {', '.join(missing)}")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in inequalities.KINDS:
            raise UsageError(f"{where}: unknown kind {kind!r}")
        for key in ("value", "sigma"):
            _check_type(f"{where}: {key}", entry[key], float)
        # json.load accepts NaN, Infinity and ints beyond a float's range
        try:
            value, sigma = float(entry["value"]), float(entry["sigma"])
        except OverflowError as exc:
            raise UsageError(f"{where}: {exc}") from exc
        if not math.isfinite(value):
            raise UsageError(f"{where}: value: expected a finite number, got {value!r}")
        # "not within range" rather than "outside it", so that NaN fails
        if not 0.0 < sigma < math.inf:
            raise UsageError(f"{where}: sigma: expected a positive number, got {sigma!r}")


def cmd_report(args) -> int:
    if args.from_file:
        try:
            with open(args.from_file) as fh:
                entries = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read {args.from_file}: {exc}") from exc
        _check_report_entries(entries, args.from_file)
    else:
        entries = [dict(e) for e in PUBLISHED_VALUES]
    rows = []
    for entry in entries:
        kind = inequalities.KINDS[entry["kind"]]
        nsig = inequalities.sigma_violation(entry["value"], entry["sigma"], kind)
        rows.append(
            {
                "kind": entry["kind"],
                "dataset": entry.get("dataset", ""),
                "value": entry["value"],
                "sigma": entry["sigma"],
                "bound": kind.bound,
                "sigmas_violation": nsig,
            }
        )
    if args.json:
        _write_text(json.dumps(rows, indent=2) + "\n", args.out or "")
    else:
        lines = ["kind dataset value sigma bound sigmas_violation"]
        for r in rows:
            lines.append(
                f"{r['kind']} {r['dataset']} {r['value']:.3f} {r['sigma']:.3f} "
                f"{r['bound']:.0f} {r['sigmas_violation']:.2f}"
            )
        _write_text("\n".join(lines) + "\n", args.out or "")
    return 0


def cmd_simulate(args) -> int:
    config = RunConfig.load(args)
    if config.shots < 1:
        raise UsageError("shots: simulate requires shots >= 1")
    _check_phi_deg(args.phi)
    data = _experiment(config)([math.radians(args.phi)]).to_json_dict(0)
    # the degrees given, as sweep writes them, not their round trip through radians
    for part in (data, data["raw"], data.get("corrected", {}), data["config"]):
        part["phi_deg"] = args.phi
    _write_text(json.dumps(data, indent=2) + "\n", config.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_run_options(sub):
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--inequality", choices=tuple(inequalities.KINDS), default=None)
    sub.add_argument("--visibility", type=float, default=None)
    sub.add_argument("--shots", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--correct", action="store_const", const=True, default=None)
    sub.add_argument("--f0-nuclear", dest="f0_nuclear", type=float, default=None)
    sub.add_argument("--f1-nuclear", dest="f1_nuclear", type=float, default=None)
    sub.add_argument("--f0-electron", dest="f0_electron", type=float, default=None)
    sub.add_argument("--f1-electron", dest="f1_electron", type=float, default=None)
    sub.add_argument("--out", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(prog="leggettsim")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="phi sweep; shots=0 is analytic-only")
    _add_run_options(sweep)
    sweep.add_argument("--phi-start", dest="phi_start", type=float, default=None)
    sweep.add_argument("--phi-stop", dest="phi_stop", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default=None)

    verify = subs.add_parser("verify", help="grid check of the hidden-variable bound")
    verify.add_argument("--inequality", choices=tuple(inequalities.KINDS), required=True)
    verify.add_argument("--phi", type=float, action="append", help="degrees; repeatable")
    verify.add_argument("--grid-size", dest="grid_size", type=int, default=500)
    verify.add_argument("--out", default=None)

    thresholds = subs.add_parser("thresholds", help="visibility/fidelity thresholds")
    thresholds.add_argument("--inequality", choices=tuple(inequalities.KINDS), required=True)
    thresholds.add_argument("--out", default=None)

    report = subs.add_parser("report", help="sigma arithmetic on published values")
    report.add_argument("--json", action="store_true")
    report.add_argument("--from-file", dest="from_file", default=None)
    report.add_argument("--out", default=None)

    simulate = subs.add_parser("simulate", help="single-phi experiment simulation")
    _add_run_options(simulate)
    simulate.add_argument("--phi", type=float, required=True, help="degrees")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # looked up at call time, so a rebound cmd_* is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
