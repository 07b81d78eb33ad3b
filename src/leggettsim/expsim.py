"""Finite-shot Monte Carlo simulation of the correlation experiment.

Sampling uses numpy's PCG64 generator.  ``run_experiment`` is the only
sampler; its one seeding rule is SeedSequence([seed, setting_index, step]),
with ``simulate`` as step 0.  Seeds and steps lie in [0, 2**32), one word
each, so no two streams coincide and results do not depend on execution
order or platform.

Readout confusion is applied to the outcome probabilities before
sampling; this is equivalent in distribution to flipping sampled
outcomes and exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import SettingsConfig
from .inequalities import InequalityKind, InequalityValue, evaluate, sigma_violation
from .qstate import TwoQubitState, joint_probabilities

MAX_CONDITION_NUMBER = 1e6


class ConditioningError(ValueError):
    """Raised when the readout confusion matrix is too ill-conditioned to invert."""


def _check_confusion_2x2(r: np.ndarray, name: str) -> np.ndarray:
    r = np.array(r, dtype=float)
    if r.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {r.shape}")
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if np.max(np.abs(r.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError(f"{name} columns must sum to 1")
    r.setflags(write=False)
    return r


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit confusion matrices; column j is P(reported | true = j).

    ``r_a`` and ``r_b`` are read-only copies, so the joint matrix and its
    condition number, each computed once, cannot go stale.
    """

    r_a: np.ndarray
    r_b: np.ndarray

    def __post_init__(self):
        r_a = _check_confusion_2x2(self.r_a, "r_a")
        r_b = _check_confusion_2x2(self.r_b, "r_b")
        joint = np.kron(r_a, r_b)
        joint.setflags(write=False)
        object.__setattr__(self, "r_a", r_a)
        object.__setattr__(self, "r_b", r_b)
        object.__setattr__(self, "_joint", joint)

    @classmethod
    def from_fidelities(cls, f0_a: float, f1_a: float, f0_b: float, f1_b: float):
        def single(f0, f1):
            return np.array([[f0, 1.0 - f1], [1.0 - f0, f1]])

        return cls(r_a=single(f0_a, f1_a), r_b=single(f0_b, f1_b))

    @classmethod
    def identity(cls):
        return cls(r_a=np.eye(2), r_b=np.eye(2))

    def joint(self) -> np.ndarray:
        """4x4 confusion over outcomes ordered (++, +-, -+, --)."""
        return self._joint

    @cached_property
    def _condition_number(self) -> float:
        # computed on the first correction only: a model never used to
        # correct never raises ConditioningError
        return float(np.linalg.cond(self._joint))


def apply_confusion(model: ReadoutModel, p) -> np.ndarray:
    """Reported-outcome distribution R p for true distribution p."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"expected 4 probabilities, got shape {p.shape}")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-12):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return model.joint() @ p


def correct_readout(model: ReadoutModel, p_measured) -> np.ndarray:
    """Invert the confusion, clip negatives to zero and renormalize."""
    corrected, _ = _correct_readout(model, p_measured)
    return corrected


def _correct_readout(model: ReadoutModel, p_measured):
    p_measured = np.asarray(p_measured, dtype=float)
    if p_measured.shape != (4,):
        raise ValueError(f"expected 4 probabilities, got shape {p_measured.shape}")
    r = model.joint()
    cond = model._condition_number
    if not np.isfinite(cond) or cond > MAX_CONDITION_NUMBER:
        raise ConditioningError(
            f"confusion matrix condition number {cond:.3g} exceeds {MAX_CONDITION_NUMBER:.0e}"
        )
    p = np.linalg.solve(r, p_measured)
    clipped = bool(np.any(p < -1e-12))
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0.0:
        raise ValueError("corrected probabilities sum to zero")
    return p / total, clipped


def estimate_correlation(counts):
    """(C_hat, sigma) from outcome counts; sigma = sqrt((1 - C^2)/N)."""
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total < 1:
        raise ValueError("counts must sum to at least 1")
    c_hat = float(counts[0] + counts[3] - counts[1] - counts[2]) / total
    sigma = math.sqrt(max(1.0 - c_hat * c_hat, 0.0) / total)
    return c_hat, sigma


@dataclass(frozen=True)
class SettingRecord:
    setting_id: int
    alice_index: int
    n: np.ndarray
    m: np.ndarray
    counts: np.ndarray
    c_raw: float
    sigma_raw: float
    c_corrected: Optional[float] = None
    sigma_corrected: Optional[float] = None


@dataclass(frozen=True)
class ExperimentResult:
    kind: InequalityKind
    phi: float
    shots_per_setting: int
    seed: int
    settings: tuple
    raw: InequalityValue
    sigma_raw: float
    sigmas_violation_raw: float
    corrected: Optional[InequalityValue] = None
    sigma_corrected: Optional[float] = None
    sigmas_violation_corrected: Optional[float] = None
    clip_events: int = 0
    config: Optional[SettingsConfig] = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind.tag,
            "phi_deg": math.degrees(self.phi),
            "shots_per_setting": self.shots_per_setting,
            "seed": self.seed,
            "settings": [
                {
                    "setting_id": rec.setting_id,
                    "alice_index": rec.alice_index,
                    "n": list(rec.n),
                    "m": list(rec.m),
                    "counts": [int(c) for c in rec.counts],
                    "c_raw": rec.c_raw,
                    "sigma_raw": rec.sigma_raw,
                    "c_corrected": rec.c_corrected,
                    "sigma_corrected": rec.sigma_corrected,
                }
                for rec in self.settings
            ],
            "raw": self.raw.to_json_dict(),
            "sigma_raw": self.sigma_raw,
            "sigmas_violation_raw": self.sigmas_violation_raw,
            "clip_events": self.clip_events,
        }
        if self.corrected is not None:
            out["corrected"] = self.corrected.to_json_dict()
            out["sigma_corrected"] = self.sigma_corrected
            out["sigmas_violation_corrected"] = self.sigmas_violation_corrected
        if self.config is not None:
            out["config"] = self.config.to_json_dict()
        return out


def run_experiment(
    state: TwoQubitState,
    config: SettingsConfig,
    kind: InequalityKind,
    shots_per_setting: int,
    seed: int,
    readout: Optional[ReadoutModel] = None,
    correct: bool = False,
    step: int = 0,
) -> ExperimentResult:
    """Sample every setting, estimate correlations and assemble the result.

    Each setting draws its outcome counts, ordered (++, +-, -+, --), from
    SeedSequence([seed, setting_index, step]); ``simulate`` is step 0 and
    sweep step k is step k.  ``seed`` and ``step`` must lie in [0, 2**32).
    The confusion model is folded into the sampling distribution.
    """
    if shots_per_setting < 1:
        raise ValueError(f"shots must be >= 1, got {shots_per_setting}")
    for name, value in (("seed", seed), ("step", step)):
        if not 0 <= value < 2**32:
            raise ValueError(f"{name} must lie in [0, 2**32), got {value}")
    if readout is None:
        readout = ReadoutModel.identity()
    if len(config.pairs) != kind.num_pairs:
        raise ValueError(
            f"config has {len(config.pairs)} pairs but {kind.tag} needs {kind.num_pairs}"
        )
    records = []
    clip_events = 0
    for setting_id, alice_idx, n, m in config.settings():
        p_true = joint_probabilities(state, n, m)
        p_phys = apply_confusion(readout, p_true)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, setting_id, step]))
        )
        counts = rng.multinomial(shots_per_setting, p_phys / p_phys.sum())
        c_raw, sigma_raw = estimate_correlation(counts)
        c_corr = sigma_corr = None
        if correct:
            freqs = counts / shots_per_setting
            p_corr, clipped = _correct_readout(readout, freqs)
            clip_events += int(clipped)
            c_corr = float(p_corr[0] + p_corr[3] - p_corr[1] - p_corr[2])
            sigma_corr = math.sqrt(max(1.0 - c_corr * c_corr, 0.0) / shots_per_setting)
        records.append(
            SettingRecord(
                setting_id=setting_id,
                alice_index=alice_idx,
                n=n,
                m=m,
                counts=counts,
                c_raw=c_raw,
                sigma_raw=sigma_raw,
                c_corrected=c_corr,
                sigma_corrected=sigma_corr,
            )
        )

    def assemble(values, sigmas):
        pairs = [(values[2 * i], values[2 * i + 1]) for i in range(kind.num_pairs)]
        ineq = evaluate(kind, config.phi, pairs)
        # pair terms treated as sign-fixed; invalid near |C + C'| = 0
        sigma = math.sqrt(sum(s * s for s in sigmas))
        if sigma == 0.0:
            excess = ineq.value - kind.bound
            nsig = math.inf if excess > 0 else (-math.inf if excess < 0 else 0.0)
            return ineq, sigma, nsig
        return ineq, sigma, sigma_violation(ineq.value, sigma, kind)

    raw, sigma_raw_total, nsig_raw = assemble(
        [r.c_raw for r in records], [r.sigma_raw for r in records]
    )
    corrected = sigma_corr_total = nsig_corr = None
    if correct:
        corrected, sigma_corr_total, nsig_corr = assemble(
            [r.c_corrected for r in records], [r.sigma_corrected for r in records]
        )
    return ExperimentResult(
        kind=kind,
        phi=config.phi,
        shots_per_setting=shots_per_setting,
        seed=seed,
        settings=tuple(records),
        raw=raw,
        sigma_raw=sigma_raw_total,
        sigmas_violation_raw=nsig_raw,
        corrected=corrected,
        sigma_corrected=sigma_corr_total,
        sigmas_violation_corrected=nsig_corr,
        clip_events=clip_events,
        config=config,
    )
