"""Finite-shot Monte Carlo simulation of the correlation experiment.

Sampling uses numpy's PCG64 generator.  ``run_experiments`` is the only
sampler; it runs one configuration at a block of K angles, experiment k at
step ``first_step + k``, and ``simulate`` is a block of one.  Its one
seeding rule is one stream per experiment: the experiment at a step draws
the counts of its settings, in setting order, from
``Generator(PCG64(SeedSequence([seed, step])))``, with ``simulate`` as step
0.  Seeds and steps lie in [0, 2**32), one word each, so no two streams
coincide and results do not depend on execution order, block size or
platform.  A setting's counts do depend on the settings drawn before it in
the same experiment.

A block stays in read-only arrays from the angles to the numbers
(``ExperimentBlock``): settings as (K, P, 2, 3), counts as (K, 2P, 4), and
for the raw and the corrected data (``Estimates``) per-setting
correlations as (K, 2P), pair terms as (K, P) and values, sigmas and
sigmas of violation as (K,).  ``joint_probabilities``,
``apply_confusion`` and ``estimate`` each take the whole stack of
S = 2PK settings; row i of a stacked call has the bits of a call on row
i alone.  Sums over outcomes, settings and pairs add columns left to
right, so the bits do not depend on the interpreter's ``sum``.  Only the
draws loop, once per experiment: one ``multinomial`` call on the
experiment's (2P, 4) probabilities, which draws the bits of one call per
setting on the same generator.

A readout model is its four fidelities; its confusion R is applied to the
outcome probabilities before sampling, which is equivalent in
distribution to flipping sampled outcomes and exactly reproducible.  Raw
and corrected data have one estimator, ``estimate``: a gain vector g
applied to each setting's counts over their own total, with its
multinomial sigma.  Raw data use g = (1, -1, -1, 1); corrected data use
g = R^-T (1, -1, -1, 1), the linear inversion, which is unbiased and
unclipped, so a corrected correlation may lie outside [-1, 1].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import SettingsConfig, pair_stacks
from .qstate import _ALPHA_BETA, TwoQubitState, _frozen, joint_probabilities

MAX_CONDITION_NUMBER = 1e6


class ConditioningError(ValueError):
    """Raised when the readout confusion matrix is too ill-conditioned to invert."""


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Readout fidelities of qubit a (Alice) and b (Bob); ``ReadoutModel()`` is perfect.

    f0 and f1 are the probabilities that a true 0 and a true 1 are reported
    as such, so a qubit's confusion, column j P(reported | true = j), is
    R = [[f0, 1 - f1], [1 - f0, f1]], the form of every column-stochastic
    2x2 matrix.  ``joint``, np.kron(R_a, R_b) over outcomes ordered
    (++, +-, -+, --), is built once and read-only.
    """

    f0_a: float = 1.0
    f1_a: float = 1.0
    f0_b: float = 1.0
    f1_b: float = 1.0
    joint: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("f0_a", "f1_a", "f0_b", "f1_b"):
            f = getattr(self, name)
            # bool is an int; "not within range" rather than "outside it", so that NaN fails
            if isinstance(f, bool) or not isinstance(f, numbers.Real) or not 0.0 <= f <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {f!r}")
            object.__setattr__(self, name, float(f))

        def single(f0, f1):
            return np.array([[f0, 1.0 - f1], [1.0 - f0, f1]])

        joint = np.kron(single(self.f0_a, self.f1_a), single(self.f0_b, self.f1_b))
        object.__setattr__(self, "joint", _frozen(joint))

    @cached_property
    def _inverse(self) -> np.ndarray:
        """R^-1, once R's condition number is checked against
        MAX_CONDITION_NUMBER.  Computed on the first correction only, so a
        model never used to correct never raises ConditioningError."""
        cond = float(np.linalg.cond(self.joint))
        if not cond <= MAX_CONDITION_NUMBER:
            raise ConditioningError(
                f"confusion matrix condition number {cond:.3g} exceeds {MAX_CONDITION_NUMBER:.0e}"
            )
        return _frozen(np.linalg.inv(self.joint))

    @cached_property
    def _gain(self) -> np.ndarray:
        """g = R^-T (1, -1, -1, 1), the signed rows of R^-1 added left to
        right: the corrected correlation of reported frequencies f is g . f."""
        inverse = self._inverse
        return _frozen(inverse[0] - inverse[1] - inverse[2] + inverse[3])


def apply_confusion(model: ReadoutModel, p) -> np.ndarray:
    """Reported-outcome distributions R p for the (S, 4) stack p of true ones.

    Row i of the result has the bits of a call on row i alone.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"expected an (S, 4) stack of probabilities, got shape {p.shape}")
    # "not within tolerance" rather than "beyond it", so that NaN fails
    if not (np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9 and p.min() >= -1e-12):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    # R @ p[:, None] per row; p @ R.T on the stack would round differently
    return (model.joint @ p[:, :, None])[:, :, 0]


def estimate(counts, gain):
    """Correlations and their sigmas from an (S, 4) stack of outcome counts.

    A setting's correlation is c = (sum_j g_j n_j)/N for its counts n and
    their total N, with ``gain`` g: (1, -1, -1, 1) for raw data, and
    R^-T (1, -1, -1, 1) for readout-corrected data, the unclipped linear
    inversion, so a corrected correlation is unbiased and may lie outside
    [-1, 1].  The counts are multinomial, so the variance of c is
    ((sum_j g_j^2 n_j)/N - c^2)/N; for corrected data this is the
    delta-method sigma of Maciejewski, Zimboras and Oszmaniec, Quantum 4,
    257 (2020), and for raw data it is (1 - c^2)/N.  The four terms are
    added left to right.  Row i has the bits of a call on row i alone.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != 4:
        raise ValueError(f"expected an (S, 4) stack of counts, got shape {counts.shape}")
    total = counts.sum(axis=1)
    if not total.min() >= 1:
        raise ValueError("counts must sum to at least 1")
    g = gain.tolist()
    c = second = 0.0
    for j in range(4):
        c = c + g[j] * counts[:, j]
        second = second + g[j] * g[j] * counts[:, j]
    c = c / total
    return c, np.sqrt(np.maximum(second / total - c * c, 0.0) / total)


@dataclass(frozen=True, eq=False)
class Estimates:
    """One dataset, raw or readout-corrected, of a block of K experiments.

    With P setting pairs per experiment, ``c`` and ``c_sigma`` are the
    (K, 2P) per-setting correlations and their standard errors in setting
    order, ``pair_terms`` the (K, P) terms |C + C'|, and ``value``,
    ``sigma`` and ``sigmas_violation`` the (K,) inequality values, their
    standard errors and the sigmas by which they exceed the bound.  All are
    read-only.
    """

    c: np.ndarray
    c_sigma: np.ndarray
    pair_terms: np.ndarray
    value: np.ndarray
    sigma: np.ndarray
    sigmas_violation: np.ndarray


@dataclass(frozen=True, eq=False)
class ExperimentBlock:
    """K experiments of one configuration at K angles, as read-only arrays.

    Experiment k ran ``config`` at ``phis[k]``, with the stream of step
    ``first_step + k`` of its ``run_experiments`` call; the phi of
    ``config`` itself is not used.  ``settings`` is (K, P, 2, 3), each
    pair's (m, m'), and ``counts`` is (K, 2P, 4), in setting order.
    ``clip_events`` (K,) counts the settings of each experiment whose
    inverted distribution R^-1 f left the probability simplex (the
    corrected values are not clipped); ``corrected`` is None unless the
    block was corrected.
    """

    config: SettingsConfig
    phis: np.ndarray
    shots_per_setting: int
    seed: int
    settings: np.ndarray
    counts: np.ndarray
    raw: Estimates
    corrected: Optional[Estimates]
    clip_events: np.ndarray

    def to_json_dict(self, k: int = 0) -> dict:
        """Experiment k as ``simulate`` writes it."""
        config = replace(self.config, phi=float(self.phis[k]))
        kind = config.kind
        phi_deg = math.degrees(config.phi)
        raw, corr = self.raw, self.corrected

        def dataset(est: Estimates) -> dict:
            value = float(est.value[k])
            return {
                "kind": kind.tag,
                "phi_deg": phi_deg,
                "value": value,
                "bound": kind.bound,
                "pair_terms": est.pair_terms[k].tolist(),
                "violated": value > kind.bound,
            }

        settings = []
        rows = zip(self.settings[k].reshape(-1, 3).tolist(), self.counts[k].tolist())
        for i, (m, counts) in enumerate(rows):
            alice_index = config.pairing[i // 2]
            settings.append({
                "setting_id": i,
                "alice_index": alice_index,
                "n": config.alice[alice_index].tolist(),
                "m": m,
                "counts": counts,
                "c_raw": float(raw.c[k, i]),
                "sigma_raw": float(raw.c_sigma[k, i]),
                "c_corrected": None if corr is None else float(corr.c[k, i]),
                "sigma_corrected": None if corr is None else float(corr.c_sigma[k, i]),
            })
        out = {
            "kind": kind.tag,
            "phi_deg": phi_deg,
            "shots_per_setting": self.shots_per_setting,
            "seed": self.seed,
            "settings": settings,
            "raw": dataset(raw),
            "sigma_raw": float(raw.sigma[k]),
            "sigmas_violation_raw": float(raw.sigmas_violation[k]),
            "clip_events": int(self.clip_events[k]),
        }
        if corr is not None:
            out["corrected"] = dataset(corr)
            out["sigma_corrected"] = float(corr.sigma[k])
            out["sigmas_violation_corrected"] = float(corr.sigmas_violation[k])
        out["config"] = config.to_json_dict()
        return out


def run_experiments(
    state: TwoQubitState,
    config: SettingsConfig,
    phis,
    shots_per_setting: int,
    seed: int,
    readout: ReadoutModel = ReadoutModel(),
    correct: bool = False,
    first_step: int = 0,
) -> ExperimentBlock:
    """Sample ``config`` at each of the K angles ``phis`` as one block.

    Experiment k runs at ``phis[k]`` (radians, each in [0, pi]) with the
    stream of step ``first_step + k``: its settings draw their outcome
    counts, ordered (++, +-, -+, --), in setting order from one
    ``Generator(PCG64(SeedSequence([seed, step])))``, so a setting's counts
    depend on the settings drawn before it.  ``shots_per_setting``,
    ``seed`` and ``first_step`` must be ints (not bools), shots must lie in
    [1, 2**53], and ``seed`` and every step in [0, 2**32).  The readout
    model, perfect by default, is folded into the sampling distribution.
    The inequality is ``config.kind``.
    """
    kind = config.kind
    if not len(phis):
        raise ValueError("need at least one phi")
    for name, value in (("shots", shots_per_setting), ("seed", seed), ("step", first_step)):
        # bool is an int, and a float or string would reach the seed words
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {value!r}")
    # the estimator multiplies counts in float64, exact only up to 2**53
    if not 1 <= shots_per_setting <= 2**53:
        raise ValueError(f"shots must lie in [1, 2**53], got {shots_per_setting}")
    last_step = first_step + len(phis) - 1
    for name, value in (("seed", seed), ("step", first_step), ("step", last_step)):
        if not 0 <= value < 2**32:
            raise ValueError(f"{name} must lie in [0, 2**32), got {value}")
    settings = pair_stacks(config.u, config.e_hat, phis)
    per_experiment = 2 * len(config.pairs)
    n = np.tile(config.alice[np.repeat(config.pairing, 2)], (len(phis), 1))
    p_phys = apply_confusion(readout, joint_probabilities(state, n, settings.reshape(-1, 3)))
    p_phys /= p_phys.sum(axis=1, keepdims=True)
    # experiment k draws its settings' counts in order from one stream
    p_phys = p_phys.reshape(len(phis), per_experiment, 4)
    counts = np.concatenate([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, step])))
        .multinomial(shots_per_setting, p)
        for step, p in zip(range(first_step, last_step + 1), p_phys)
    ])
    counts.setflags(write=False)
    sines = np.array([kind.sine_coeff * math.sin(phi / 2.0) for phi in phis])
    raw = _estimates(kind, sines, counts, _ALPHA_BETA)
    corrected = None
    clipped = np.zeros(len(counts), dtype=bool)
    if correct:
        corrected = _estimates(kind, sines, counts, readout._gain)
        # R^-1 f left the probability simplex, f = counts / row total
        f = counts / counts.sum(axis=1, keepdims=True)
        clipped = ((readout._inverse @ f[..., None])[..., 0] < -1e-12).any(axis=1)
    shape = (len(phis), per_experiment)
    clip_events = _frozen(clipped.reshape(shape).sum(axis=1))
    phis = _frozen(np.array(phis, dtype=float))
    counts = counts.reshape(*shape, 4)
    return ExperimentBlock(
        config, phis, int(shots_per_setting), int(seed), settings, counts, raw, corrected,
        clip_events,
    )


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum, adding the columns left to right as ``sum`` did up
    to Python 3.11; from 3.12 it compensates, and ``np.sum`` may pair terms."""
    total = x[:, 0]
    for j in range(1, x.shape[1]):
        total = total + x[:, j]
    return total


def _estimates(kind, sines, counts, gain) -> Estimates:
    """One dataset of a block, from its counts through ``estimate`` with ``gain``.

    ``counts`` (S, 4) holds the block's settings in order, K experiments
    of 2P settings, and ``sines`` each experiment's sine term.  Each
    correlation is ``gain`` . f for its setting's frequencies f, a convex
    combination of the gain's entries, so it must lie in [min, max] of
    them: [-1, 1] for raw data, wider for corrected.  Pair terms are
    treated as sign-fixed, so an experiment's sigma is the root sum of its
    settings' squared sigmas; this fails near |C + C'| = 0.  A sigma of 0
    gives sigmas of violation of +-inf, or 0 at the bound.
    """
    c, c_sigma = estimate(counts, gain)
    lo, hi = float(gain.min()), float(gain.max())
    # "not within range" rather than "outside it", so that NaN fails
    outside = ~((c >= lo - 1e-9) & (c <= hi + 1e-9))
    if outside.any():
        raise ValueError(f"correlations must lie in [{lo:g}, {hi:g}], got {c[outside][0]}")
    c = c.reshape(len(sines), -1)
    c_sigma = c_sigma.reshape(c.shape)
    pair_terms = np.abs(c[:, 0::2] + c[:, 1::2])
    value = _row_sums(pair_terms) + sines
    sigma = np.sqrt(_row_sums(c_sigma * c_sigma))
    excess = value - kind.bound
    nsig = np.where(excess > 0.0, np.inf, np.where(excess < 0.0, -np.inf, 0.0))
    np.divide(excess, sigma, out=nsig, where=sigma != 0.0)
    return Estimates(*(_frozen(x) for x in (c, c_sigma, pair_terms, value, sigma, nsig)))
