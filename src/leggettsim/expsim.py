"""Finite-shot Monte Carlo simulation of the correlation experiment.

Sampling uses numpy's PCG64 generator.  ``run_experiments`` is the only
sampler; it runs a block of experiments, experiment j at step
``first_step + j``, and ``run_experiment`` is its block of one.  Its one
seeding rule is SeedSequence([seed, setting_index, step]), with
``simulate`` as step 0.  Seeds and steps lie in [0, 2**32), one word each,
so no two streams coincide and results do not depend on execution order,
block size or platform.

A block handles the settings of all its experiments as stacked arrays:
settings n and m as (S, 3), probabilities and counts as (S, 4), one row
per setting in block order.  ``joint_probabilities``, ``apply_confusion``,
``correct_readout`` and ``estimate_correlation`` each take either one row
or the whole stack, and row i of a stacked call has the bits of the call on
row i alone.  Seeding is one pass too: ``_seed_words`` computes
SeedSequence's hash for every [seed, setting_index, step] row of the block
as uint32 arrays, and ``_pcg64_state`` turns each row's words into the
state that ``PCG64(SeedSequence(...))`` would start from.  Only the draws
loop over settings: one PCG64 and Generator per block are set to each
setting's state in turn for one ``multinomial`` call, so the counts are
those of a fresh generator per setting.  The tests check the hash and the
states against ``np.random.SeedSequence`` and ``PCG64`` themselves.

Readout confusion is applied to the outcome probabilities before
sampling; this is equivalent in distribution to flipping sampled
outcomes and exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import SettingsConfig
from .inequalities import InequalityValue, evaluate, sigma_violation
from .qstate import TwoQubitState, _frozen, joint_probabilities

MAX_CONDITION_NUMBER = 1e6

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), for
# a pool of four 32-bit words
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


class ConditioningError(ValueError):
    """Raised when the readout confusion matrix is too ill-conditioned to invert."""


def _check_confusion_2x2(r: np.ndarray, name: str) -> np.ndarray:
    r = np.array(r, dtype=float)
    if r.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {r.shape}")
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if not np.max(np.abs(r.sum(axis=0) - 1.0)) <= 1e-12:
        raise ValueError(f"{name} columns must sum to 1")
    return _frozen(r)


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
        object.__setattr__(self, "r_a", r_a)
        object.__setattr__(self, "r_b", r_b)
        object.__setattr__(self, "_joint", _frozen(np.kron(r_a, r_b)))

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


def _stack_of_4(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 4:
        raise ValueError(f"expected 4 {name} or a stack of them, got shape {x.shape}")
    return x


def apply_confusion(model: ReadoutModel, p) -> np.ndarray:
    """Reported-outcome distribution R p for true distribution p.

    p is one distribution, shape (4,), or S of them stacked as (S, 4); row
    i of the result has the bits of the call on row i alone.
    """
    p = _stack_of_4(p, "probabilities")
    # "not within tolerance" rather than "beyond it", so that NaN fails
    if not (np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-9 and p.min() >= -1e-12):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    # R @ p[:, None] per row; p @ R.T on the stack would round differently
    return (model.joint() @ p[..., None])[..., 0]


def correct_readout(model: ReadoutModel, p_measured):
    """Invert the confusion, clip negatives to zero and renormalize.

    Returns (corrected distribution, clipped) for one (4,) or an (S, 4)
    stack.  ``clipped`` is a bool, or a bool array with one entry per row,
    that says whether the inverted distribution had a negative entry.
    """
    p_measured = _stack_of_4(p_measured, "probabilities")
    cond = model._condition_number
    if not cond <= MAX_CONDITION_NUMBER:
        raise ConditioningError(
            f"confusion matrix condition number {cond:.3g} exceeds {MAX_CONDITION_NUMBER:.0e}"
        )
    # one LAPACK solve per row: a single multi-column solve rounds differently
    p = np.linalg.solve(model.joint(), p_measured[..., None])[..., 0]
    clipped = (p < -1e-12).any(axis=-1)
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if not total.min() > 0.0:
        raise ValueError("corrected probabilities sum to zero")
    if p.ndim == 1:
        clipped = bool(clipped)
    return p / total, clipped


def _seed_words(entropy) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row, as (K, 4).

    ``entropy`` holds K rows of [seed, setting_index, step], each word in
    [0, 2**32), so SeedSequence takes each row as its three entropy words.
    The hash constant evolves the same way for every row, so it is a Python
    int and only the pool is an array, one uint32 column per pool word;
    uint32 arithmetic wraps as numpy's C code does.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    shift = np.uint32(XSHIFT)
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> shift)

    # the pool outgrows the three entropy words: the fourth hashes a zero
    words = list(entropy.T) + [np.zeros(len(entropy), dtype=np.uint32)]
    pool = [hashmix(word) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # four 64-bit words are eight 32-bit ones, the pool read twice over
    hash_const = INIT_B
    state = np.empty((len(entropy), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> shift)
    # pairs of 32-bit words read as little-endian 64-bit words, as numpy does
    return state.astype("<u4").view("<u8")


def _pcg64_state(words) -> tuple[int, int]:
    """(state, inc) of ``PCG64`` seeded with the four 64-bit ``words``.

    This is pcg_setseq_128_srandom_r with initstate = words[0:2] and
    initseq = words[2:4], high word first: inc = 2 initseq + 1, then from
    state 0 one step, add initstate, one more step, all mod 2**128.
    """
    initstate = words[0] << 64 | words[1]
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = (inc + initstate) & _MASK128
    return (state * _PCG64_MULT + inc) & _MASK128, inc


def _sigma(c, shots):
    """Binomial standard error sqrt((1 - C^2)/N) of correlation estimates C."""
    return np.sqrt(np.maximum(1.0 - c * c, 0.0) / shots)


def estimate_correlation(counts):
    """(C_hat, sigma) from outcome counts; sigma = sqrt((1 - C^2)/N).

    One setting's counts, shape (4,), give two floats; an (S, 4) stack gives
    two (S,) arrays whose entry i has the bits of the call on row i alone.
    """
    counts = _stack_of_4(counts, "counts")
    total = counts.sum(axis=-1).astype(np.int64)
    if not total.min() >= 1:
        raise ValueError("counts must sum to at least 1")
    c_hat = (counts[..., 0] + counts[..., 3] - counts[..., 1] - counts[..., 2]) / total
    sigma = _sigma(c_hat, total)
    if counts.ndim == 1:
        return float(c_hat), float(sigma)
    return c_hat, sigma


class SettingRecord(NamedTuple):
    """One setting's draws and estimates; a plain tuple, built positionally.

    ``n`` and ``m`` are the configuration's read-only vectors, and
    ``counts`` is a row of the block's read-only count array.
    """

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
    config: SettingsConfig
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

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.config.kind.tag,
            "phi_deg": math.degrees(self.config.phi),
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
        out["config"] = self.config.to_json_dict()
        return out


def run_experiment(
    state: TwoQubitState,
    config: SettingsConfig,
    shots_per_setting: int,
    seed: int,
    readout: Optional[ReadoutModel] = None,
    correct: bool = False,
    step: int = 0,
) -> ExperimentResult:
    """One experiment: ``run_experiments`` on a block of one at ``step``.

    ``simulate`` is step 0 and sweep step k is step k.
    """
    return run_experiments(
        state, [config], shots_per_setting, seed, readout, correct, first_step=step
    )[0]


def run_experiments(
    state: TwoQubitState,
    configs: Sequence[SettingsConfig],
    shots_per_setting: int,
    seed: int,
    readout: Optional[ReadoutModel] = None,
    correct: bool = False,
    first_step: int = 0,
) -> list[ExperimentResult]:
    """Sample a block of experiments as one stack and assemble one result each.

    Experiment j runs ``configs[j]`` with the streams of step
    ``first_step + j``: each of its settings draws its outcome counts,
    ordered (++, +-, -+, --), from SeedSequence([seed, setting_index,
    step]).  ``seed`` and ``first_step`` must be ints (not bools), and
    ``seed`` and every step must lie in [0, 2**32).  The settings of all
    experiments are stacked in block order for one pass each of seeding,
    probabilities, confusion, estimation and correction; the confusion
    model is folded into the sampling distribution.  The seeding pass
    hashes every setting's [seed, setting_index, step] words at once, and
    one generator, set to each resulting PCG64 state in turn, draws the
    counts a fresh generator per setting would.  Each result's records
    hold rows of one read-only count array shared by the block, and its
    ``clip_events`` counts its own settings only.  The inequality of an
    experiment is its ``config.kind``; ``evaluate`` rejects a wrong pair
    count.
    """
    if shots_per_setting < 1:
        raise ValueError(f"shots must be >= 1, got {shots_per_setting}")
    if not configs:
        raise ValueError("need at least one configuration")
    for name, value in (("seed", seed), ("step", first_step)):
        # bool is an int, and a float or string would reach the uint32 words
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {value!r}")
    last_step = first_step + len(configs) - 1
    for name, value in (("seed", seed), ("step", first_step), ("step", last_step)):
        if not 0 <= value < 2**32:
            raise ValueError(f"{name} must lie in [0, 2**32), got {value}")
    if readout is None:
        readout = ReadoutModel.identity()
    blocks = [config.settings() for config in configs]
    settings = [setting for block in blocks for setting in block]
    n = np.array([setting[2] for setting in settings])
    m = np.array([setting[3] for setting in settings])
    p_phys = apply_confusion(readout, joint_probabilities(state, n, m))
    p_phys /= p_phys.sum(axis=1, keepdims=True)
    entropy = [
        (seed, setting_id, step)
        for step, block in enumerate(blocks, first_step)
        for setting_id, _, _, _ in block
    ]
    # its seed is never drawn from: each setting sets its own state first
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    counts = np.empty(p_phys.shape, dtype=np.int64)
    for row, words in enumerate(_seed_words(entropy).tolist()):
        state, inc = _pcg64_state(words)
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        counts[row] = rng.multinomial(shots_per_setting, p_phys[row])
    # the records' count rows are views of this array
    counts.setflags(write=False)
    c_raw, sigma_raw = (column.tolist() for column in estimate_correlation(counts))
    c_corr = sigma_corr = [None] * len(settings)
    clipped = [False] * len(settings)
    if correct:
        p_corr, clipped_rows = correct_readout(readout, counts / shots_per_setting)
        c = p_corr[:, 0] + p_corr[:, 3] - p_corr[:, 1] - p_corr[:, 2]
        c_corr, sigma_corr = c.tolist(), _sigma(c, shots_per_setting).tolist()
        clipped = clipped_rows.tolist()

    results = []
    start = 0
    for config, block in zip(configs, blocks):
        rows = slice(start, start + len(block))
        start = rows.stop
        records = [
            SettingRecord(
                setting_id,
                alice_idx,
                n_i,
                m_i,
                counts[row],
                c_raw[row],
                sigma_raw[row],
                c_corr[row],
                sigma_corr[row],
            )
            for row, (setting_id, alice_idx, n_i, m_i) in enumerate(block, rows.start)
        ]
        raw, sigma_raw_total, nsig_raw = _assemble(config, c_raw[rows], sigma_raw[rows])
        corrected = sigma_corr_total = nsig_corr = None
        if correct:
            corrected, sigma_corr_total, nsig_corr = _assemble(
                config, c_corr[rows], sigma_corr[rows]
            )
        results.append(
            ExperimentResult(
                config=config,
                shots_per_setting=shots_per_setting,
                seed=seed,
                settings=tuple(records),
                raw=raw,
                sigma_raw=sigma_raw_total,
                sigmas_violation_raw=nsig_raw,
                corrected=corrected,
                sigma_corrected=sigma_corr_total,
                sigmas_violation_corrected=nsig_corr,
                clip_events=sum(clipped[rows]),
            )
        )
    return results


def _assemble(config: SettingsConfig, values, sigmas):
    """(inequality value, total sigma, sigmas of violation) of one experiment."""
    kind = config.kind
    ineq = evaluate(kind, config.phi, list(zip(values[::2], values[1::2])))
    # pair terms treated as sign-fixed; invalid near |C + C'| = 0
    sigma = math.sqrt(sum(s * s for s in sigmas))
    if sigma == 0.0:
        excess = ineq.value - kind.bound
        nsig = math.inf if excess > 0 else (-math.inf if excess < 0 else 0.0)
        return ineq, sigma, nsig
    return ineq, sigma, sigma_violation(ineq.value, sigma, kind)
