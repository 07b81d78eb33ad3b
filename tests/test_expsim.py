import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import corrected_correlation, evaluate, run_one
from leggettsim.expsim import (
    ConditioningError,
    ReadoutModel,
    _estimates,
    apply_confusion,
    estimate,
    run_experiments,
)
from leggettsim.geometry import SettingsConfig, adapt_to_state, canonical_i26, canonical_i28
from leggettsim.inequalities import I26, I28, quantum_value, sigma_violation
from leggettsim.oracle import verify_bound
from leggettsim.qstate import (
    TwoQubitState,
    bell_state,
    correlation_tensor,
    joint_probabilities,
    werner,
)

PHI = math.radians(36.87)


FIDELITIES = ("f0_a", "f1_a", "f0_b", "f1_b")

# the gain of raw data: C = n(++) - n(+-) - n(-+) + n(--) over the total
RAW_GAIN = np.array([1.0, -1.0, -1.0, 1.0])


def adapted_config(state, phi=PHI):
    return adapt_to_state(correlation_tensor(state), canonical_i26(phi))


def confusion_2x2(f0, f1):
    """One qubit's confusion matrix, column j P(reported | true = j)."""
    return np.array([[f0, 1.0 - f1], [1.0 - f0, f1]])


class TestReadoutModel:
    def test_identity(self):
        model = ReadoutModel()
        assert (model.f0_a, model.f1_a, model.f0_b, model.f1_b) == (1.0, 1.0, 1.0, 1.0)
        assert model.joint.tobytes() == np.eye(4).tobytes()

    def test_from_fidelities_columns(self):
        model = ReadoutModel(0.99, 0.95, 1.0, 1.0)
        assert np.allclose(model.joint[:, 0], [0.99, 0.0, 0.01, 0.0])
        assert np.allclose(model.joint[:, 3], [0.0, 0.05, 0.0, 0.95])
        assert np.allclose(model.joint.sum(axis=0), 1.0, atol=1e-12)
        keywords = ReadoutModel(f0_a=0.99, f1_a=0.95, f0_b=1.0, f1_b=1.0)
        assert keywords.joint.tobytes() == model.joint.tobytes()

    def test_invalid_entries(self):
        for name in FIDELITIES:
            for value in (-1e-12, -0.5, 1.0 + 1e-12, 2.0, True, "0.9", None):
                with pytest.raises(ValueError, match=rf"^{name} must be a number in \[0, 1\]"):
                    ReadoutModel(**{name: value})

    @pytest.mark.parametrize("value", [0, 1, 0.5, np.float64(0.97), np.int64(1)])
    def test_fidelities_kept_as_floats(self, value):
        model = ReadoutModel(f1_b=value)
        assert type(model.f1_b) is float and model.f1_b == value

    @pytest.mark.parametrize("name", ["r_a", "r_b"])
    def test_matrices_read_only(self, name):
        # a qubit's matrix is its f0 and f1; neither they nor joint can change
        qubit = name[-1]
        model = ReadoutModel(0.97, 0.95, 0.96, 0.94)
        with pytest.raises(ValueError, match="read-only"):
            model.joint[0, 0] = 0.5
        for field_name in ("joint", f"f0_{qubit}", f"f1_{qubit}"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, field_name, 0.5)

    def test_joint_is_kron(self):
        # the bits of np.kron of the two single-qubit matrices, as the
        # readout-corrected outputs were pinned with
        rng = np.random.default_rng(25)
        for _ in range(100):
            f = rng.uniform(0.0, 1.0, size=4)
            expected = np.kron(confusion_2x2(f[0], f[1]), confusion_2x2(f[2], f[3]))
            assert ReadoutModel(*f).joint.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("f", [0.5, 0.5 + 1e-8, 0.5 - 1e-8])
    def test_near_half_not_corrected(self, f):
        # R is singular at 0.5, and near it too ill-conditioned to invert
        model = ReadoutModel(f, f, 0.97, 0.95)
        with pytest.raises(ConditioningError, match="condition number"):
            model._gain


class TestValueTypes:
    """The array-holding value types compare and hash by identity."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: canonical_i26(0.5),
            lambda: werner(0.9),
            lambda: werner(0.9).tensor,
            lambda: ReadoutModel(0.97, 0.95, 0.96, 0.94),
            lambda: verify_bound(canonical_i26(0.5), 50),
            lambda: run_experiments(werner(0.9), canonical_i26(0.5), [0.5], 10, 0, correct=True),
            lambda: run_one(werner(0.9), canonical_i26(0.5), 10, 0, correct=True).raw,
        ],
    )
    def test_identity_equality(self, build):
        x = build()
        assert x == x
        assert x != copy.copy(x) and x != build()
        assert hash(x) == hash(x) and isinstance(hash(copy.copy(x)), int)
        assert len({x, x, copy.copy(x)}) == 2


class TestConfusion:
    def test_identity_passthrough(self):
        p = np.array([0.4, 0.1, 0.2, 0.3])
        assert np.allclose(apply_confusion(ReadoutModel(), [p])[0], p)

    def test_column_readoff(self):
        model = ReadoutModel(0.99, 0.95, 1.0, 1.0)
        out = apply_confusion(model, [[1.0, 0.0, 0.0, 0.0]])[0]
        assert np.allclose(out, [0.99, 0.0, 0.01, 0.0], atol=1e-12)

    def test_fully_mixing(self):
        model = ReadoutModel(0.5, 0.5, 0.5, 0.5)
        out = apply_confusion(model, [[0.7, 0.1, 0.1, 0.1]])[0]
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_sum_preserved(self):
        model = ReadoutModel(0.97, 0.93, 0.96, 0.91)
        out = apply_confusion(model, [[0.5, 0.0, 0.0, 0.5]])[0]
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_malformed_input(self):
        with pytest.raises(ValueError):
            apply_confusion(ReadoutModel(), [[0.5, 0.5, 0.5, 0.5]])

    def test_nan_model_rejected(self):
        # NaN fails every comparison, so it must not pass the range check
        for name in FIDELITIES:
            with pytest.raises(ValueError, match=f"^{name} must be a number"):
                ReadoutModel(**{name: math.nan})

    @pytest.mark.parametrize(
        "p", [[[np.nan, 0.0, 0.0, 1.0]], [[0.25] * 4, [np.nan, 0.5, 0.5, 0.0]]]
    )
    def test_nan_rejected(self, p):
        with pytest.raises(ValueError, match="sum to 1"):
            apply_confusion(ReadoutModel(), p)


def outcome_correlation(p) -> float:
    """C(p) = p(++) - p(+-) - p(-+) + p(--)."""
    return float(p[0] - p[1] - p[2] + p[3])


class TestCorrectReadout:
    """The linear inversion g . f, g = R^-T (1, -1, -1, 1), recovers C(p) from f = R p."""

    def test_identity(self):
        # the identity's gain is the raw one, and R^-1 f = f stays in the
        # simplex even at one shot, where f is a vertex of it
        model = ReadoutModel()
        assert model._gain.tolist() == RAW_GAIN.tolist()
        state = werner(0.9)
        result = run_one(state, adapted_config(state), 1, seed=0, readout=model, correct=True)
        assert result.corrected.c.tobytes() == result.raw.c.tobytes()
        assert result.corrected.c_sigma.tobytes() == result.raw.c_sigma.tobytes()
        assert result.clip_events.tolist() == [0]

    def test_round_trip(self):
        model = ReadoutModel(0.97, 0.93, 0.97, 0.93)
        p_true = np.array([0.5, 0.0, 0.0, 0.5])
        recovered = corrected_correlation(model, apply_confusion(model, [p_true])[0])
        assert recovered == pytest.approx(1.0, abs=1e-10)

    def test_nan_rejected(self):
        # a NaN count fails the total check; an infinite one gives a NaN
        # corrected value, which the range check rejects
        model = ReadoutModel(0.97, 0.95, 0.96, 0.94)
        counts = np.full((6, 4), 25.0)
        counts[4] = [np.nan, 0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="counts must sum to at least 1"):
            _estimates(I26, np.zeros(1), counts, model._gain)
        counts[4] = [np.inf, 0.0, 0.0, 1.0]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="correlations must lie in"):
                _estimates(I26, np.zeros(1), counts, model._gain)

    def test_singular_model(self):
        model = ReadoutModel(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConditioningError):
            model._gain

    def test_clipping_only_flagged(self):
        # at one shot f is a vertex e_j of the simplex, and R^-1 e_j, a
        # column of R^-1, leaves it; the value g . e_j = g_j = +-1/0.9**2
        # is kept
        model = ReadoutModel(0.95, 0.95, 0.95, 0.95)
        state = werner(0.9)
        result = run_one(state, adapted_config(state), 1, seed=0, readout=model, correct=True)
        assert result.clip_events.tolist() == [6]
        outcomes = result.counts[0].argmax(axis=1)
        assert result.corrected.c[0].tolist() == model._gain[outcomes].tolist()
        assert model._gain[0] == pytest.approx(1.0 / 0.81, rel=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = rng.uniform(0.9, 1.0, size=4)
            model = ReadoutModel(*f)
            p = rng.dirichlet(np.ones(4))
            recovered = corrected_correlation(model, apply_confusion(model, [p])[0])
            assert recovered == pytest.approx(outcome_correlation(p), abs=1e-10)


def sampled_counts(state, shots, seed, step=0):
    """Counts of every setting of the unadapted six-setting configuration.

    At phi = 0 settings 0-3 measure (Z, Z) and settings 4-5 (X, X).
    """
    return run_one(state, canonical_i26(0.0), shots, seed, step=step).counts[0]


class TestSampling:
    def test_zero_probability_outcomes_never_drawn(self):
        counts = sampled_counts(bell_state("psi_minus"), 10**6, seed=3)
        assert np.all(counts[:, 0] == 0) and np.all(counts[:, 3] == 0)
        assert np.all(counts.sum(axis=1) == 10**6)

    def test_uniform_concentration(self):
        counts = sampled_counts(werner(0.0), 4 * 10**6, seed=9)
        sigma = math.sqrt(4e6 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 1e6) < 5 * sigma)

    def test_determinism(self):
        a = sampled_counts(werner(0.8), 10**4, seed=123)
        b = sampled_counts(werner(0.8), 10**4, seed=123)
        assert np.array_equal(a, b)

    def test_shots_validation(self):
        with pytest.raises(ValueError, match=r"shots must lie in \[1, 2\*\*53\], got 0"):
            sampled_counts(werner(0.5), 0, seed=0)

    @pytest.mark.parametrize("shots", [-1, 2**53 + 1, 2**63])
    def test_shots_range(self, shots):
        # float64 counts are exact only up to 2**53
        with pytest.raises(ValueError, match=r"shots must lie in \[1, 2\*\*53\]"):
            sampled_counts(werner(0.5), shots, seed=0)

    def test_most_shots_accepted(self):
        counts = sampled_counts(werner(0.5), 2**53, seed=0)
        assert np.all(counts.sum(axis=1) == 2**53)

    @pytest.mark.parametrize("shots", [2.5, 10.0, np.float64(10.0), True, "10"])
    def test_shots_must_be_int(self, shots):
        with pytest.raises(ValueError, match=r"^shots must be an int, got "):
            sampled_counts(werner(0.5), shots, seed=0)

    def test_streams_differ_across_settings_steps_and_seeds(self):
        # the six settings of one run share one distribution, so draws
        # repeated within a run or across steps and seeds would show as
        # equal rows
        state = werner(0.0)
        rows = [tuple(r) for r in sampled_counts(state, 10**4, seed=7)]
        rows += [tuple(r) for r in sampled_counts(state, 10**4, seed=7, step=1)]
        rows += [tuple(r) for r in sampled_counts(state, 10**4, seed=8)]
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("seed", [-1, 2**32, 7 + 3 * 2**32])
    def test_seed_range(self, seed):
        # 7 + 3 * 2**32 would be the two words [7, 3] and alias another stream
        with pytest.raises(ValueError, match="seed must lie in"):
            sampled_counts(werner(0.5), 10, seed=seed)

    @pytest.mark.parametrize("step", [-1, 2**32])
    def test_step_range(self, step):
        with pytest.raises(ValueError, match="step must lie in"):
            sampled_counts(werner(0.5), 10, seed=0, step=step)

    @pytest.mark.parametrize("name", ["seed", "step"])
    @pytest.mark.parametrize("value", [3.7, 3.0, np.float64(3.0), True, False, "3"])
    def test_words_must_be_ints(self, name, value):
        # a float would be truncated to a uint32 word, and True would seed as 1
        kwargs = {"seed": 0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got "):
            sampled_counts(werner(0.5), 10, **kwargs)

    @pytest.mark.parametrize("word", [np.int64, np.uint32, np.uint64])
    def test_numpy_integers_accepted(self, word):
        state = werner(0.8)
        assert np.array_equal(
            sampled_counts(state, 100, seed=word(2**32 - 1), step=word(5)),
            sampled_counts(state, 100, seed=2**32 - 1, step=5),
        )
        # the block holds Python ints, so it serializes as simulate writes it
        block = run_one(state, canonical_i26(0.0), word(100), word(2**32 - 1), step=word(5))
        data = block.to_json_dict(0)
        assert type(data["shots_per_setting"]) is int and type(data["seed"]) is int
        json.dumps(data)


class TestEstimateCorrelation:
    """``estimate`` on one-row stacks with the raw gain, and on stacks whose
    rows have different totals."""

    def test_uniform(self):
        c, sigma = estimate(np.array([[250, 250, 250, 250]]), RAW_GAIN)
        assert c.tolist() == [0.0]
        assert sigma[0] == pytest.approx(0.031623, abs=1e-6)

    def test_perfect(self):
        c, sigma = estimate(np.array([[500, 0, 0, 500]]), RAW_GAIN)
        assert (c.tolist(), sigma.tolist()) == ([1.0], [0.0])

    def test_formula(self):
        c, sigma = estimate(np.array([[450, 50, 50, 450]]), RAW_GAIN)
        assert c[0] == pytest.approx(0.8, abs=1e-12)
        assert sigma[0] == pytest.approx(0.018974, abs=1e-6)

    def test_all_zero_rejected(self):
        gain = ReadoutModel(0.97, 0.95, 0.96, 0.94)._gain
        for counts in ([[0, 0, 0, 0]], [[3, 0, 1, 0], [0, 0, 0, 0]]):
            for g in (RAW_GAIN, gain):
                with pytest.raises(ValueError, match="^counts must sum to at least 1$"):
                    estimate(np.array(counts), g)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 4)])
    def test_not_a_stack_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^expected an \(S, 4\) stack of counts"):
            estimate(np.ones(shape), RAW_GAIN)

    def test_unequal_totals_equal_reference(self):
        # each row over its own total, from 1 up, against the scalar
        # references, raw and corrected; row i also equals a call on it alone
        rng = np.random.default_rng(18)
        totals = [1, 1, 2, 3, 17, 1000, 10**6, *rng.integers(1, 100, size=57).tolist()]
        counts = np.array([rng.multinomial(n, rng.dirichlet(np.ones(4))) for n in totals])
        assert counts.sum(axis=1).tolist() == totals
        readout = random_readout(rng)
        c, sigma = estimate(counts, RAW_GAIN)
        c_corr, sigma_corr = estimate(counts, readout._gain)
        for i, row in enumerate(counts):
            assert (c[i], sigma[i]) == reference_estimate_correlation(row)
            assert (c_corr[i], sigma_corr[i]) == reference_corrected(readout, row)
            alone = estimate(counts[i : i + 1], readout._gain)
            assert [x.tolist() for x in alone] == [[c_corr[i]], [sigma_corr[i]]]


class TestRunExperiment:
    def test_ideal_state_consistency(self):
        state = bell_state("phi_minus")
        result = run_one(state, adapted_config(state), 10**5, seed=21)
        target = quantum_value(I26, PHI, 1.0)
        assert abs(result.raw.value[0] - target) < 4 * result.raw.sigma[0]

    def test_werner_consistency(self):
        state = werner(0.9)
        result = run_one(state, adapted_config(state), 10**5, seed=22)
        target = quantum_value(I26, PHI, 0.9)
        assert abs(result.raw.value[0] - target) < 4 * result.raw.sigma[0]

    def test_large_shot_limit(self):
        state = bell_state("phi_minus")
        result = run_one(state, adapted_config(state), 10**7, seed=23)
        assert abs(result.raw.value[0] - quantum_value(I26, PHI, 1.0)) <= 5e-3

    def test_determinism(self):
        state = werner(0.95)
        config = adapted_config(state)
        model = ReadoutModel(0.97, 0.95, 0.96, 0.94)
        a = run_one(state, config, 10**4, seed=5, readout=model, correct=True)
        b = run_one(state, config, 10**4, seed=5, readout=model, correct=True)
        assert a.raw.value[0] == b.raw.value[0]
        assert a.corrected.value[0] == b.corrected.value[0]
        assert np.array_equal(a.counts, b.counts)

    def test_estimator_consistency(self):
        state = bell_state("phi_minus")
        config = adapted_config(state)
        values, sigmas = [], []
        for seed in range(200):
            result = run_one(state, config, 10**4, seed=seed)
            values.append(result.raw.value[0])
            sigmas.append(result.raw.sigma[0])
        empirical = float(np.std(values, ddof=1))
        propagated = float(np.mean(sigmas))
        assert abs(empirical - propagated) / propagated < 0.20

    def test_correction_recovers_ideal(self):
        state = bell_state("phi_minus")
        config = adapted_config(state)
        model = ReadoutModel(0.95, 0.92, 0.96, 0.93)
        result = run_one(state, config, 10**6, seed=17, readout=model, correct=True)
        for i, (_, _, n, m) in enumerate(reference_settings(config)):
            p_ideal = joint_probabilities(state, [n], [m])[0]
            ideal = float(p_ideal[0] - p_ideal[1] - p_ideal[2] + p_ideal[3])
            combined = math.hypot(result.raw.c_sigma[0, i], result.corrected.c_sigma[0, i])
            assert abs(result.corrected.c[0, i] - ideal) < 4 * max(combined, 1e-6)

    def test_symmetric_confusion_shrinks_raw(self):
        state = bell_state("phi_minus")
        config = adapted_config(state)
        model = ReadoutModel(0.95, 0.95, 0.95, 0.95)
        raw_mean = corr_mean = 0.0
        for seed in range(100):
            result = run_one(state, config, 2000, seed=seed, readout=model, correct=True)
            raw_mean += np.mean(np.abs(result.raw.c))
            corr_mean += np.mean(np.abs(result.corrected.c))
        assert raw_mean < corr_mean

    def test_json_and_csv_export(self):
        state = werner(0.9)
        result = run_one(state, adapted_config(state), 1000, seed=2)
        data = result.to_json_dict(0)
        assert data["kind"] == "i26" and len(data["settings"]) == 6

    def test_ill_conditioned_model_without_correction(self):
        state = werner(0.9)
        model = ReadoutModel(0.5, 0.5, 0.5, 0.5)
        result = run_one(state, adapted_config(state), 1000, seed=3, readout=model)
        assert result.corrected is None
        assert result.counts.shape == (1, 6, 4)

    def test_ill_conditioned_model_with_correction(self):
        state = werner(0.9)
        model = ReadoutModel(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConditioningError):
            run_one(state, adapted_config(state), 1000, seed=3, readout=model, correct=True)

    def test_condition_checked_once_per_model(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counting(r):
            calls.append(r)
            return cond(r)

        monkeypatch.setattr(np.linalg, "cond", counting)
        state = werner(0.9)
        model = ReadoutModel(0.97, 0.95, 0.96, 0.94)
        for seed in range(3):
            run_one(state, adapted_config(state), 1000, seed=seed, readout=model, correct=True)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "fidelities",
        [
            (0.9, 0.9, 0.9, 0.9),
            (0.97, 0.85, 0.93, 0.88),
            # condition number 4.23: the most ill-conditioned model of a scan
            # over (f0, f1, f0, f1) whose settings never clipped on these
            # seeds when each setting had its own stream; with one stream
            # per experiment, seed 79 clips one setting
            (0.99, 0.6, 0.99, 0.6),
        ],
    )
    def test_sigmas_calibrated(self, fidelities):
        # over 200 seeds, the spread of the values matches the mean reported
        # sigma, raw and corrected; the corrected sigma carries the noise
        # gain of inverting R.  The clipped seeds are pinned, {seed: clipped
        # settings}, as a check on the clip condition
        expected_clips = {(0.99, 0.6, 0.99, 0.6): {79: 1}}.get(fidelities, {})
        state = werner(0.98)
        model = ReadoutModel(*fidelities)
        values, sigmas, clips = calibration_runs(state, adapted_config(state), model, 20000, 200)
        for name in values:
            ratio = float(np.std(values[name], ddof=1) / np.mean(sigmas[name]))
            assert 0.85 <= ratio <= 1.15, (name, ratio)
        assert clips == expected_clips

    def test_sigmas_calibrated_where_correction_clips(self):
        # at V = 1 and a small phi every |C| is near 1, and with these
        # fidelities R^-1 f leaves the simplex for over half of the settings
        # (1336 of 2400); clipping it there and renormalizing would bias the
        # value by -0.83 sigma and shrink its spread to 0.72 sigma
        phi = math.radians(10.0)
        state = werner(1.0)
        model = ReadoutModel(0.97, 0.95, 0.96, 0.94)
        values, sigmas, clips = calibration_runs(
            state, adapted_config(state, phi), model, 10**4, 400
        )
        assert sum(clips.values()) == 1336
        corrected = np.array(values["corrected"])
        sd = float(np.std(corrected, ddof=1))
        ratio = sd / float(np.mean(sigmas["corrected"]))
        assert 0.85 <= ratio <= 1.15, ratio
        bias = float(np.mean(corrected)) - quantum_value(I26, phi, 1.0)
        assert abs(bias) <= 3.0 * sd / math.sqrt(len(corrected)), bias

    def test_corrected_sigma_with_identity_model_is_binomial(self):
        state = werner(0.9)
        result = run_one(state, adapted_config(state), 1000, seed=6, correct=True)
        assert result.corrected.c == pytest.approx(result.raw.c, abs=1e-15)
        assert result.corrected.c_sigma == pytest.approx(result.raw.c_sigma, rel=1e-12)

    def test_wrong_pair_count(self):
        # three pairs tagged with the four-pair inequality never reach the sampler
        with pytest.raises(ValueError, match="^i28 needs 4 setting pairs, got 3$"):
            dataclasses.replace(adapted_config(werner(0.9)), kind=I28)


def calibration_runs(state, config, model, shots, seeds):
    """Corrected runs of seeds 0 .. seeds - 1: ({dataset: values},
    {dataset: sigmas}, {seed: clipped settings}) for the raw and the
    corrected dataset."""
    values = {"raw": [], "corrected": []}
    sigmas = {"raw": [], "corrected": []}
    clips = {}
    for seed in range(seeds):
        result = run_one(state, config, shots, seed, model, correct=True)
        if result.clip_events[0]:
            clips[seed] = int(result.clip_events[0])
        for name in values:
            values[name].append(getattr(result, name).value[0])
            sigmas[name].append(getattr(result, name).sigma[0])
    return values, sigmas, clips


# --- the per-setting loop the stacked sampler replaced -------------------
#
# Kept as the bit-level reference: one setting at a time, with the
# one-setting helper bodies written out as they were, and every sum added
# left to right.


def reference_joint_probabilities(state, n, m):
    tensor = state.tensor
    an = float(tensor.a @ n)
    bm = float(tensor.b @ m)
    ntm = float(n @ tensor.t @ m)
    probs = np.array(
        [
            0.25 * (1 + alpha * an + beta * bm + alpha * beta * ntm)
            for alpha in (+1, -1)
            for beta in (+1, -1)
        ]
    )
    return np.clip(probs, 0.0, None)


def referencecorrect_readout(model, p_measured):
    """The clipped estimator: solve R p = f, clip negatives and renormalize.

    Its flag is the reference for clip events, and where nothing clips its
    correlation equals the linear inversion's.
    """
    p = np.linalg.solve(model.joint, p_measured)
    clipped = bool(np.any(p < -1e-12))
    p = np.clip(p, 0.0, None)
    return p / p.sum(), clipped


def reference_estimate_correlation(counts):
    total = int(counts.sum())
    c_hat = float(counts[0] + counts[3] - counts[1] - counts[2]) / total
    return c_hat, math.sqrt(max(1.0 - c_hat * c_hat, 0.0) / total)


def reference_gain(model):
    """g = R^-T (1, -1, -1, 1), the signed rows of R^-1 added left to right."""
    inverse = np.linalg.inv(model.joint)
    return (inverse[0] - inverse[1] - inverse[2] + inverse[3]).tolist()


def reference_corrected(model, counts):
    """The linear inversion g . f of one setting's counts, f = counts / total,
    and its delta-method sigma."""
    total = int(counts.sum())
    c = second = 0.0
    for g_j, n_j in zip(reference_gain(model), counts.tolist()):
        c += g_j * n_j
        second += g_j * g_j * n_j
    c = c / total
    return c, math.sqrt(max(second / total - c * c, 0.0) / total)


def reference_settings(config):
    """(setting_index, alice_index, n, m) of each setting, pair by pair."""
    for i, ((m, m_prime), alice_idx) in enumerate(zip(config.pairs, config.pairing)):
        n = config.alice[alice_idx]
        yield 2 * i, alice_idx, n, m
        yield 2 * i + 1, alice_idx, n, m_prime


def reference_experiment(state, config, shots, seed, readout, correct, step):
    """One experiment, one setting at a time, as ``simulate`` writes it."""
    kind = config.kind
    settings = []
    clip_events = 0
    # one fresh stream per experiment, drawn from one setting at a time
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, step])))
    for setting_id, alice_idx, n, m in reference_settings(config):
        p_phys = readout.joint @ reference_joint_probabilities(state, n, m)
        counts = rng.multinomial(shots, p_phys / p_phys.sum())
        c_raw, sigma_raw = reference_estimate_correlation(counts)
        c_corr = sigma_corr = None
        if correct:
            _, clipped = referencecorrect_readout(readout, counts / shots)
            clip_events += int(clipped)
            c_corr, sigma_corr = reference_corrected(readout, counts)
        settings.append(
            {
                "setting_id": setting_id,
                "alice_index": alice_idx,
                "n": list(n),
                "m": list(m),
                "counts": [int(c) for c in counts],
                "c_raw": c_raw,
                "sigma_raw": sigma_raw,
                "c_corrected": c_corr,
                "sigma_corrected": sigma_corr,
            }
        )

    def assemble(dataset, gain=(1.0, -1.0, -1.0, 1.0)):
        values = [s[f"c_{dataset}"] for s in settings]
        ineq = evaluate(kind, config.phi, list(zip(values[::2], values[1::2])), gain)
        variance = 0.0
        for s in settings:
            variance += s[f"sigma_{dataset}"] * s[f"sigma_{dataset}"]
        sigma = math.sqrt(variance)
        if sigma == 0.0:
            excess = ineq["value"] - kind.bound
            nsig = math.inf if excess > 0 else (-math.inf if excess < 0 else 0.0)
            return ineq, sigma, nsig
        return ineq, sigma, sigma_violation(ineq["value"], sigma, kind)

    out = {
        "kind": kind.tag,
        "phi_deg": math.degrees(config.phi),
        "shots_per_setting": shots,
        "seed": seed,
        "settings": settings,
    }
    out["raw"], out["sigma_raw"], out["sigmas_violation_raw"] = assemble("raw")
    out["clip_events"] = clip_events
    if correct:
        corrected = assemble("corrected", reference_gain(readout))
        out["corrected"], out["sigma_corrected"], out["sigmas_violation_corrected"] = corrected
    out["config"] = config.to_json_dict()
    return out


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_state(rng):
    # a random full-rank state: nonzero marginals, unlike the Werner states
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def random_config(rng, kind):
    phi = float(rng.uniform(0.0, math.pi))
    us, e_hats = [], []
    for _ in range(kind.num_pairs):
        u = random_unit(rng)
        e_hat = np.cross(u, random_unit(rng))
        us.append(u)
        e_hats.append(e_hat / np.linalg.norm(e_hat))
    pairing = tuple(int(i) for i in rng.integers(0, 2, size=kind.num_pairs))
    alice = (random_unit(rng), random_unit(rng))
    return SettingsConfig(alice=alice, u=us, e_hat=e_hats, pairing=pairing, phi=phi, kind=kind)


def random_readout(rng):
    return ReadoutModel(*rng.uniform(0.75, 1.0, size=4))


# a block of 64 experiments is one sweep block
BLOCK_SIZES = [*range(1, 9), 64]


class TestStackedMatchesReference:
    def test_experiments_bit_identical(self):
        rng = np.random.default_rng(2024)
        total_clips = 0
        for trial in range(40):
            kind = (I26, I28)[trial % 2]
            state, config = random_state(rng), random_config(rng, kind)
            readout = random_readout(rng)
            # few shots, so that correction clips
            shots = int(rng.integers(1, 60))
            seed, step = (int(x) for x in rng.integers(0, 2**32, size=2))
            for correct in (False, True):
                args = (state, config, shots, seed, readout, correct, step)
                ref = reference_experiment(*args)
                got = run_one(*args)
                assert got.counts[0].tolist() == [s["counts"] for s in ref["settings"]]
                data = got.to_json_dict(0)
                assert data == ref and list(data) == list(ref)
                assert type(data["clip_events"]) is int
                total_clips += data["clip_events"]
        assert total_clips > 0

    def test_stacked_rows_equal_single_calls(self):
        # 512 rows is one sweep block of i28 settings: BLAS could round a
        # stack that large differently from a single row
        rng = np.random.default_rng(77)
        for size in [8] * 20 + [512]:
            state, readout = random_state(rng), random_readout(rng)
            n = np.array([random_unit(rng) for _ in range(size)])
            m = np.array([random_unit(rng) for _ in range(size)])
            probs = joint_probabilities(state, n, m)
            reported = apply_confusion(readout, probs)
            counts = np.array([rng.multinomial(30, p / p.sum()) for p in reported])
            c_corr, sigma_corr = estimate(counts, readout._gain)
            c_hat, sigma = estimate(counts, RAW_GAIN)
            for i in range(size):
                row = joint_probabilities(state, n[i : i + 1], m[i : i + 1])[0]
                assert row.tobytes() == probs[i].tobytes()
                assert row.tobytes() == reference_joint_probabilities(state, n[i], m[i]).tobytes()
                row = apply_confusion(readout, probs[i : i + 1])[0]
                assert row.tobytes() == reported[i].tobytes()
                assert row.tobytes() == (readout.joint @ probs[i]).tobytes()
                row = estimate(counts[i : i + 1], readout._gain)
                assert [x.tolist() for x in row] == [[c_corr[i]], [sigma_corr[i]]]
                assert reference_corrected(readout, counts[i]) == (c_corr[i], sigma_corr[i])
                ref_p, ref_clipped = referencecorrect_readout(readout, counts[i] / 30)
                if not ref_clipped:
                    assert c_corr[i] == pytest.approx(outcome_correlation(ref_p), abs=1e-10)
                row = estimate(counts[i : i + 1], RAW_GAIN)
                assert [x.tolist() for x in row] == [[c_hat[i]], [sigma[i]]]
                assert reference_estimate_correlation(counts[i]) == (c_hat[i], sigma[i])

    def test_blocks_equal_reference_per_step(self):
        rng = np.random.default_rng(2026)
        total_clips = 0
        uneven_clips = False
        # every block size twice, once for each inequality
        for trial, size in enumerate(BLOCK_SIZES * 2):
            state, readout = random_state(rng), random_readout(rng)
            config = random_config(rng, (I26, I28)[trial % 2])
            phis = rng.uniform(0.0, math.pi, size=size).tolist()
            # few shots, so that correction clips
            shots = int(rng.integers(1, 60))
            seed = int(rng.integers(0, 2**32))
            first_step = int(rng.integers(0, 2**32 - len(phis) + 1))
            for correct in (False, True):
                got = run_experiments(state, config, phis, shots, seed, readout, correct, first_step)
                assert got.counts.shape == (len(phis), 2 * len(config.pairs), 4)
                for k, phi in enumerate(phis):
                    ref = reference_experiment(
                        state, dataclasses.replace(config, phi=phi), shots, seed, readout,
                        correct, first_step + k,
                    )
                    assert got.counts[k].tolist() == [s["counts"] for s in ref["settings"]]
                    # each experiment counts its own settings' clips only
                    assert got.to_json_dict(k) == ref
                    total_clips += ref["clip_events"]
                uneven_clips |= len(set(got.clip_events.tolist())) > 1
        assert total_clips > 0 and uneven_clips

    @pytest.mark.parametrize("shots", [1, 59, 10**5])
    def test_block_counts_equal_reference(self, shots):
        rng = np.random.default_rng(100 + shots)
        state, readout = random_state(rng), random_readout(rng)
        for kind in (I26, I28):
            config = random_config(rng, kind)
            for size in BLOCK_SIZES:
                phis = rng.uniform(0.0, math.pi, size=size).tolist()
                for seed, first_step in [(0, 0), (2**32 - 1, 2**32 - size), (12345, 678)]:
                    got = run_experiments(
                        state, config, phis, shots, seed, readout, first_step=first_step
                    )
                    for k, phi in enumerate(phis):
                        ref = reference_experiment(
                            state, dataclasses.replace(config, phi=phi), shots, seed, readout,
                            False, first_step + k,
                        )
                        assert got.counts[k].tolist() == [s["counts"] for s in ref["settings"]]

    def test_experiments_equal_blocks_of_one(self):
        state = werner(0.9)
        config = adapted_config(state)
        readout = ReadoutModel(0.97, 0.95, 0.96, 0.94)
        phis = [0.0, PHI, 1.0, math.pi]
        block = run_experiments(state, config, phis, 500, 3, readout, True, first_step=9)
        for k, phi in enumerate(phis):
            single = run_experiments(state, config, [phi], 500, 3, readout, True, first_step=9 + k)
            assert block.to_json_dict(k) == single.to_json_dict(0)

    def test_empty_block(self):
        with pytest.raises(ValueError, match="at least one phi"):
            run_experiments(werner(0.5), canonical_i26(0.0), [], 10, seed=0)

    @pytest.mark.parametrize("size", [1, 3])
    def test_last_step_in_range(self, size):
        state = werner(0.5)
        config, phis = adapted_config(state), [PHI] * size
        block = run_experiments(state, config, phis, 10, 0, first_step=2**32 - size)
        assert block.counts.shape == (size, 6, 4)
        with pytest.raises(ValueError, match="step must lie in"):
            run_experiments(state, config, phis, 10, 0, first_step=2**32 - size + 1)

    @pytest.mark.parametrize("phi", [-1e-12, -0.1, math.pi + 1e-12, 4.0, math.nan, math.inf])
    def test_phi_out_of_range(self, phi):
        # a bad angle anywhere in the block is rejected before any draw
        state = werner(0.5)
        with pytest.raises(ValueError, match=r"phi must lie in \[0, pi\]"):
            run_experiments(state, adapted_config(state), [0.5, phi], 10, 0)

    def test_single_rows_rejected(self):
        # each stage takes the stack run_experiments passes it, one row or many
        state, readout = random_state(np.random.default_rng(3)), ReadoutModel()
        with pytest.raises(ValueError, match="must be a stack of 3-vectors"):
            joint_probabilities(state, [0, 0, 1], [1, 0, 0])
        with pytest.raises(ValueError, match=r"expected an \(S, 4\) stack of probabilities"):
            apply_confusion(readout, [0.25] * 4)
        assert joint_probabilities(state, [[0, 0, 1]], [[1, 0, 0]]).shape == (1, 4)
        assert apply_confusion(readout, [[0.25] * 4]).shape == (1, 4)
        assert joint_probabilities(state, np.eye(3), np.eye(3)).shape == (3, 4)

    def test_counts_read_only(self):
        state = werner(0.9)
        block = run_one(state, adapted_config(state), 100, seed=1, correct=True)
        arrays = [block.phis, block.settings, block.counts, block.clip_events]
        for estimates in (block.raw, block.corrected):
            arrays += [getattr(estimates, f.name) for f in dataclasses.fields(estimates)]
        for x in arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] += 1

    def test_settings_equal_reference(self):
        state = werner(0.9)
        rng = np.random.default_rng(8)
        for config in (adapted_config(state), canonical_i28(0.4), random_config(rng, I28)):
            phis = [0.0, 0.3, math.pi]
            block = run_experiments(state, config, phis, 100, 1, correct=True)
            assert block.settings.shape == (3, len(config.pairs), 2, 3)
            for k, phi in enumerate(phis):
                moved = dataclasses.replace(config, phi=phi)
                rows = block.settings[k].reshape(-1, 3)
                data = block.to_json_dict(k)["settings"]
                for i, (setting_id, alice_idx, n, m) in enumerate(reference_settings(moved)):
                    assert rows[i].tobytes() == m.tobytes()
                    assert (data[i]["setting_id"], data[i]["alice_index"]) == (setting_id, alice_idx)
                    assert data[i]["n"] == n.tolist() and data[i]["m"] == m.tolist()


class TestEstimates:
    """Pair terms, values and sigmas of a block against the scalar reference."""

    def test_random_correlations_equal_reference(self):
        rng = np.random.default_rng(19)
        for kind in (I26, I28):
            phis = rng.uniform(0.0, math.pi, size=50).tolist()
            sines = np.array([kind.sine_coeff * math.sin(phi / 2.0) for phi in phis])
            # every setting with its own total
            totals = rng.integers(1, 1000, size=50 * 2 * kind.num_pairs).tolist()
            counts = np.array([rng.multinomial(n, rng.dirichlet(np.ones(4))) for n in totals])
            got = _estimates(kind, sines, counts, RAW_GAIN)
            refs = [reference_estimate_correlation(row) for row in counts]
            c = np.array([ref[0] for ref in refs]).reshape(50, -1)
            c_sigma = np.array([ref[1] for ref in refs]).reshape(c.shape)
            for k, phi in enumerate(phis):
                assert got.c[k].tolist() == c[k].tolist()
                assert got.c_sigma[k].tolist() == c_sigma[k].tolist()
                ref = evaluate(kind, phi, list(zip(c[k, ::2], c[k, 1::2])))
                assert got.pair_terms[k].tolist() == ref["pair_terms"]
                assert got.value[k] == ref["value"]
                variance = 0.0
                for s in c_sigma[k].tolist():
                    variance += s * s
                assert got.sigma[k] == math.sqrt(variance)
                nsig = sigma_violation(ref["value"], math.sqrt(variance), kind)
                assert got.sigmas_violation[k] == nsig

    # each id is the raw correlation of the setting's counts: counts off
    # the simplex, or infinite ones, which give a NaN
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param([1e9 + 1, -1, 0, 0], id="1.000000002"),
            pytest.param([0, 5, 0, -1], id="-1.5"),
            pytest.param([math.inf, 0, 0, 1], id="nan"),
        ],
    )
    def test_out_of_range_correlation(self, bad):
        counts = np.full((6, 4), 25.0)
        counts[4] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=r"correlations must lie in \[-1, 1\]"):
                _estimates(I26, np.zeros(1), counts, RAW_GAIN)

    def test_corrected_domain(self):
        # a corrected C is g . f, a convex combination of the gain's
        # entries; all counts in one outcome give the largest, g_0 = 1/0.81
        gain = ReadoutModel(0.95, 0.95, 0.95, 0.95)._gain
        counts = np.full((6, 4), 25.0)
        counts[4] = [3, 0, 0, 0]
        assert _estimates(I26, np.zeros(1), counts, gain).c[0, 4] == gain[0] > 1.2
        for bad in ([1e9 + 1, -1, 0, 0], [0, 5, 0, -1], [math.inf, 0, 0, 1]):
            counts[4] = bad
            with np.errstate(invalid="ignore"):
                with pytest.raises(
                    ValueError, match=r"correlations must lie in \[-1.23457, 1.23457\]"
                ):
                    _estimates(I26, np.zeros(1), counts, gain)

    def test_zero_sigma(self):
        # above, below and at the bound, without a division warning: every
        # C is +-1, and in the second experiment each pair's C + C' is 0
        counts = np.array(
            [[5, 0, 0, 0]] * 6 + [[1, 0, 0, 0], [0, 2, 0, 0]] * 3 + [[1, 0, 0, 0]] * 6
        )
        sines = np.array([0.5, 0.5, 0.0])
        got = _estimates(I26, sines, counts, RAW_GAIN)
        assert got.value.tolist() == [6.5, 0.5, 6.0]
        assert got.sigma.tolist() == [0.0, 0.0, 0.0]
        assert got.sigmas_violation.tolist() == [math.inf, -math.inf, 0.0]
