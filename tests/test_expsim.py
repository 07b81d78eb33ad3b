import dataclasses
import math

import numpy as np
import pytest

from leggettsim.expsim import (
    ConditioningError,
    ExperimentResult,
    ReadoutModel,
    SettingRecord,
    _pcg64_state,
    _seed_words,
    apply_confusion,
    correct_readout,
    estimate_correlation,
    run_experiment,
    run_experiments,
)
from leggettsim.geometry import SettingsConfig, adapt_to_state, canonical_i26, make_pair
from leggettsim.inequalities import I26, I28, evaluate, quantum_value, sigma_violation
from leggettsim.qstate import (
    TwoQubitState,
    bell_state,
    correlation_tensor,
    joint_probabilities,
    werner,
)

PHI = math.radians(36.87)


def adapted_config(state, phi=PHI):
    return adapt_to_state(correlation_tensor(state), canonical_i26(phi))


class TestReadoutModel:
    def test_identity(self):
        assert np.allclose(ReadoutModel.identity().joint(), np.eye(4))

    def test_from_fidelities_columns(self):
        model = ReadoutModel.from_fidelities(0.99, 0.95, 1.0, 1.0)
        assert np.allclose(model.r_a[:, 0], [0.99, 0.01])
        assert np.allclose(model.r_a[:, 1], [0.05, 0.95])
        assert np.allclose(model.joint().sum(axis=0), 1.0, atol=1e-12)

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            ReadoutModel(r_a=np.array([[1.2, 0], [-0.2, 1]]), r_b=np.eye(2))

    @pytest.mark.parametrize("name", ["r_a", "r_b"])
    def test_matrices_read_only(self, name):
        model = ReadoutModel.from_fidelities(0.97, 0.95, 0.96, 0.94)
        with pytest.raises(ValueError):
            getattr(model, name)[0, 0] = 0.5
        with pytest.raises(ValueError):
            model.joint()[0, 0] = 0.5

    def test_caller_matrices_not_frozen(self):
        r_a, r_b = np.eye(2), np.eye(2)
        ReadoutModel(r_a=r_a, r_b=r_b)
        assert r_a.flags.writeable and r_b.flags.writeable

    def test_joint_is_kron(self):
        model = ReadoutModel.from_fidelities(0.97, 0.95, 0.96, 0.94)
        assert model.joint().tobytes() == np.kron(model.r_a, model.r_b).tobytes()


class TestConfusion:
    def test_identity_passthrough(self):
        p = np.array([0.4, 0.1, 0.2, 0.3])
        assert np.allclose(apply_confusion(ReadoutModel.identity(), p), p)

    def test_column_readoff(self):
        model = ReadoutModel.from_fidelities(0.99, 0.95, 1.0, 1.0)
        out = apply_confusion(model, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, [0.99, 0.0, 0.01, 0.0], atol=1e-12)

    def test_fully_mixing(self):
        model = ReadoutModel.from_fidelities(0.5, 0.5, 0.5, 0.5)
        out = apply_confusion(model, [0.7, 0.1, 0.1, 0.1])
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_sum_preserved(self):
        model = ReadoutModel.from_fidelities(0.97, 0.93, 0.96, 0.91)
        out = apply_confusion(model, [0.5, 0.0, 0.0, 0.5])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_malformed_input(self):
        with pytest.raises(ValueError):
            apply_confusion(ReadoutModel.identity(), [0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize(
        "p", [[np.nan, 0.0, 0.0, 1.0], [[0.25] * 4, [np.nan, 0.5, 0.5, 0.0]]]
    )
    def test_nan_rejected(self, p):
        with pytest.raises(ValueError, match="sum to 1"):
            apply_confusion(ReadoutModel.identity(), p)

    def test_nan_model_rejected(self):
        with pytest.raises(ValueError):
            ReadoutModel(r_a=np.array([[np.nan, 0.0], [0.0, 1.0]]), r_b=np.eye(2))
        with pytest.raises(ValueError):
            ReadoutModel.from_fidelities(np.nan, 1.0, 1.0, 1.0)


class TestCorrectReadout:
    def test_identity(self):
        p = np.array([0.3, 0.2, 0.1, 0.4])
        recovered, clipped = correct_readout(ReadoutModel.identity(), p)
        assert np.allclose(recovered, p, atol=1e-15) and clipped is False

    def test_round_trip(self):
        model = ReadoutModel.from_fidelities(0.97, 0.93, 0.97, 0.93)
        p_true = np.array([0.5, 0.0, 0.0, 0.5])
        recovered, _ = correct_readout(model, apply_confusion(model, p_true))
        assert np.allclose(recovered, p_true, atol=1e-10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            correct_readout(ReadoutModel.identity(), [np.nan, 0.0, 0.0, 1.0])

    def test_singular_model(self):
        model = ReadoutModel.from_fidelities(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConditioningError):
            correct_readout(model, [0.25, 0.25, 0.25, 0.25])

    def test_clipping_renormalizes(self):
        model = ReadoutModel.from_fidelities(0.95, 0.95, 0.95, 0.95)
        out, clipped = correct_readout(model, [1.0, 0.0, 0.0, 0.0])
        assert clipped is True
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = rng.uniform(0.9, 1.0, size=4)
            model = ReadoutModel.from_fidelities(*f)
            p = rng.dirichlet(np.ones(4))
            recovered, _ = correct_readout(model, apply_confusion(model, p))
            assert np.allclose(recovered, p, atol=1e-10)


def sampled_counts(state, shots, seed, **kwargs):
    """Counts of every setting of the unadapted six-setting configuration.

    At phi = 0 settings 0-3 measure (Z, Z) and settings 4-5 (X, X).
    """
    result = run_experiment(state, canonical_i26(0.0), shots, seed=seed, **kwargs)
    return np.array([rec.counts for rec in result.settings])


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
        with pytest.raises(ValueError, match="shots must be >= 1"):
            sampled_counts(werner(0.5), 0, seed=0)

    def test_streams_differ_across_settings_steps_and_seeds(self):
        # the six settings of one run share one distribution, so equal
        # streams would show as equal rows
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


# every [seed, setting_index, step] corner of the word range
CORNERS = [(a, b, c) for a in (0, 2**32 - 1) for b in (0, 2**32 - 1) for c in (0, 2**32 - 1)]


def random_triples(rng, size):
    triples = rng.integers(0, 2**32, size=(size, 3), dtype=np.uint64).tolist()
    return CORNERS + triples


class TestSeeding:
    """The one-pass seeder against numpy's own SeedSequence and PCG64."""

    def test_words_equal_seed_sequence(self):
        triples = random_triples(np.random.default_rng(13), 10**4)
        got = _seed_words(triples)
        assert got.shape == (len(triples), 4) and got.dtype == np.uint64
        for triple, words in zip(triples, got):
            expected = np.random.SeedSequence(triple).generate_state(4, np.uint64)
            assert np.array_equal(words, expected), triple

    def test_block_of_one(self):
        for triple in CORNERS:
            expected = np.random.SeedSequence(triple).generate_state(4, np.uint64)
            assert np.array_equal(_seed_words([triple])[0], expected)

    def test_states_equal_pcg64(self):
        triples = random_triples(np.random.default_rng(14), 2000)
        for triple, words in zip(triples, _seed_words(triples).tolist()):
            state = np.random.PCG64(np.random.SeedSequence(triple)).state
            assert _pcg64_state(words) == (state["state"]["state"], state["state"]["inc"])

    @pytest.mark.parametrize("shots", [1, 59, 10**5])
    def test_counts_equal_fresh_generators(self, shots):
        # one generator set to each row's state in turn, as run_experiments
        # does, against a fresh generator per row
        rng = np.random.default_rng(shots)
        triples = random_triples(rng, 200)
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        for triple, words in zip(triples, _seed_words(triples).tolist()):
            p = rng.dirichlet(np.ones(4))
            state, inc = _pcg64_state(words)
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            fresh = np.random.Generator(np.random.PCG64(np.random.SeedSequence(triple)))
            assert np.array_equal(generator.multinomial(shots, p), fresh.multinomial(shots, p))

    @pytest.mark.parametrize("shots", [1, 59, 10**5])
    def test_block_counts_equal_reference(self, shots):
        rng = np.random.default_rng(100 + shots)
        state, readout = random_state(rng), random_readout(rng)
        configs = [random_config(rng, (I26, I28)[j % 2]) for j in range(5)]
        for seed, first_step in [(0, 0), (2**32 - 1, 2**32 - 5), (12345, 678)]:
            got = run_experiments(state, configs, shots, seed, readout, first_step=first_step)
            for j, (config, result) in enumerate(zip(configs, got)):
                ref = reference_experiment(
                    state, config, shots, seed, readout, False, first_step + j
                )
                for a, b in zip(result.settings, ref.settings):
                    assert np.array_equal(a.counts, b.counts)


class TestEstimateCorrelation:
    def test_uniform(self):
        c, sigma = estimate_correlation([250, 250, 250, 250])
        assert c == 0.0
        assert sigma == pytest.approx(0.031623, abs=1e-6)

    def test_perfect(self):
        c, sigma = estimate_correlation([500, 0, 0, 500])
        assert (c, sigma) == (1.0, 0.0)

    def test_formula(self):
        c, sigma = estimate_correlation([450, 50, 50, 450])
        assert c == pytest.approx(0.8, abs=1e-12)
        assert sigma == pytest.approx(0.018974, abs=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            estimate_correlation([0, 0, 0, 0])


class TestRunExperiment:
    def test_ideal_state_consistency(self):
        state = bell_state("phi_minus")
        result = run_experiment(state, adapted_config(state), 10**5, seed=21)
        target = quantum_value(I26, PHI, 1.0)
        assert abs(result.raw.value - target) < 4 * result.sigma_raw

    def test_werner_consistency(self):
        state = werner(0.9)
        result = run_experiment(state, adapted_config(state), 10**5, seed=22)
        target = quantum_value(I26, PHI, 0.9)
        assert abs(result.raw.value - target) < 4 * result.sigma_raw

    def test_large_shot_limit(self):
        state = bell_state("phi_minus")
        result = run_experiment(state, adapted_config(state), 10**7, seed=23)
        assert abs(result.raw.value - quantum_value(I26, PHI, 1.0)) <= 5e-3

    def test_determinism(self):
        state = werner(0.95)
        config = adapted_config(state)
        model = ReadoutModel.from_fidelities(0.97, 0.95, 0.96, 0.94)
        a = run_experiment(state, config, 10**4, seed=5, readout=model, correct=True)
        b = run_experiment(state, config, 10**4, seed=5, readout=model, correct=True)
        assert a.raw.value == b.raw.value
        assert a.corrected.value == b.corrected.value
        for ra, rb in zip(a.settings, b.settings):
            assert np.array_equal(ra.counts, rb.counts)

    def test_estimator_consistency(self):
        state = bell_state("phi_minus")
        config = adapted_config(state)
        values, sigmas = [], []
        for seed in range(200):
            result = run_experiment(state, config, 10**4, seed=seed)
            values.append(result.raw.value)
            sigmas.append(result.sigma_raw)
        empirical = float(np.std(values, ddof=1))
        propagated = float(np.mean(sigmas))
        assert abs(empirical - propagated) / propagated < 0.20

    def test_correction_recovers_ideal(self):
        state = bell_state("phi_minus")
        config = adapted_config(state)
        model = ReadoutModel.from_fidelities(0.95, 0.92, 0.96, 0.93)
        result = run_experiment(
            state, config, 10**6, seed=17, readout=model, correct=True
        )
        for rec in result.settings:
            p_ideal = joint_probabilities(state, rec.n, rec.m)
            ideal = float(p_ideal[0] - p_ideal[1] - p_ideal[2] + p_ideal[3])
            combined = math.hypot(rec.sigma_raw, rec.sigma_corrected)
            assert abs(rec.c_corrected - ideal) < 4 * max(combined, 1e-6)

    def test_symmetric_confusion_shrinks_raw(self):
        state = bell_state("phi_minus")
        config = adapted_config(state)
        model = ReadoutModel.from_fidelities(0.95, 0.95, 0.95, 0.95)
        raw_mean = corr_mean = 0.0
        for seed in range(100):
            result = run_experiment(
                state, config, 2000, seed=seed, readout=model, correct=True
            )
            raw_mean += np.mean([abs(r.c_raw) for r in result.settings])
            corr_mean += np.mean([abs(r.c_corrected) for r in result.settings])
        assert raw_mean < corr_mean

    def test_json_and_csv_export(self):
        state = werner(0.9)
        result = run_experiment(state, adapted_config(state), 1000, seed=2)
        data = result.to_json_dict()
        assert data["kind"] == "i26" and len(data["settings"]) == 6

    def test_ill_conditioned_model_without_correction(self):
        state = werner(0.9)
        model = ReadoutModel.from_fidelities(0.5, 0.5, 0.5, 0.5)
        result = run_experiment(
            state, adapted_config(state), 1000, seed=3, readout=model
        )
        assert result.corrected is None
        assert len(result.settings) == 6

    def test_ill_conditioned_model_with_correction(self):
        state = werner(0.9)
        model = ReadoutModel.from_fidelities(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConditioningError):
            run_experiment(
                state, adapted_config(state), 1000, seed=3, readout=model, correct=True
            )

    def test_condition_checked_once_per_model(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counting(r):
            calls.append(r)
            return cond(r)

        monkeypatch.setattr(np.linalg, "cond", counting)
        state = werner(0.9)
        model = ReadoutModel.from_fidelities(0.97, 0.95, 0.96, 0.94)
        for seed in range(3):
            run_experiment(
                state, adapted_config(state), 1000, seed=seed, readout=model, correct=True
            )
        assert len(calls) == 1

    def test_wrong_pair_count(self):
        # three pairs tagged with the four-pair inequality
        state = werner(0.9)
        config = dataclasses.replace(adapted_config(state), kind=I28)
        with pytest.raises(ValueError, match="i28 needs 4 correlation pairs, got 3"):
            run_experiment(state, config, 100, seed=0)


# --- the per-setting loop the stacked run_experiment replaced -------------
#
# Kept as the bit-level reference: one setting at a time, with the
# one-setting helper bodies written out as they were.


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
    p = np.linalg.solve(model.joint(), p_measured)
    clipped = bool(np.any(p < -1e-12))
    p = np.clip(p, 0.0, None)
    return p / p.sum(), clipped


def reference_estimate_correlation(counts):
    total = int(counts.sum())
    c_hat = float(counts[0] + counts[3] - counts[1] - counts[2]) / total
    return c_hat, math.sqrt(max(1.0 - c_hat * c_hat, 0.0) / total)


def reference_experiment(state, config, shots, seed, readout, correct, step):
    kind = config.kind
    records = []
    clip_events = 0
    for setting_id, alice_idx, n, m in config.settings():
        p_phys = readout.joint() @ reference_joint_probabilities(state, n, m)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, setting_id, step]))
        )
        counts = rng.multinomial(shots, p_phys / p_phys.sum())
        c_raw, sigma_raw = reference_estimate_correlation(counts)
        c_corr = sigma_corr = None
        if correct:
            p_corr, clipped = referencecorrect_readout(readout, counts / shots)
            clip_events += int(clipped)
            c_corr = float(p_corr[0] + p_corr[3] - p_corr[1] - p_corr[2])
            sigma_corr = math.sqrt(max(1.0 - c_corr * c_corr, 0.0) / shots)
        records.append(
            SettingRecord(setting_id, alice_idx, n, m, counts, c_raw, sigma_raw, c_corr, sigma_corr)
        )

    def assemble(values, sigmas):
        pairs = [(values[2 * i], values[2 * i + 1]) for i in range(kind.num_pairs)]
        ineq = evaluate(kind, config.phi, pairs)
        sigma = math.sqrt(sum(s * s for s in sigmas))
        if sigma == 0.0:
            excess = ineq.value - kind.bound
            nsig = math.inf if excess > 0 else (-math.inf if excess < 0 else 0.0)
            return ineq, sigma, nsig
        return ineq, sigma, sigma_violation(ineq.value, sigma, kind)

    raw = assemble([r.c_raw for r in records], [r.sigma_raw for r in records])
    corrected = (None, None, None)
    if correct:
        corrected = assemble(
            [r.c_corrected for r in records], [r.sigma_corrected for r in records]
        )
    return ExperimentResult(
        config, shots, seed, tuple(records), *raw, *corrected, clip_events
    )


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
    pairs = []
    for _ in range(kind.num_pairs):
        u = random_unit(rng)
        e_hat = np.cross(u, random_unit(rng))
        pairs.append(make_pair(u, e_hat / np.linalg.norm(e_hat), phi))
    pairing = tuple(int(i) for i in rng.integers(0, 2, size=kind.num_pairs))
    alice = (random_unit(rng), random_unit(rng))
    return SettingsConfig(alice=alice, pairs=tuple(pairs), pairing=pairing, kind=kind)


def random_readout(rng):
    return ReadoutModel.from_fidelities(*rng.uniform(0.75, 1.0, size=4))


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
                got = run_experiment(*args)
                for a, b in zip(got.settings, ref.settings):
                    assert np.array_equal(a.counts, b.counts)
                assert got.to_json_dict() == ref.to_json_dict()
                assert got.clip_events == ref.clip_events
                total_clips += got.clip_events
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
            corrected, clipped = correct_readout(readout, counts / 30)
            c_hat, sigma = estimate_correlation(counts)
            for i in range(size):
                row = joint_probabilities(state, n[i], m[i])
                assert row.tobytes() == probs[i].tobytes()
                assert row.tobytes() == reference_joint_probabilities(state, n[i], m[i]).tobytes()
                row = apply_confusion(readout, probs[i])
                assert row.tobytes() == reported[i].tobytes()
                assert row.tobytes() == (readout.joint() @ probs[i]).tobytes()
                row, row_clipped = correct_readout(readout, counts[i] / 30)
                assert row.tobytes() == corrected[i].tobytes()
                assert row_clipped is bool(clipped[i])
                ref_row, ref_clipped = referencecorrect_readout(readout, counts[i] / 30)
                assert row.tobytes() == ref_row.tobytes() and row_clipped == ref_clipped
                single = estimate_correlation(counts[i])
                assert single == (float(c_hat[i]), float(sigma[i]))
                assert single == reference_estimate_correlation(counts[i])
                assert type(single[0]) is float and type(single[1]) is float

    def test_blocks_equal_reference_per_step(self):
        rng = np.random.default_rng(2026)
        total_clips = 0
        uneven_clips = False
        for trial in range(16):
            state, readout = random_state(rng), random_readout(rng)
            kinds = rng.integers(0, 2, size=int(rng.integers(1, 9)))
            configs = [random_config(rng, (I26, I28)[int(k)]) for k in kinds]
            # few shots, so that correction clips
            shots = int(rng.integers(1, 60))
            seed = int(rng.integers(0, 2**32))
            first_step = int(rng.integers(0, 2**32 - len(configs) + 1))
            for correct in (False, True):
                got = run_experiments(
                    state, configs, shots, seed, readout, correct, first_step
                )
                assert len(got) == len(configs)
                for j, (config, result) in enumerate(zip(configs, got)):
                    ref = reference_experiment(
                        state, config, shots, seed, readout, correct, first_step + j
                    )
                    for a, b in zip(result.settings, ref.settings):
                        assert np.array_equal(a.counts, b.counts)
                    assert result.to_json_dict() == ref.to_json_dict()
                    # each result counts its own settings' clips only
                    assert result.clip_events == ref.clip_events
                    assert type(result.clip_events) is int
                    total_clips += result.clip_events
                uneven_clips |= len({result.clip_events for result in got}) > 1
        assert total_clips > 0 and uneven_clips

    def test_block_of_one_is_run_experiment(self):
        state = werner(0.9)
        config = adapted_config(state)
        readout = ReadoutModel.from_fidelities(0.97, 0.95, 0.96, 0.94)
        (block,) = run_experiments(state, [config], 500, 3, readout, True, first_step=9)
        single = run_experiment(state, config, 500, 3, readout, True, step=9)
        assert block.to_json_dict() == single.to_json_dict()

    def test_empty_block(self):
        with pytest.raises(ValueError, match="at least one configuration"):
            run_experiments(werner(0.5), [], 10, seed=0)

    @pytest.mark.parametrize("size", [1, 3])
    def test_last_step_in_range(self, size):
        state = werner(0.5)
        configs = [adapted_config(state)] * size
        assert len(run_experiments(state, configs, 10, 0, first_step=2**32 - size)) == size
        with pytest.raises(ValueError, match="step must lie in"):
            run_experiments(state, configs, 10, 0, first_step=2**32 - size + 1)

    def test_single_call_shapes(self):
        state, readout = random_state(np.random.default_rng(3)), ReadoutModel.identity()
        assert joint_probabilities(state, [0, 0, 1], [1, 0, 0]).shape == (4,)
        assert apply_confusion(readout, [0.25] * 4).shape == (4,)
        p, clipped = correct_readout(readout, [0.25] * 4)
        assert p.shape == (4,) and clipped is False
        assert joint_probabilities(state, np.eye(3), np.eye(3)).shape == (3, 4)

    def test_counts_read_only(self):
        state = werner(0.9)
        result = run_experiment(state, adapted_config(state), 100, seed=1, correct=True)
        for rec in result.settings:
            assert not rec.counts.flags.writeable
            with pytest.raises(ValueError):
                rec.counts[0] += 1

    def test_records_are_plain_tuples(self):
        state = werner(0.9)
        config = adapted_config(state)
        result = run_experiment(state, config, 100, seed=1, correct=True)
        assert SettingRecord._fields == (
            "setting_id", "alice_index", "n", "m", "counts",
            "c_raw", "sigma_raw", "c_corrected", "sigma_corrected",
        )
        for rec, (setting_id, alice_idx, n, m) in zip(result.settings, config.settings()):
            assert isinstance(rec, tuple) and len(rec) == 9
            assert rec[:2] == (setting_id, alice_idx) and rec[2] is n and rec[3] is m
            assert not (rec.n.flags.writeable or rec.m.flags.writeable)
        assert SettingRecord(0, 0, None, None, None, 1.0, 0.1)[7:] == (None, None)
