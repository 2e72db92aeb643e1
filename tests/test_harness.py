import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from senselink import channel as ch
from senselink import cli
from senselink import gmm
from senselink import harness
from senselink import optimizer as opt
from senselink import quant
from senselink import validation

from reference import classify, discriminant_score


@pytest.fixture(scope="module")
def default_config():
    return harness.ExperimentConfig()


@pytest.fixture(scope="module")
def default_decision(default_config):
    return harness.decide(default_config)


class TestConfigAndModel:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            harness.ExperimentConfig(noise_model="gaussianish")
        with pytest.raises(ValueError, match="seed must be non-negative"):
            harness.ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("field", ["dim", "centroid", "clip", "antennas", "snr_db",
                                       "blocklength", "observations", "trials", "seed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            harness.ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field", ["dim", "antennas", "blocklength", "observations",
                                       "trials", "seed"])
    def test_rejects_non_integer_counts(self, field):
        with pytest.raises(ValueError, match=field):
            harness.ExperimentConfig(**{field: 2.5})

    @pytest.mark.parametrize("field", ["dim", "antennas", "blocklength", "observations",
                                       "trials", "seed"])
    def test_rejects_bool_counts(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, not True"):
            harness.ExperimentConfig(**{field: True})

    @pytest.mark.parametrize("field", ["dim", "antennas", "blocklength", "observations",
                                       "trials"])
    def test_rejects_nonpositive_counts(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive, not 0"):
            harness.ExperimentConfig(**{field: 0})

    @pytest.mark.parametrize("field, value", [
        ("dim", [0] * 20_000), ("clip", [0.0] * 20_000), ("snr_db", "x" * 20_000),
        ("policy", ["a"] * 20_000)], ids=["dim", "clip", "snr_db", "policy"])
    def test_wrongly_typed_value_is_echoed_short(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be") as info:
            harness.ExperimentConfig(**{field: value})
        assert len(str(info.value)) < 200

    def test_decide_rejects_snr_beyond_float_range(self):
        with pytest.raises(ValueError, match="dB"):
            harness.decide(harness.ExperimentConfig(snr_db=4000.0, policy="bits:4"))

    def test_build_model_defaults(self, default_config):
        model = harness.build_model(default_config)
        assert model.dim == 50
        assert np.allclose(model.mu1, 0.1)
        assert np.allclose(model.mu2, -0.1)
        assert gmm.discriminant_gain(model) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_spec_diag_and_dense(self):
        cfg = harness.ExperimentConfig(dim=3, sigma_spec=[1.0, 2.0, 3.0])
        assert np.allclose(harness.build_model(cfg).sigma, np.diag([1.0, 2.0, 3.0]))
        dense = [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]
        cfg = harness.ExperimentConfig(dim=3, sigma_spec=dense)
        assert np.allclose(harness.build_model(cfg).sigma, dense)

    def test_models_built_once_per_spec(self):
        # a model without a file is built once per dimension, centroid and
        # covariance spec, whose entries are told apart to the bit, and
        # shared; a sweep over any parameter builds none after the first
        dense = [[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]
        cfg = harness.ExperimentConfig(dim=3, sigma_spec=dense)
        model = harness.build_model(cfg)
        assert harness.build_model(replace(cfg, sigma_spec=[row[:] for row in dense],
                                           policy="bits:2", snr_db=9.0)) is model
        signed = [[2.0, 0.5, -0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]
        for other in (replace(cfg, centroid=0.2), replace(cfg, sigma_spec=signed),
                      replace(cfg, sigma_spec=[2.0, 2.0, 1.0])):
            assert harness.build_model(other) is not model
        assert np.signbit(harness.build_model(replace(cfg, sigma_spec=signed)).sigma[0, 2])
        before = harness._model.cache_info().misses
        for param in harness.SWEEP_FIELDS:
            harness.sweep(cfg, param, [1.0, 2.0], ["bits:2", "urllc"], 10, seed=0)
        assert harness._model.cache_info().misses == before

    def test_unknown_sigma_spec(self):
        with pytest.raises(ValueError, match="unknown covariance spec 'diagonal'"):
            harness.build_model(harness.ExperimentConfig(dim=3, sigma_spec="diagonal"))

    def test_model_file_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "mu1": [0.4, 0.0], "mu2": [-0.4, 0.0], "sigma": [1.0, 2.0]}))
        model = harness.load_model_file(str(path))
        assert model.dim == 2
        assert np.allclose(model.sigma, np.diag([1.0, 2.0]))
        cfg = harness.ExperimentConfig(dim=2, model_file=str(path))
        assert np.allclose(harness.build_model(cfg).mu1, [0.4, 0.0])

    def test_decide_policies(self, default_config):
        adaptive = harness.decide(default_config)
        assert adaptive.bits_per_feature >= 1
        fixed = harness.decide(harness.ExperimentConfig(policy="bits:7"))
        assert fixed.bits_per_feature == 7
        urllc = harness.decide(harness.ExperimentConfig(policy="urllc"))
        assert urllc.infeasible and urllc.bits_per_feature == 1
        with pytest.raises(ValueError):
            harness.decide(harness.ExperimentConfig(policy="psychic"))


class TestRunTrial:
    def test_dead_channel_is_coin_flip(self, default_decision):
        cfg = harness.ExperimentConfig(snr_db=-80.0, trials=2000)
        decision = opt.fixed_bits_rate(4, harness.build_params(cfg))
        row = harness.estimate_error(cfg, decision, 2000, seed=3)
        assert row.error == pytest.approx(0.5, abs=0.04)

    @pytest.mark.parametrize("policy, noise_model", [
        ("bits:4", "quantizer"), ("bits:4", "lemma1"), ("bits:16", "quantizer"),
    ], ids=["lattice", "lemma1", "features"])
    def test_dead_channel_decides_class_2(self, policy, noise_model):
        # at -80 dB every packet is lost, so every episode sums to 0 and
        # decides class 2: the wrong count is the number of class-1 draws,
        # replayed from the first n values of each block's stream
        cfg = harness.ExperimentConfig(snr_db=-80.0, policy=policy, noise_model=noise_model)
        decision = harness.decide(cfg)
        level = engine_level(decision.params, decision.bits_per_feature, noise_model)
        size = harness._block_size(decision.params, [level])
        trials = 2 * size + size // 3  # the last block is partial
        row = harness.estimate_error(cfg, decision, trials, seed=4, cell=2)
        first = sum(int(np.count_nonzero(np.random.default_rng([4, 2, block]).integers(
            1, 3, size=min(size, trials - start)) == 1))
            for block, start in enumerate(range(0, trials, size)))
        assert row.error == first / trials

    def test_clean_channel_high_rate_matches_fused_gaussian(self):
        # every packet delivered, negligible quantization -> error is
        # Q(sqrt(K * D0 / 2)) for the fused score
        cfg = harness.ExperimentConfig(snr_db=60.0, observations=4,
                                       policy="bits:12", noise_model="lemma1")
        decision = opt.fixed_bits_rate(12, harness.build_params(cfg))
        row = harness.estimate_error(cfg, decision, 20_000, seed=5)
        from senselink.numerics import q_function
        expected = q_function(math.sqrt(4 * 1.0 / 2.0))
        assert abs(row.error - expected) <= 3.0 * math.sqrt(expected * (1 - expected) / 20_000)

    def test_default_error_matches_semi_analytic(self, default_config, default_decision):
        row = harness.estimate_error(default_config, default_decision, 10_000, seed=1)
        se = math.sqrt(row.pred_exact * (1 - row.pred_exact) / 10_000)
        assert abs(row.error - row.pred_exact) <= 3.0 * se

    def test_quantizer_and_lemma1_agree(self, default_decision):
        rows = []
        for noise_model in ("quantizer", "lemma1"):
            cfg = harness.ExperimentConfig(noise_model=noise_model)
            rows.append(harness.estimate_error(cfg, default_decision, 10_000, seed=7))
        spread = abs(rows[0].error - rows[1].error)
        assert spread <= rows[0].ci95 + rows[1].ci95


def reference_error(config, decision, trials, seed):
    """Literal per-trial simulation in the feature coordinates, kept as the
    engine's reference: sample, encode, decode, score and classify one
    episode at a time."""
    model = harness.build_model(config)
    channel = harness.build_params(config, model).channel
    bits, k = decision.bits_per_feature, config.observations
    qc = quant.QuantizerConfig(config.clip, bits, quant.klt(model.sigma)[1])
    s2 = quant.noise_variance(bits, config.clip)
    score_model = gmm.InferenceModel(model.mu1, model.mu2, model.sigma + s2 * np.eye(model.dim))
    rng = np.random.default_rng(seed)
    wrong = 0
    for _ in range(trials):
        true_class = int(rng.integers(1, 3))
        x = gmm.sample_features(model, true_class, k, rng)
        if config.noise_model == "quantizer":
            decoded = quant.decode(quant.encode(x, qc)[0], qc)
        else:
            decoded = x + math.sqrt(s2) * rng.standard_normal(x.shape)
        snrs = ch.sample_post_mrc_snr(channel, rng, size=k)
        success = rng.random(k) >= ch.packet_loss(snrs, config.blocklength,
                                                  decision.rounded_rate)
        if success.any():
            decided = classify(discriminant_score(decoded[success], score_model))
        else:
            decided = int(rng.integers(1, 3))
        wrong += decided != true_class
    return wrong / trials


def dense_config(policy, noise_model):
    """A seeded dense 20x20 covariance with a spread spectrum (0.1 to 5), so a
    score that ignored the covariance would show, at 1 antenna and 1 dB."""
    sigma = validation._random_spd(np.random.default_rng(31), 20, (0.1, 5.0))
    return harness.ExperimentConfig(dim=20, centroid=0.15, sigma_spec=sigma.tolist(),
                                    antennas=1, snr_db=1.0, observations=5,
                                    policy=policy, noise_model=noise_model)


def assert_engine_matches_reference(cfg, trials, seed):
    decision = harness.decide(cfg)
    engine = harness.estimate_error(cfg, decision, trials, seed=seed).error
    reference = reference_error(cfg, decision, trials, seed=seed)
    spread = math.sqrt((engine * (1 - engine) + reference * (1 - reference)) / trials)
    assert abs(engine - reference) <= 3.0 * spread


class TestEngineMatchesReference:
    @pytest.mark.parametrize("noise_model", ["quantizer", "lemma1"])
    def test_dense_covariance(self, noise_model):
        # about one packet in five lost at 2 bits, so a score that ignored
        # losses would show
        assert_engine_matches_reference(dense_config("bits:2", noise_model), 10_000, seed=17)

    def test_dense_covariance_high_loss(self):
        # about two packets in three lost at 6 bits, so a score summed into
        # the wrong episode, or a lost packet that still counts, would show
        cfg = dense_config("bits:6", "quantizer")
        rate = harness.decide(cfg).rounded_rate
        assert ch.avg_packet_loss_exact(harness.build_params(cfg).channel, rate) > 0.6
        assert_engine_matches_reference(cfg, 10_000, seed=19)


    @pytest.mark.parametrize("noise_model", ["quantizer", "lemma1"])
    def test_policies_sharing_a_point(self, noise_model):
        # three levels scored on the same episodes: about one packet in five
        # lost at 2 bits, two in three at 6 bits, and 1 bit for urllc
        cfg = dense_config("bits:2", noise_model)
        policies = ["bits:2", "bits:6", "urllc"]
        rows = harness.sweep(cfg, "snr-db", [cfg.snr_db], policies, 10_000, seed=41)
        for row in rows:
            policy_cfg = replace(cfg, policy=row.policy)
            reference = reference_error(policy_cfg, harness.decide(policy_cfg), 10_000, seed=41)
            spread = math.sqrt((row.error * (1 - row.error)
                                + reference * (1 - reference)) / 10_000)
            assert abs(row.error - reference) <= 3.0 * spread, row.policy


class TestReceivedCounts:
    """The engine draws each level's received count from the exact loss law,
    highest rate first, instead of simulating the channel packet by packet."""

    class Binomials:
        """A generator's binomial draws, keeping the chances they were drawn at."""

        def __init__(self, rng):
            self.rng, self.odds = rng, []

        def binomial(self, count, odds):
            self.odds.append(odds)
            return self.rng.binomial(count, odds)

    @pytest.mark.parametrize("snr_db", [-30.0, -10.0, 2.0, 20.0, 60.0])
    def test_arrival_odds_over_envelope(self, snr_db):
        # the chance that a packet lost at a level arrives at the next lower
        # one lies in [0, 1] over the envelope, where the loss reaches 0 and
        # 1 exactly and is not exactly monotone in the rate, and the chances
        # chain back to each level's loss; the counts are nested in [0, K]
        rng = np.random.default_rng(int(snr_db) + 30)
        seen = set()
        for antennas, blocklength, dim in itertools.product((1, 4, 256), (10, 100, 2000),
                                                            (1, 7, 50, 512)):
            cfg = harness.ExperimentConfig(dim=dim, snr_db=snr_db, antennas=antennas,
                                           blocklength=blocklength, observations=7)
            params = harness.build_params(cfg)
            seen |= {0.0, 1.0} & set(params.loss.tolist())
            for bits in (np.arange(1, 65), np.sort(rng.choice(64, 3, replace=False)) + 1):
                draws = self.Binomials(rng)
                counts = harness._received(params, bits.tolist(), 50, draws)
                odds = np.array(draws.odds)  # highest rate first
                assert np.all((odds >= 0.0) & (odds <= 1.0)), (antennas, blocklength, dim)
                np.testing.assert_allclose(np.cumprod(1.0 - odds), params.loss[bits[::-1] - 1],
                                           rtol=0.0, atol=1e-13)
                assert np.all((counts[-1] >= 0) & (counts[0] <= 7))
                assert np.all(np.diff(counts, axis=0) <= 0)  # fewer at a higher rate
        assert seen >= {-30.0: {1.0}, 60.0: {0.0, 1.0}}.get(snr_db, set())

    @pytest.mark.parametrize("cfg, bits", [
        # about 13%, 34% and 64% loss at K = 10
        (harness.ExperimentConfig(), [4, 6, 5]),
        # about 23%, 45% and 64% loss at K = 5
        (dense_config("bits:2", "quantizer"), [2, 6, 4]),
    ], ids=["identity", "dense"])
    def test_counts_follow_the_per_packet_channel(self, cfg, bits):
        # the joint law of three levels' counts against a per-packet
        # simulation of the fading channel (gamma SNRs, each packet's uniform
        # against its loss at each rate), cell by cell of the histogram
        params, n, k = harness.build_params(cfg), 100_000, cfg.observations
        counts = harness._received(params, bits, n, np.random.default_rng(43))
        rng = np.random.default_rng(47)
        snrs = ch.sample_post_mrc_snr(params.channel, rng, size=n * k).reshape(n, k)
        u = rng.random((n, k))
        reference = [np.count_nonzero(u >= ch.packet_loss(snrs, cfg.blocklength,
                                                          params.level_rate(b)), axis=1)
                     for b in bits]
        got, expected = (np.bincount(np.ravel_multi_index(c, (k + 1,) * 3), minlength=(k + 1) ** 3)
                         for c in (counts, reference))
        pooled = (got + expected) / (2 * n)
        seen = pooled > 0
        z = (got - expected)[seen] / np.sqrt(2 * n * pooled * (1 - pooled))[seen]
        assert seen.sum() >= 50 and np.abs(z).max() <= 5.0, np.abs(z).max()

    @pytest.mark.parametrize("snr_db, noise_model, live", [
        (2.0, "quantizer", [4]), (2.0, "lemma1", [4]), (-30.0, "quantizer", []),
    ], ids=["features_silent", "lemma1_partly_silent", "all_silent"])
    def test_silent_path_changes_no_count(self, snr_db, noise_model, live, monkeypatch):
        # a level whose loss is 1 receives nothing, and a path none of whose
        # levels receives a packet builds no slot layout and draws nothing:
        # each of its levels counts the class-1 episodes, which decide class
        # 2, and the live levels count what they count alone, as a zero-odds
        # binomial draw consumes no number
        params = harness.build_params(harness.ExperimentConfig(snr_db=snr_db))
        bits, trials, key = [4, 16, 32], 3_000, (5, 1)
        assert [params.loss[b - 1] == 1.0 for b in bits] == [b not in live for b in bits]
        laid_out = []
        real_bundles = harness._Level.bundles
        monkeypatch.setattr(harness._Level, "bundles",
                            lambda lvl, m: laid_out.append(lvl.bits) or real_bundles(lvl, m))
        wrong = harness._count_errors(params, noise_model, bits, trials, key)
        levels = [harness._Level(params, b, noise_model) for b in bits]
        live_paths = {lvl.path for lvl in levels if lvl.bits in live}
        assert not {lvl.bits for lvl in levels if lvl.path not in live_paths} & set(laid_out)
        size, class_one = harness._block_size(params, levels), 0
        for block, start in enumerate(range(0, trials, size)):
            rng = np.random.default_rng([*key, block])
            class_one += int(np.count_nonzero(rng.integers(0, 2, min(size, trials - start)) == 0))
        for b, w in zip(bits, wrong):
            if b not in live:
                assert w == class_one, b
        if live:
            # alone, the live level draws its blocks' streams the same way
            monkeypatch.setattr(harness, "_block_size", lambda params, levels: size)
            assert harness._count_errors(params, noise_model, live, trials, key) == wrong[:1]


class TestLemma1EngineMatchesPrediction:
    """Under the lemma-1 noise model the engine simulates exactly the law that
    ``semi_analytic_error`` integrates: a Gaussian score per packet and
    i.i.d. arrivals at the quadrature average loss."""

    @pytest.mark.parametrize("cfg, seed", [
        (harness.ExperimentConfig(policy="bits:4", noise_model="lemma1"), 23),
        (dense_config("bits:6", "lemma1"), 29),
    ], ids=["default_bits4", "dense_bits6"])
    def test_error_matches_pred_exact(self, cfg, seed):
        decision = harness.decide(cfg)
        trials = 200_000
        row = harness.estimate_error(cfg, decision, trials, seed=seed)
        p = decision.predicted_exact
        assert abs(row.error - p) <= 3.0 * math.sqrt(p * (1 - p) / trials)


    def test_policies_sharing_a_point_match_pred_exact(self):
        # five levels on the same episodes, bits:32 losing every packet
        cfg = harness.ExperimentConfig(noise_model="lemma1")
        policies = ["adaptive", "brute", "urllc", "bits:6", "bits:32"]
        trials = 200_000
        rows = harness.sweep(cfg, "snr-db", [cfg.snr_db], policies, trials, seed=37)
        assert rows[-1].pred_exact == 0.5
        assert len({row.bits for row in rows}) == 5
        for row in rows:
            p = row.pred_exact
            assert abs(row.error - p) <= 3.0 * math.sqrt(p * (1 - p) / trials), row.policy


class TestGoldenRows:
    """``estimate_error`` rows pinned from the engine, one per path and noise
    model: identity ``bits:4`` through one group's tables, the dense row
    through 20 groups of one, identity ``bits:16`` (50 (2^16 - 1) index sums,
    too many for the tables) on quantized features, and one lemma-1 row. A
    change to a path's stream moves its row."""

    @pytest.mark.parametrize("cfg, trials, seed, cell, wrong", [
        (harness.ExperimentConfig(policy="bits:4"), 3000, 7, 2, 42),
        (harness.ExperimentConfig(policy="bits:4", noise_model="lemma1"), 3000, 7, 0, 80),
        (dense_config("bits:6", "quantizer"), 2000, 19, 1, 551),
        (harness.ExperimentConfig(policy="bits:16", snr_db=60.0), 3000, 7, 3, 44),
    ], ids=["identity_bits4", "lemma1_bits4", "dense_bits6", "identity_bits16_60db"])
    def test_rows_unchanged(self, cfg, trials, seed, cell, wrong):
        row = harness.estimate_error(cfg, harness.decide(cfg), trials, seed, cell=cell)
        assert row.error == wrong / trials
        assert row.ci95 == 1.96 * math.sqrt(row.error * (1.0 - row.error) / trials)

    @pytest.mark.parametrize("cfg, value, policies, wrong", [
        # two one-group table levels (8 and 10 bits, 1.7% and 14% average
        # loss) and two feature-path levels (11 and 12 bits, 31% and 56%)
        (harness.ExperimentConfig(observations=3), 12.0,
         ["bits:8", "bits:10", "bits:11", "bits:12"], (2253, 2653, 3342, 4957)),
        # two table levels of 20 groups (2 and 6 bits) and a feature-path level
        (replace(dense_config("bits:2", "quantizer"), observations=3), 6.0,
         ["bits:2", "bits:6", "bits:12"], (4769, 4628, 6814)),
        # three lemma-1 levels
        (harness.ExperimentConfig(observations=3, noise_model="lemma1"), 12.0,
         ["bits:8", "bits:10", "bits:12"], (2260, 2598, 4858)),
    ], ids=["lattice_and_features", "indices_and_features", "lemma1"])
    def test_shared_episode_rows_unchanged(self, cfg, value, policies, wrong):
        # one sweep point whose episodes feed levels on each path: pins the
        # stream that sweep points share
        rows = harness.sweep(cfg, "snr-db", [value], policies, 20_000, seed=0)
        assert [row.policy for row in rows] == policies
        assert [row.error for row in rows] == [w / 20_000 for w in wrong]


def engine_level(params, bits, noise_model):
    """The engine's ``_Level`` for ``bits`` at the point ``params``."""
    return harness._Level(params, bits, noise_model)


@pytest.fixture
def bundle_budget(monkeypatch):
    """Set the bundle budget, which fixes the tables a memo entry holds when
    it is built, and clear the memo; its entries leave with the test."""
    def set_budget(values):
        monkeypatch.setattr(harness, "_BUNDLE_VALUES", values)
        harness._table_law.cache_clear()
    yield set_budget
    harness._table_law.cache_clear()


def asymmetric_model_file(tmp_path):
    """Equal eigenvalues (2) and class means constant across coordinates but
    not opposite: a one-group cell that is not the identity default."""
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps({"mu1": [0.6] * 4, "mu2": [0.2] * 4, "sigma": [2.0] * 4}))
    return str(path)


class TestLatticePath:
    """Cells whose eigen-coordinates form one group, i.i.d. given the class,
    draw each bundle's index sum over all d coordinates from one uniform and
    invert its exact law: the table path's one-group case."""

    @staticmethod
    def one_group(cfg, bits):
        level = engine_level(harness.build_params(cfg), bits, cfg.noise_model)
        return level.path == "table" and level.width == 1

    def test_eligibility_is_derived(self, tmp_path):
        default = harness.ExperimentConfig()
        assert self.one_group(default, 4) and self.one_group(default, 10)
        assert not self.one_group(default, 11)  # 50 (2^11 - 1) index sums
        assert not self.one_group(replace(default, noise_model="lemma1"), 4)
        assert not self.one_group(dense_config("bits:4", "quantizer"), 4)
        assert not self.one_group(replace(default, dim=3, sigma_spec=[1.0, 2.0, 3.0]), 4)
        assert self.one_group(harness.ExperimentConfig(
            dim=4, model_file=asymmetric_model_file(tmp_path)), 4)
        unequal = tmp_path / "unequal.json"
        unequal.write_text(json.dumps({"mu1": [0.1, 0.2], "mu2": [-0.1, -0.2],
                                       "sigma": "identity"}))
        assert not self.one_group(harness.ExperimentConfig(dim=2, model_file=str(unequal)), 4)

    @pytest.mark.parametrize("dim", [1, 2, 3, 50])
    def test_lookup_is_the_binary_search(self, dim):
        # the guide-table lookup gives each uniform the index sum a binary
        # search in its class's CDF gives: at 0, at every bin edge, at every
        # CDF value and its neighbours, just below 1, at random, and in bins
        # that hold two or more CDF values
        params = harness.build_params(harness.ExperimentConfig(dim=dim))
        rng = np.random.default_rng(dim)
        crowded = 0
        for bits in range(1, 11):
            level = engine_level(params, bits, "quantizer")
            assert level.path == "table" and level.width == 1
            means = np.array([[0.1], [-0.1]])
            pmfs = (quant.index_pmf(means, 1.0, 5.0, bits) if dim == 1
                    else quant.index_sum_law(means, 1.0, 5.0, bits, dim)[1])
            cdf = np.cumsum(pmfs, axis=1)[:, :-1]
            _, guides, _ = level.tables[0]
            cells = guides.shape[1] - 1
            u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], np.arange(cells) / cells, cdf.ravel(),
                                np.nextafter(cdf, 0.0).ravel(), np.nextafter(cdf, 1.0).ravel(),
                                rng.random(10_000)])
            u = u[(u >= 0.0) & (u < 1.0)]
            got = level.lookup(np.repeat([0, 1], u.size), np.tile(u, 2)[:, None])[:, 0]
            expected = np.concatenate([np.searchsorted(row, u, "right") for row in cdf])
            np.testing.assert_array_equal(got, expected, err_msg=f"bits={bits}")
            bins = (u * cells).astype(np.intp)
            crowded += sum(np.count_nonzero(np.diff(row)[bins] >= 2) for row in guides)
        assert crowded > 0

    @pytest.mark.parametrize("bits", [4, 10])
    def test_guide_is_the_binary_search(self, bits):
        # each guide row is the binary search of its class's CDF at every
        # bin edge, as for groups of one
        level = engine_level(harness.build_params(harness.ExperimentConfig()), bits, "quantizer")
        assert level.path == "table" and level.width == 1
        cdf, guides, _ = level.tables[0]
        cells = guides.shape[1] - 1
        grid = np.arange(cells + 1) / cells
        for row, guide in zip(cdf[:, :-1], guides):
            np.testing.assert_array_equal(guide, np.searchsorted(row, grid, "right"))

    def test_points_share_read_only_tables(self):
        # the tables depend on the model, clip, bit level and d, not on the
        # channel or the observation count: a level with fewer bundles reads
        # the first tables of the same memo entry
        default = harness.ExperimentConfig()
        a = engine_level(harness.build_params(default), 4, "quantizer")
        b = engine_level(harness.build_params(replace(default, snr_db=8.0, observations=3,
                                                      antennas=1)), 4, "quantizer")
        assert (a.top, b.top) == (3, 1) and b.law is a.law
        assert a.tables[0][0] is b.tables[0][0] and a.tables[0][1] is b.tables[0][1]
        for table in a.tables[0][:2]:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0

    @pytest.mark.parametrize("change, bits", [({"clip": 4.0}, 4), ({"centroid": 0.2}, 4),
                                              ({"sigma_spec": [2.0] * 50}, 4), ({"dim": 49}, 4),
                                              ({}, 5)],
                             ids=["clip", "centroid", "eigenvalue", "dim", "bits"])
    def test_law_follows_its_key(self, change, bits):
        def tables(cfg, bits):
            level = engine_level(harness.build_params(cfg), bits, "quantizer")
            assert level.path == "table" and level.width == 1
            return level.tables[0][:2]
        default = harness.ExperimentConfig()
        cdf, guide = tables(default, 4)
        other_cdf, other_guide = tables(replace(default, **change), bits)
        assert other_cdf is not cdf and other_guide is not guide
        assert not (np.array_equal(other_cdf, cdf) and np.array_equal(other_guide, guide))

    def test_rows_independent_of_the_memo(self):
        # a cold memo, a warm one, and a warm one after another model's laws
        # give the same rows
        a = harness.ExperimentConfig(observations=3)
        b = replace(a, clip=3.0)
        policies = ["bits:2", "bits:4", "bits:16"]

        def rows(cfg):
            return harness.sweep(cfg, "snr-db", [2.0, 6.0], policies, 3000, seed=5)
        harness._table_law.cache_clear()
        cold = rows(a)
        assert harness._table_law.cache_info().misses == 2
        assert rows(a) == cold
        rows(b)
        assert rows(a) == cold

    def test_scores_follow_the_noise_variance(self, monkeypatch):
        # the scores come from the level's own weights, so a patched
        # distortion variance moves them while the shared law stays; a point
        # keeps its levels' variances once read, so the patched level is
        # built at a fresh point
        params = harness.build_params(harness.ExperimentConfig())
        plain = engine_level(params, 4, "quantizer")
        real = opt.sigma_q2_of_rate
        monkeypatch.setattr(opt, "sigma_q2_of_rate", lambda rate, point: 2.0 * real(rate, point))
        patched = engine_level(harness.build_params(harness.ExperimentConfig()), 4, "quantizer")
        assert patched.tables[0][0] is plain.tables[0][0]
        inflated = 1.0 + 2.0 * real(params.level_rate(4), params)
        sums, _ = quant.index_sum_law(0.1, 1.0, 5.0, 4, 50)

        def scores(level):  # one episode of one packet at each index sum 0..50 (2^4 - 1)
            t = np.arange(level.group_span[0] + 1)
            return level.episode_totals(t[:, None], np.ones(t.size, dtype=np.int64))
        np.testing.assert_allclose(scores(patched), sums * -0.2 / inflated,
                                   rtol=1e-12, atol=1e-12)
        assert not np.allclose(scores(patched), scores(plain), rtol=1e-6)

    @pytest.mark.parametrize("case", ["identity", "asymmetric"])
    def test_matches_feature_path(self, case, tmp_path, monkeypatch):
        # the same arrivals scored through the tables (bundles of 2 and 1
        # packets) and, with the span cap at 0, on quantized features;
        # bits:16 (and urllc's 6 bits) share the point
        if case == "identity":
            cfg = harness.ExperimentConfig(dim=4, centroid=0.3, observations=3)
            policies = ["bits:1", "bits:2", "bits:3", "bits:16"]
        else:
            cfg = harness.ExperimentConfig(dim=4, model_file=asymmetric_model_file(tmp_path),
                                           observations=3, clip=3.0)
            policies = ["bits:1", "bits:2", "urllc"]
        trials = 200_000
        tables = harness.sweep(cfg, "snr-db", [cfg.snr_db], policies, trials, seed=13)
        monkeypatch.setattr(harness, "_TABLE_SPAN", 0)
        features = harness.sweep(cfg, "snr-db", [cfg.snr_db], policies, trials, seed=13)
        for a, b in zip(tables, features):
            spread = math.sqrt((a.error * (1 - a.error) + b.error * (1 - b.error)) / trials)
            assert abs(a.error - b.error) <= 3.0 * spread, a.policy

    def test_tied_totals_are_exact_zeros(self):
        # at symmetric means an episode whose index sums add up to m d / 2
        # (1 bit, d = 50) totals exactly 0, and every other total has the
        # sign of its excess; its rows are bundles of 1 to 8 packets
        level = engine_level(harness.build_params(harness.ExperimentConfig()), 1, "quantizer")
        assert level.width == 1 and level.top == 3
        rng = np.random.default_rng(1)
        n, owner = 5000, np.sort(rng.integers(0, 5000, size=15_000))
        tables = rng.integers(0, level.top + 1, size=owner.size)
        sums = level.lookup(rng.integers(0, 2, size=owner.size), rng.random((owner.size, 1)),
                            tables)[:, 0]
        index_sums = np.bincount(owner, weights=sums, minlength=n).astype(np.int64)[:, None]
        packets = np.bincount(owner, weights=1 << tables, minlength=n).astype(np.int64)
        total = level.episode_totals(index_sums, packets)
        excess = 2 * index_sums[:, 0] - packets * level.group_span[0]
        assert np.count_nonzero(excess == 0) > 100
        np.testing.assert_array_equal(total == 0.0, excess == 0)
        np.testing.assert_array_equal(total < 0.0, excess * level.half_steps[0] < 0.0)

    @pytest.mark.parametrize("dim, bits, observations", [
        (1, 1, 4), (2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 2),
    ])
    def test_exact_ties_match_enumeration(self, dim, bits, observations):
        # every packet arrives, so an episode sums the K d grid indices of
        # class means +0.3 (class 1) and -0.3, drawn over bundles of 2 or 4
        # packets; at symmetric means a total at the centre c = K d (2^b - 1)
        # / 2 is an exact tie, which decides class 2. By the grid's symmetry
        # the error is then P1(T < c) + P1(T = c) / 2, enumerated here over
        # every index tuple
        cfg = harness.ExperimentConfig(dim=dim, centroid=0.3, snr_db=60.0,
                                       observations=observations, policy=f"bits:{bits}")
        decision = harness.decide(cfg)
        level = engine_level(decision.params, bits, "quantizer")
        assert level.path == "table" and level.width == 1 and level.top >= 1
        assert ch.avg_packet_loss_approx(decision.params.channel, decision.rounded_rate) < 1e-12
        levels = 2 ** bits
        delta = 2.0 * cfg.clip / (levels - 1)
        at_least = stats.norm.sf(-cfg.clip + (np.arange(1, levels) - 0.5) * delta - 0.3)
        pmf = -np.diff(np.concatenate([[1.0], at_least, [0.0]]))
        centre = observations * dim * (levels - 1) / 2
        below = tie = 0.0
        for indices in itertools.product(range(levels), repeat=observations * dim):
            mass = math.prod(pmf[j] for j in indices)
            below += mass if sum(indices) < centre else 0.0
            tie += mass if sum(indices) == centre else 0.0
        expected = below + 0.5 * tie
        trials = 200_000
        row = harness.estimate_error(cfg, decision, trials, seed=43)
        assert abs(row.error - expected) <= 5.0 * math.sqrt(expected * (1 - expected) / trials)


def diagonal_model_file(tmp_path, mu1, mu2, sigma):
    """A model file with diagonal covariance ``sigma`` and class means
    ``mu1`` and ``mu2``."""
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"mu1": mu1, "mu2": mu2, "sigma": sigma}))
    return str(path)


class TestIndicesPath:
    """Table-path levels of several groups draw each group's grid index sum
    over a bundle of 2^k packets from one uniform through its own exact CDF;
    a dense Sigma has d groups of one."""

    @staticmethod
    def level(cfg, bits):
        return engine_level(harness.build_params(cfg), bits, cfg.noise_model)

    def test_eligibility_is_derived(self, tmp_path):
        dense = dense_config("bits:4", "quantizer")  # d = 20
        assert [(self.level(dense, b).path, self.level(dense, b).width)
                for b in (4, 11)] == [("table", 20)] * 2
        assert self.level(dense, 12).path == "features"  # 20 (2^12 - 1) index sums
        assert self.level(replace(dense, noise_model="lemma1"), 4).path == "lemma1"
        diagonal = harness.ExperimentConfig(sigma_spec=[1.0] * 49 + [2.0])  # groups of 1 and 49
        # at 10 bits a single-packet table padded to 49 coordinates would hold
        # 2 2 (49 (2^10 - 1) + 1) > 2 50 2^10 values, so each is its own group
        assert [self.level(diagonal, b).width for b in (4, 10)] == [2, 50]
        assert self.level(diagonal, 11).path == "features"
        unequal = diagonal_model_file(tmp_path, [0.1, 0.2], [-0.1, -0.2], [1.0, 1.0])
        assert self.level(harness.ExperimentConfig(dim=2, model_file=unequal), 4).width == 2
        assert self.level(harness.ExperimentConfig(), 4).width == 1

    @pytest.mark.parametrize("bits", range(1, 8))
    def test_lookup_is_the_binary_search(self, bits):
        # each uniform's index is np.searchsorted(cdf[c, i], u, "right") in its
        # class's and coordinate's CDF: at 0, 2^-53 and 1 - 2^-53, at every
        # CDF value and its neighbours, and at random; eigenvalues down to
        # 1e-4 against a clip of 5 crowd the tail bins with CDF values. All
        # at once and four packets at a time, every uniform in a crowded bin
        # is bisected
        cfg = harness.ExperimentConfig(dim=6, centroid=0.3,
                                       sigma_spec=[1e-4, 0.01, 0.2, 1.0, 4.0, 25.0])
        params = harness.build_params(cfg)
        level = engine_level(params, bits, "quantizer")
        assert level.path == "table" and level.width == 6
        means, lam = params.model.means, params.model.eigvals
        cdfs = np.cumsum(quant.index_pmf(means[..., None], lam[:, None], cfg.clip, bits),
                         axis=-1)[..., :-1]
        rng = np.random.default_rng(bits)
        u = np.concatenate([[0.0, 2.0 ** -53, 1.0 - 2.0 ** -53], cdfs.ravel(),
                            np.nextafter(cdfs, 0.0).ravel(), np.nextafter(cdfs, 1.0).ravel(),
                            rng.random(20_000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        uniforms = np.repeat(u, 6).reshape(-1, 6)
        _, guides, _ = level.tables[0]
        cells = guides.shape[1] - 1
        crowded = 0
        for c in (0, 1):
            labels = np.full(u.size, c, dtype=np.int8)
            expected = np.stack([np.searchsorted(cdfs[c, i], u, "right") for i in range(6)], axis=1)
            np.testing.assert_array_equal(level.lookup(labels, uniforms), expected,
                                          err_msg=f"class {c}")
            for start in range(0, 6 * cdfs.shape[-1] + 3, 4):
                np.testing.assert_array_equal(
                    level.lookup(labels[start:start + 4], uniforms[start:start + 4]),
                    expected[start:start + 4], err_msg=f"class {c}, from {start}")
            crowded += sum(np.count_nonzero(np.diff(guides[c * 6 + i])[
                (u * cells).astype(np.intp)] >= 2) for i in range(6))
        assert crowded > 0 or bits == 1  # one CDF value a row at 1 bit

    def test_tables_are_exact(self):
        # every row of the tables is the CDF of its class and coordinate; a
        # bound is NaN exactly where its guide bin holds two or more values
        params = harness.build_params(dense_config("bits:5", "quantizer"))
        level = engine_level(params, 5, "quantizer")
        model = params.model
        cdf = np.cumsum(quant.index_pmf(model.means[..., None], model.eigvals[:, None], 5.0, 5),
                        axis=-1)[..., :-1].reshape(2 * model.dim, -1)
        table_cdf, guides, table_bounds = level.tables[0]
        np.testing.assert_array_equal(table_cdf[:, :-1], cdf)
        assert np.all(table_cdf[:, -1] == np.inf)
        cells = guides.shape[1] - 1
        assert cells == 4 * 2 ** 5
        grid = np.arange(cells + 1) / cells
        for row, guide, bounds in zip(cdf, guides, table_bounds):
            np.testing.assert_array_equal(guide, np.searchsorted(row, grid, "right"))
            crowded = np.diff(guide) >= 2
            assert np.all(np.isnan(bounds[:-1]) == crowded)
            padded = np.append(row, np.inf)
            np.testing.assert_array_equal(bounds[:-1][~crowded], padded[guide[:-1][~crowded]])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bundle_tables_are_convolutions(self, k, tmp_path):
        # the tables of bundles of 2^k packets: each row is the CDF of the
        # 2^k-fold convolution of its class's and coordinate's index law, at
        # unequal eigenvalues and class means, with one guide cell per value
        cfg = harness.ExperimentConfig(dim=3, observations=8, model_file=diagonal_model_file(
            tmp_path, [0.5, -0.2, 0.3], [-0.1, 0.4, -0.6], [0.01, 2.0, 0.7]))
        params = harness.build_params(cfg)
        level = engine_level(params, 3, "quantizer")
        assert level.path == "table" and level.width == 3 and len(level.tables) == 4
        cdf, guide, bounds = level.tables[k]
        model = params.model
        pmfs = quant.index_pmf(model.means[..., None], model.eigvals[:, None], cfg.clip, 3)
        values = 2 ** k * 7 + 1
        cells = guide.shape[1] - 1
        assert cdf.shape == (6, values) and cells == 1 << (values - 1).bit_length()
        grid = np.arange(cells + 1) / cells
        for row, pmf, guide_row in zip(cdf, pmfs.reshape(6, -1), guide):
            law = pmf
            for _ in range(2 ** k - 1):
                law = np.convolve(law, pmf)
            np.testing.assert_allclose(row[:-1], np.cumsum(law)[:-1], rtol=0, atol=1e-12)
            assert row[-1] == np.inf
            np.testing.assert_array_equal(guide_row, np.searchsorted(row[:-1], grid, "right"))

    def test_mixed_bundle_lookup(self, tmp_path):
        # one lookup over rows of every bundle size, shuffled, gives each row
        # the places that its own table gives it, and that a binary search of
        # its CDF rows gives: at 0, 2^-53 and 1 - 2^-53, at every CDF value of
        # every table and its neighbours, and at random; the eigenvalue 0.01
        # crowds tail bins of every table with CDF values
        cfg = harness.ExperimentConfig(dim=3, observations=8, model_file=diagonal_model_file(
            tmp_path, [0.5, -0.2, 0.3], [-0.1, 0.4, -0.6], [0.01, 2.0, 0.7]))
        level = engine_level(harness.build_params(cfg), 3, "quantizer")
        assert level.path == "table" and level.width == 3 and len(level.tables) == 4
        rng = np.random.default_rng(3)
        cdfs = np.concatenate([cdf[:, :-1].ravel() for cdf, *_ in level.tables])
        u = np.concatenate([[0.0, 2.0 ** -53, 1.0 - 2.0 ** -53], cdfs, np.nextafter(cdfs, 0.0),
                            np.nextafter(cdfs, 1.0), rng.random(2000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        tables, labels = (np.repeat(np.arange(8) // 2, u.size).astype(np.int8),
                          np.repeat(np.arange(8) % 2, u.size).astype(np.int8))
        uniforms = np.repeat(np.tile(u, 8), 3).reshape(-1, 3)
        order = rng.permutation(tables.size)
        tables, labels, uniforms = tables[order], labels[order], uniforms[order]
        got = level.lookup(labels, uniforms, tables)
        crowded = 0
        for k, (cdf, guide, bounds) in enumerate(level.tables):
            for c in (0, 1):
                mine = (tables == k) & (labels == c)
                expected = np.stack([np.searchsorted(cdf[c * 3 + i, :-1], uniforms[mine, i],
                                                     "right") for i in range(3)], axis=1)
                np.testing.assert_array_equal(got[mine], expected, err_msg=f"k={k}, class {c}")
                np.testing.assert_array_equal(
                    level.lookup(labels[mine], uniforms[mine], k), expected,
                    err_msg=f"k={k}, class {c}, alone")
                bins = (uniforms[mine] * (guide.shape[1] - 1)).astype(np.intp)
                crowded += np.count_nonzero(np.isnan(bounds[c * 3 + np.arange(3), bins]))
        assert crowded > 0

    def test_levels_share_read_only_tables(self, bundle_budget):
        # the tables depend on the model, clip and bit level, not on the
        # channel or K: levels with one key share one memo entry and its
        # read-only arrays, reading as many of its tables as their bundles
        # need, and another clip gets its own entry; the entry holds every
        # table the budget allows, and a smaller budget builds its own
        dense = dense_config("bits:4", "quantizer")  # d = 20, K = 5: bundles of 1, 2 and 4

        def level(cfg):
            level = engine_level(harness.build_params(cfg), 4, "quantizer")
            assert level.path == "table" and level.width == 20
            return level
        harness._table_law.cache_clear()
        shared = level(dense).law
        assert level(replace(dense, snr_db=8.0, antennas=4, blocklength=300)).law is shared
        assert harness._table_law.cache_info().misses == 1
        for array in (shared.cdf, shared.guide, shared.bounds, shared.starts, shared.cells,
                      *(array for view in shared.views for array in view)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        others = [level(replace(dense, clip=4.0)), level(replace(dense, observations=3))]
        assert harness._table_law.cache_info().misses == 2
        # bundles of 2^k packets hold 2 d (2^k (2^4 - 1) + 1) values: 37,400
        # for k = 1 .. 5, 75,840 with k = 6
        assert len(shared.views) == 6 and len(others[0].law.views) == 6
        # 1,000 values hold no bundle tables: 2 d (2 (2^4 - 1) + 1) = 1,240
        bundle_budget(1000)
        others.append(level(dense))
        assert harness._table_law.cache_info().misses == 1 and len(others[2].law.views) == 1
        assert [len(other.tables) for other in others] == [3, 2, 1]
        assert others[0].law is not shared and others[1].law is shared
        assert others[2].law is not shared
        np.testing.assert_array_equal(others[2].tables[0][0], shared.views[0][0])

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "dense", "repeated"])
    def test_top_follows_the_bundle_rule(self, kind):
        # a level's largest bundle is 2^top packets, the largest top with
        # 2^top <= K whose tables for k = 1 .. top hold at most
        # _BUNDLE_VALUES values in all, 2 n (g 2^k (2^b - 1) + 1) for n
        # groups of at most g; the levels of one key share one memo entry
        # whatever their K
        def reference(level, observations):
            n, widest = level.width, int(level.group_span.max()) // (2 ** level.bits - 1)
            top, held = 0, 0
            while 2 << top <= observations:
                held += 2 * n * ((2 << top) * widest * (2 ** level.bits - 1) + 1)
                if held > harness._BUNDLE_VALUES:
                    break
                top += 1
            return top

        for dim in (1, 2, 50, 128):
            sigma = {"identity": "identity",
                     "diagonal": np.geomspace(0.1, 4.0, dim).tolist(),
                     "dense": validation._random_spd(np.random.default_rng(dim), dim,
                                                     (0.1, 5.0)).tolist(),
                     "repeated": ([4.0] + [1.0] * (dim - 2) + [0.25])[-dim:]}[kind]
            config = harness.ExperimentConfig(dim=dim, sigma_spec=sigma)
            model = harness.build_model(config)
            points = {k: harness.build_params(replace(config, observations=k), model)
                      for k in (1, 2, 3, 7, 8, 10, 50, 200)}
            for bits in range(1, 9):
                levels = {k: engine_level(point, bits, "quantizer") for k, point in points.items()}
                for k, level in levels.items():
                    assert level.path == "table"
                    assert level.top == reference(level, k), (dim, bits, k)
                    assert len(level.tables) == level.top + 1
                assert levels[1].law is levels[200].law

    def test_rows_independent_of_the_memo(self):
        # a cold memo, a warm one, and a warm one after another model's tables
        # give the same rows of a dense sweep; bits:16 takes the features path
        a = dense_config("bits:4", "quantizer")
        b = replace(a, clip=3.0)
        policies = ["bits:2", "bits:4", "bits:16"]

        def rows(cfg):
            return harness.sweep(cfg, "snr-db", [2.0, 6.0], policies, 3000, seed=5)
        harness._table_law.cache_clear()
        cold = rows(a)
        assert harness._table_law.cache_info().misses == 2
        assert rows(a) == cold
        rows(b)
        assert rows(a) == cold

    def test_memo_misses_once_per_bit_level(self):
        # a sweep of the observation count, then of the SNR, at the default
        # model reads one memo entry per bit level on the table path, however
        # large K grows; a second pass reads them all warm, with the same rows
        policies = ["adaptive", "brute", "urllc", "bits:32", "bits:16"]
        config = harness.ExperimentConfig()

        def rows():
            return (harness.sweep(config, "observations", [1, 2, 5, 10, 20], policies, 50, 0)
                    + harness.sweep(config, "snr-db", [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
                                    policies, 50, 0))
        harness._table_law.cache_clear()
        cold = rows()
        levels = {row.bits for row in cold if 50 * (2 ** row.bits - 1) <= harness._TABLE_SPAN}
        assert 3 <= len(levels) <= harness._TABLE_LAWS
        assert harness._table_law.cache_info().misses == len(levels)
        assert rows() == cold
        assert harness._table_law.cache_info().misses == len(levels)

    @pytest.mark.parametrize("dim, bits, observations, budget, sizes, sigma", [
        pytest.param(2, 1, 3, None, [2, 1], None, id="2-1-3"),
        pytest.param(3, 1, 2, None, [2], None, id="3-1-2"),
        pytest.param(2, 2, 3, None, [2, 1], None, id="2-2-3"),
        pytest.param(3, 2, 2, None, [2], None, id="3-2-2"),
        pytest.param(2, 1, 5, None, [4, 1], None, id="2-1-5"),
        pytest.param(2, 1, 7, None, [4, 2, 1], None, id="2-1-7"),
        # a budget of 12 values holds the tables of bundles of 2 alone (2 d
        # (2 (2^b - 1) + 1) = 12), so 7 packets send that bundle three times
        pytest.param(2, 1, 7, 12, [2, 2, 2, 1], None, id="2-1-7-budget12"),
        # two groups of two coordinates, each drawn from its 2- or 4-fold law
        pytest.param(4, 1, 3, None, [2, 1], [1.0, 1.0, 0.5, 0.5], id="4-1-3-two-groups"),
    ])
    def test_matches_enumeration(self, dim, bits, observations, budget, sizes, sigma, tmp_path,
                                 bundle_budget):
        # every packet arrives, so an episode decides on the sum of K scores
        # w @ (-clip + k delta) + const over the grid indices k of its K d
        # coordinates, each with its own law (quant.index_pmf): unequal
        # eigenvalues and unequal class means, or two groups of equal ones.
        # The engine draws the index sums of bundles of ``sizes`` packets.
        # P(wrong) is enumerated here over every index tuple, class 1 wrong at
        # a total >= 0
        if budget is not None:
            bundle_budget(budget)
        if sigma is None:
            mu1, mu2, sigma = [0.5, -0.2, 0.3][:dim], [-0.1, 0.4, -0.6][:dim], [0.5, 2.0, 1.0][:dim]
        else:
            mu1, mu2 = [0.5, 0.5, -0.2, -0.2], [-0.1, -0.1, 0.4, 0.4]
        cfg = harness.ExperimentConfig(
            dim=dim, snr_db=60.0, observations=observations, clip=2.0, policy=f"bits:{bits}",
            model_file=diagonal_model_file(tmp_path, mu1, mu2, sigma))
        decision = harness.decide(cfg)
        level = engine_level(decision.params, bits, "quantizer")
        assert level.path == "table" and level.width == len(set(sigma))
        every = np.full(observations, observations)
        assert level.bundles(every[:1]).tolist() == [len(sizes)]
        assert [1 << int(k) for k in level.bundle_tables(every, np.arange(observations))
                if k >= 0] == sizes
        assert ch.avg_packet_loss_approx(decision.params.channel, decision.rounded_rate) < 1e-12
        model = decision.params.model
        inflated = model.eigvals + quant.noise_variance(bits, cfg.clip)
        weights = (model.means[1] - model.means[0]) / inflated
        const = 0.5 * np.sum((model.means[0] ** 2 - model.means[1] ** 2) / inflated)
        grid = np.linspace(-cfg.clip, cfg.clip, 2 ** bits)
        packets = list(itertools.product(range(2 ** bits), repeat=dim))
        scores = np.array([grid[list(k)] @ weights + const for k in packets])
        expected = 0.0
        for c in (0, 1):
            pmf = quant.index_pmf(model.means[c][:, None], model.eigvals[:, None], cfg.clip, bits)
            mass = np.array([math.prod(pmf[i, j] for i, j in enumerate(k)) for k in packets])
            for episode in itertools.product(range(len(packets)), repeat=observations):
                total = scores[list(episode)].sum()
                assert abs(total) > 1e-9
                if (total >= 0.0) == (c == 0):
                    expected += 0.5 * math.prod(mass[list(episode)])
        trials = 200_000
        row = harness.estimate_error(cfg, decision, trials, seed=47)
        assert abs(row.error - expected) <= 5.0 * math.sqrt(expected * (1 - expected) / trials)

    def test_spiked_model_matches_feature_path(self, monkeypatch):
        # four spikes over 60 equal eigenvalues (Johnstone's spiked model) are
        # five groups, one uniform each per bundle row, against 64 for groups
        # of one; the same arrivals scored through the tables and, with the
        # span cap at 0, on quantized features agree at |Z| <= 5
        cfg = harness.ExperimentConfig(dim=64, centroid=0.05, observations=5, policy="bits:2",
                                       sigma_spec=[9.0, 6.0, 4.0, 2.5] + [1.0] * 60)
        decision = harness.decide(cfg)
        assert engine_level(decision.params, 2, "quantizer").width == 5
        drawn = []
        lookup = harness._Level.lookup

        def counted(self, labels, uniforms, tables=0):
            drawn[-1] += uniforms.size
            return lookup(self, labels, uniforms, tables)
        monkeypatch.setattr(harness._Level, "lookup", counted)
        trials = 60_000
        drawn.append(0)
        grouped = harness.estimate_error(cfg, decision, trials, seed=53)
        singles = (np.arange(64), np.ones(64, dtype=np.intp))
        monkeypatch.setattr(gmm.InferenceModel, "groups", property(lambda model: singles))
        drawn.append(0)
        harness.estimate_error(cfg, decision, trials, seed=53)
        assert drawn[1] >= 3 * drawn[0] > 0
        monkeypatch.setattr(harness, "_TABLE_SPAN", 0)
        features = harness.estimate_error(cfg, decision, trials, seed=53)
        p, q = grouped.error, features.error
        assert abs(p - q) <= 5.0 * math.sqrt((p * (1 - p) + q * (1 - q)) / trials)


class TestEstimateError:
    @pytest.mark.parametrize("rows", [1, 7])
    def test_feature_chunks_keep_counts(self, rows, monkeypatch):
        # splitting a path's draws into chunks keeps their values, so the
        # wrong counts of levels on the features path, here with different
        # arrivals, and of the table level drawn after them do not move
        policies = ["bits:11", "bits:12", "bits:16", "bits:4"]
        cfg = harness.ExperimentConfig(observations=3)
        chunked = harness.sweep(cfg, "snr-db", [12.0], policies, 3000, seed=8)
        # the same for uniforms split into chunks on the table path (2 and
        # 6 bits at the dense point), drawn after the features of 12 bits
        dense = replace(dense_config("bits:2", "quantizer"), observations=3)
        dense_policies = ["bits:2", "bits:6", "bits:12"]
        dense_chunked = harness.sweep(dense, "snr-db", [6.0], dense_policies, 3000, seed=8)
        # and for lemma-1 normals, one per packet, split into chunks
        lemma1 = replace(cfg, noise_model="lemma1")
        lemma1_policies = ["bits:8", "bits:11", "bits:12"]
        lemma1_chunked = harness.sweep(lemma1, "snr-db", [12.0], lemma1_policies, 3000, seed=8)
        monkeypatch.setattr(harness, "_feature_rows", lambda width: rows)
        assert harness.sweep(cfg, "snr-db", [12.0], policies, 3000, seed=8) == chunked
        assert harness.sweep(dense, "snr-db", [6.0], dense_policies, 3000, seed=8) == dense_chunked
        assert harness.sweep(lemma1, "snr-db", [12.0], lemma1_policies, 3000,
                             seed=8) == lemma1_chunked

    @pytest.mark.parametrize("cell", [
        "identity_bits4", "identity_bits8", "dense_bits4_k50", "features_bits16_40db",
        "lemma1", "sweep_point_k20", "identity_bits1_k200", "diagonal_bits8_k50"])
    def test_rows_independent_of_the_batch(self, cell, monkeypatch):
        # draws split into chunks of 7 rows keep their values, so a block's
        # rows do not move, though chunks straddle the table path's slot
        # segments: bits:8 at the default point sends no bundle in many
        # episodes, which a segment added at the wrong offset would count
        # for the wrong episodes; the cells reach K = 200 and the diagonal model
        if cell == "sweep_point_k20":
            cfg = harness.ExperimentConfig(observations=10)
            run = lambda: harness.sweep(cfg, "observations", [20.0], [
                "adaptive", "brute", "urllc", "bits:32", "bits:16"], 10_000, seed=5)
        else:
            cfg, trials = {
                "identity_bits4": (harness.ExperimentConfig(policy="bits:4"), 20_000),
                "identity_bits8": (harness.ExperimentConfig(policy="bits:8"), 20_000),
                "dense_bits4_k50": (replace(dense_config("bits:4", "quantizer"),
                                            observations=50), 3000),
                "features_bits16_40db": (harness.ExperimentConfig(policy="bits:16",
                                                                  snr_db=40.0), 5000),
                "lemma1": (harness.ExperimentConfig(policy="bits:4", noise_model="lemma1"),
                           20_000),
                "identity_bits1_k200": (harness.ExperimentConfig(policy="bits:1",
                                                                 observations=200), 2000),
                "diagonal_bits8_k50": (harness.ExperimentConfig(
                    dim=4, sigma_spec=[0.01, 0.1, 1.0, 4.0], centroid=0.02, observations=50,
                    policy="bits:8"), 5000),
            }[cell]
            decision = harness.decide(cfg)
            run = lambda: [harness.estimate_error(cfg, decision, trials, seed=5)]
        rows = run()
        monkeypatch.setattr(harness, "_feature_rows", lambda width: 7)
        assert run() == rows

    def test_partial_block_and_single_trial(self):
        # blocks keep their streams, so one more trial than a block adds a
        # second block and leaves the first one's outcomes as they were; a
        # block holds 2^16 values per largest array, here K = 10 rows' tables
        # of one level per episode (more than its 8 words) on every path:
        # features are drawn in chunks, so d does not size the block
        sizes = []
        for cfg in (harness.ExperimentConfig(policy="bits:4"),
                    harness.ExperimentConfig(policy="bits:4", noise_model="lemma1"),
                    harness.ExperimentConfig(policy="bits:16", snr_db=60.0)):
            decision = harness.decide(cfg)
            level = engine_level(decision.params, decision.bits_per_feature, cfg.noise_model)
            size = harness._block_size(decision.params, [level])
            full = harness.estimate_error(cfg, decision, size, seed=6)
            more = harness.estimate_error(cfg, decision, size + 1, seed=6)
            extra = round(more.error * (size + 1)) - round(full.error * size)
            assert more.trials == size + 1 and extra in (0, 1), cfg
            one = harness.estimate_error(cfg, decision, 1, seed=6)
            assert one.trials == 1 and one.error in (0.0, 1.0)
            sizes.append(size)
        assert sizes == [6553, 6553, 6553]  # 2^16 // max(K levels, groups, 8), K = 10

    def test_block_memory_follows_the_antennas(self):
        # 256 antennas, but the channel enters only through the received
        # counts: the fading gains do not size the block, which holds 2^13
        # one-packet episodes here, 8 words each. Traced peak with the tables
        # built, on a 2 vCPU VM: 0.73 MB; building them first takes it to 2.2 MB
        cfg = harness.ExperimentConfig(dim=1, observations=1, antennas=256, policy="bits:4")
        decision = harness.decide(cfg)
        harness.estimate_error(cfg, decision, 1, seed=0)  # builds the tables, which the memo keeps
        tracemalloc.start()
        try:
            row = harness.estimate_error(cfg, decision, 65_536, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.trials == 65_536
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("cell", ["sweep_point_k20", "identity_bits4_k200"])
    def test_batch_memory(self, cell):
        # a block holds at most 2^16 rows' tables, one per row and level, so
        # its arrays stay small. Traced peaks with the tables built, on a 2
        # vCPU VM: 0.33 MB for the five-policy point at K = 20 and 0.39 MB for
        # bits:4 at K = 200; the bounds leave 3.0x and 3.8x
        if cell == "sweep_point_k20":
            cfg = harness.ExperimentConfig(observations=10)
            run, bound = lambda: harness.sweep(cfg, "observations", [20.0], [
                "adaptive", "brute", "urllc", "bits:32", "bits:16"], 10_000, seed=0), 1.0
        else:
            cfg = harness.ExperimentConfig(policy="bits:4", observations=200, snr_db=10.0)
            decision = harness.decide(cfg)
            run, bound = lambda: [harness.estimate_error(cfg, decision, 10_000, seed=0)], 1.5
        run()  # builds the point's tables, which the memo keeps
        tracemalloc.start()
        try:
            rows = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(row.trials == 10_000 for row in rows)
        assert peak < bound * 2 ** 20

    def test_deterministic(self, default_config, default_decision):
        a = harness.estimate_error(default_config, default_decision, 500, seed=11)
        b = harness.estimate_error(default_config, default_decision, 500, seed=11)
        assert a == b

    def test_seed_and_cell_split_streams(self, default_config, default_decision):
        base = harness.estimate_error(default_config, default_decision, 500, seed=11)
        other_seed = harness.estimate_error(default_config, default_decision, 500, seed=12)
        other_cell = harness.estimate_error(default_config, default_decision, 500,
                                            seed=11, cell=1)
        assert base.error != other_seed.error or base.error != other_cell.error

    def test_ci_formula(self, default_config, default_decision):
        row = harness.estimate_error(default_config, default_decision, 1000, seed=2)
        assert row.ci95 == pytest.approx(
            1.96 * math.sqrt(row.error * (1 - row.error) / 1000), rel=1e-12)

    def test_adaptive_beats_urllc(self):
        rows = {}
        for policy in ("adaptive", "urllc"):
            cfg = harness.ExperimentConfig(policy=policy)
            rows[policy] = harness.estimate_error(cfg, harness.decide(cfg), 5000, seed=4)
        assert rows["adaptive"].error <= rows["urllc"].error + \
            rows["adaptive"].ci95 + rows["urllc"].ci95

    def test_rejects_nonpositive_trials(self, default_config, default_decision):
        with pytest.raises(ValueError):
            harness.estimate_error(default_config, default_decision, 0, seed=0)

    @pytest.mark.parametrize("counts, message", [
        (dict(trials=2.5), "trials must be an integer"),
        (dict(trials=True), "trials must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(seed=-1), "seed must be non-negative"),
        (dict(cell=1.5), "cell must be an integer"),
        (dict(cell=-1), "cell must be non-negative"),
    ], ids=["trials-float", "trials-bool", "seed-float", "seed-negative", "cell-float",
            "cell-negative"])
    def test_rejects_bad_counts(self, default_config, default_decision, counts, message,
                                monkeypatch):
        # refused before any episode is simulated
        calls = []
        monkeypatch.setattr(harness, "_count_errors", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match=message):
            harness.estimate_error(default_config, default_decision,
                                   **{"trials": 100, "seed": 0, **counts})
        assert not calls

    def test_bit_levels_capped_at_high_snr(self):
        # without the cap, adaptive rounds to 27,775 bits per feature here and
        # urllc to 55,054, and the quantizer's grid overflows
        config = harness.ExperimentConfig(snr_db=60.0, antennas=256, blocklength=2000, dim=1)
        params = harness.build_params(config)
        for policy in ("adaptive", "brute", "urllc", "bits:32", "bits:16", "bits:4"):
            cfg = replace(config, policy=policy)
            decision = harness.decide(cfg, params)
            assert 1 <= decision.bits_per_feature <= 64, policy
            row = harness.estimate_error(cfg, decision, 200, seed=0)
            assert row.trials == 200 and row.bits == decision.bits_per_feature

    def test_decision_supplies_the_simulated_point(self, default_config):
        # observations and blocklength come from the point the decision was
        # made at, not from the config
        other = replace(default_config, policy="bits:4", observations=4, blocklength=200)
        decision = harness.decide(other)
        row = harness.estimate_error(default_config, decision, 2000, seed=9)
        assert row.error == harness.estimate_error(other, decision, 2000, seed=9).error


class TestSweep:
    def test_error_decreases_with_observations(self, default_config):
        rows = harness.sweep(default_config, "observations", [2, 20],
                             ["adaptive"], trials=4000, seed=9)
        assert rows[0].error > rows[1].error + rows[0].ci95

    def test_row_order_and_metadata(self, default_config):
        rows = harness.sweep(default_config, "snr-db", [0.0, 4.0],
                             ["bits:4", "bits:8"], trials=50, seed=0)
        assert [(r.value, r.policy) for r in rows] == [
            (0.0, "bits:4"), (0.0, "bits:8"), (4.0, "bits:4"), (4.0, "bits:8")]
        assert all(r.param == "snr-db" and r.trials == 50 for r in rows)

    def test_deterministic_rows(self, default_config):
        kw = dict(param="antennas", values=[2, 4], policies=["bits:4"],
                  trials=200, seed=13)
        assert harness.sweep(default_config, **kw) == harness.sweep(default_config, **kw)

    def test_sweeps_draw_independent_streams(self, default_config):
        # each swept value leaves the default configuration as it is, so
        # the only difference between these cells is how their streams are
        # keyed: by the sweep parameter, or (outside a sweep) not at all
        config = replace(default_config, policy="bits:4")
        kw = dict(policies=["bits:4"], trials=4000, seed=5)
        by_snr = harness.sweep(config, "snr-db", [config.snr_db], **kw)[0]
        by_antennas = harness.sweep(config, "antennas", [config.antennas], **kw)[0]
        alone = harness.estimate_error(config, harness.decide(config), 4000, seed=5)
        assert (by_snr.bits, by_snr.pred_exact) == (by_antennas.bits, by_antennas.pred_exact)
        assert len({by_snr.error, by_antennas.error, alone.error}) == 3

    def test_values_draw_independent_streams(self, default_config):
        # every packet is lost at 32 bits from -2 to 10 dB, so each row is a
        # coin flip per episode; one-value sweeps at two SNRs keyed by the
        # value's position drew the same flips
        rows = [harness.sweep(default_config, "snr-db", [snr], ["bits:32"], 2000, seed=0)[0]
                for snr in (0.0, 2.0)]
        assert [row.pred_exact for row in rows] == [0.5, 0.5]
        assert rows[0].error != rows[1].error

    def test_row_independent_of_other_values(self, default_config):
        kw = dict(policies=["adaptive", "urllc", "bits:6"], trials=500, seed=3)
        alone = harness.sweep(default_config, "antennas", [4], **kw)
        among = harness.sweep(default_config, "antennas", [2, 4, 8], **kw)
        assert among[3:6] == alone

    def test_row_independent_of_policy_order(self, default_config):
        kw = dict(param="blocklength", values=[100], trials=500, seed=4)
        policies = ["adaptive", "brute", "urllc", "bits:6", "bits:16", "bits:32"]
        rows = {r.policy: r for r in harness.sweep(default_config, policies=policies, **kw)}
        shuffled = harness.sweep(default_config, policies=policies[::-1] + ["urllc"], **kw)
        for row in shuffled:
            assert row == rows[row.policy]
        # a duplicated policy reads the same row, and so do two policies
        # that lose every packet
        assert shuffled[3] == shuffled[-1]
        assert rows["bits:16"].pred_exact == rows["bits:32"].pred_exact == 0.5
        assert rows["bits:16"].error == rows["bits:32"].error

    def test_integer_param_takes_whole_numbers(self, default_config):
        # a fractional antenna count is refused, not truncated
        kw = dict(policies=["bits:4"], trials=50, seed=0)
        with pytest.raises(ValueError, match="antennas must be an integer"):
            harness.sweep(default_config, "antennas", [2.5], **kw)
        rows = [harness.sweep(default_config, "antennas", [value], **kw)[0]
                for value in (2, 2.0, "2")]
        assert rows[0] == rows[1] == rows[2]
        assert rows[0].value == 2.0

    @pytest.mark.parametrize("values, policies", [([], ["bits:4"]), ([2.0], [])],
                             ids=["values", "policies"])
    def test_empty_values_or_policies_rejected(self, default_config, values, policies):
        with pytest.raises(ValueError, match="values and policies must be nonempty"):
            harness.sweep(default_config, "snr-db", values, policies, 10, 0)

    @pytest.mark.parametrize("counts, message", [
        (dict(trials=2.5), "trials must be an integer"),
        (dict(trials=True), "trials must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
    ], ids=["trials-float", "trials-bool", "seed-float"])
    def test_rejects_bad_counts(self, default_config, counts, message, monkeypatch):
        # refused before any cell is decided; a bool count once made a row
        # whose trials read True
        calls = []
        monkeypatch.setattr(harness, "decide", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=message):
            harness.sweep(default_config, "snr-db", [2.0], ["bits:4"],
                          **{"trials": 100, "seed": 0, **counts})
        assert not calls

    def test_rejects_bad_values_before_any_decision(self, default_config, monkeypatch):
        # every value's configuration is checked before the first value is
        # decided or simulated, so 2 is not simulated before 0 is refused
        calls = []
        monkeypatch.setattr(harness, "decide", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="antennas must be positive, not 0"):
            harness.sweep(default_config, "antennas", [2, 0], ["bits:4"], 100, 0)
        assert not calls

    @pytest.mark.parametrize("values", [[0.0, 4000.0], [0.0, -3300.0], [0.0, -3100.0]],
                             ids=["overflow", "underflow", "subnormal"])
    def test_rejects_bad_snr_before_any_decision(self, default_config, values, monkeypatch):
        # every value's channel is built before the first value is decided,
        # so 0 dB is not simulated before a ratio beyond the float range is refused
        calls = []
        monkeypatch.setattr(harness, "decide", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="dB"):
            harness.sweep(default_config, "snr-db", values, ["bits:4"], 100, 0)
        assert not calls

    def test_unknown_param_rejected(self, default_config):
        with pytest.raises(ValueError):
            harness.sweep(default_config, "temperature", [1], ["adaptive"], 10, 0)

    def test_cell_failure_is_identified(self, default_config, monkeypatch):
        # a bad policy is a plain ValueError that names it, raised while the
        # first value's policies are decided, before any episode is simulated
        calls = []
        monkeypatch.setattr(harness, "_count_errors", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="unknown policy 'psychic'"):
            harness.sweep(default_config, "antennas", [2, 4], ["bits:4", "psychic"], 10, 0)
        assert not calls


def traced_run(call):
    """``call()``, its thread CPU time and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        start = time.thread_time()
        result = call()
        return result, time.thread_time() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
# a gain so large that e^{D/4} overflows a float in the surrogate gradient
@example(snr_db=0.0, antennas=43, blocklength=203, dim=384, observations=1, centroid=2.0)
# the slowest corner: 1 trial per block, each of 200 packets 512 features
@example(snr_db=60.0, antennas=256, blocklength=2000, dim=512, observations=200, centroid=0.1)
@given(snr_db=st.floats(-30.0, 60.0), antennas=st.integers(1, 256),
       blocklength=st.integers(10, 2000), dim=st.integers(1, 512),
       observations=st.integers(1, 200), centroid=st.floats(0.0, 2.0))
def test_engine_over_operating_envelope(snr_db, antennas, blocklength, dim, observations,
                                        centroid):
    # every policy that decides is simulated within bounded CPU time and
    # memory, and so is a two-value sweep of them. Bounds hold under
    # tracemalloc, about 5x the worst CPU time and 3x the worst peak measured
    # over these examples on a 2 vCPU VM: 0.095 s and 5.2 MB (bits:16 at
    # d = 1, building its 2^16-sum table) for 20 trials, 0.32 s and
    # 8.3 MB for the sweep, both CPU worst cases at the slowest corner
    config = harness.ExperimentConfig(dim=dim, centroid=centroid, antennas=antennas,
                                      snr_db=snr_db, blocklength=blocklength,
                                      observations=observations)
    try:
        params = harness.build_params(config)
    except ValueError:
        return
    trials, decided = 20, []
    for policy in ["adaptive", "brute", "urllc", "bits:32", "bits:16", "bits:4"]:
        try:
            decision = harness.decide(replace(config, policy=policy), params)
        except ValueError:
            continue
        decided.append(policy)
        row, cpu, peak = traced_run(lambda: harness.estimate_error(
            replace(config, policy=policy), decision, trials, seed=0))
        assert cpu < 0.5 and peak < 16 * 2 ** 20, policy
        assert row.trials == trials and 0.0 <= row.error <= 1.0, policy
    rows, cpu, peak = traced_run(lambda: harness.sweep(config, "snr-db", [snr_db, 15.0],
                                                       decided, trials, seed=0))
    assert cpu < 1.6 and peak < 25 * 2 ** 20
    assert [(row.value, row.policy) for row in rows] == \
        [(value, policy) for value in (snr_db, 15.0) for policy in decided]
    assert all(0.0 <= row.error <= 1.0 for row in rows)


# d = 512 groups of one: eigenvalues from 0.01, which against a clip of 5
# crowds the tail bins of the rows, to 4
WIDEST = harness.ExperimentConfig(dim=512, sigma_spec=np.geomspace(0.01, 4.0, 512).tolist(),
                                  antennas=256, snr_db=60.0, blocklength=2000,
                                  observations=200, policy="bits:7")


def test_widest_index_tables_within_envelope():
    # the widest table-path level, d (2^b - 1) = 512 x 127 in groups of one,
    # at the envelope's slowest corner, keeps the envelope's bounds for
    # estimate_error
    decision = harness.decide(WIDEST)
    level = engine_level(decision.params, 7, "quantizer")
    # one table, for bundles of one packet: those of two would exceed the budget
    assert level.path == "table" and level.width == 512 and len(level.tables) == 1
    assert level.tables[0][1].shape == (1024, 4 * 2 ** 7 + 1)
    row, cpu, peak = traced_run(lambda: harness.estimate_error(WIDEST, decision, 20, seed=0))
    assert cpu < 0.5 and peak < 16 * 2 ** 20
    assert row.trials == 20 and 0.0 <= row.error <= 1.0


def test_widest_table_build_memory():
    # a fresh process, whose memo is cold, builds the widest level's tables
    # (7.3 MB of CDF, guide and bounds) within 11.0 MB of traced memory: the
    # guide is counted over blocks of rows, so no temporary spans the table
    script = f"""
import tracemalloc
from senselink import harness
params = harness.build_params(harness.ExperimentConfig(**{WIDEST.__dict__!r}))
tracemalloc.start()
level = harness._Level(params, 7, "quantizer")
print(level.width, len(level.tables), tracemalloc.get_traced_memory()[1])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out[:2] == ["512", "1"] and int(out[2]) <= 11.0 * 2 ** 20


def test_bundled_index_tables_within_envelope():
    # a dense 4-bit level at d = 128 and the envelope's slowest channel, where
    # all K = 200 packets arrive, sends bundles of up to 8 packets, twenty-five
    # of them an episode; it keeps the envelope's bounds for estimate_error
    sigma = validation._random_spd(np.random.default_rng(5), 128, (0.1, 5.0))
    config = harness.ExperimentConfig(dim=128, sigma_spec=sigma.tolist(), antennas=256,
                                      snr_db=60.0, blocklength=2000, observations=200,
                                      policy="bits:4")
    decision = harness.decide(config)
    level = engine_level(decision.params, 4, "quantizer")
    assert level.path == "table" and level.width == 128 and len(level.tables) == 4
    row, cpu, peak = traced_run(lambda: harness.estimate_error(config, decision, 20, seed=0))
    assert cpu < 0.5 and peak < 16 * 2 ** 20
    assert row.trials == 20 and 0.0 <= row.error <= 1.0


class TestCsv:
    def test_header_and_formatting(self):
        row = harness.ResultRow("snr-db", 2.0, "adaptive", 4, 2.0, 0.1,
                                0.0123, 0.0214, 0.125, 100, 0)
        text = harness.rows_to_csv([row])
        lines = text.split("\n")
        assert lines[0] == ",".join(harness.CSV_COLUMNS)
        assert lines[1] == "snr-db,2.0,adaptive,4,2.0,0.1,0.0123,0.0214,0.125,100,0"
        assert text.endswith("\n")

    def test_numpy_scalars(self):
        # a float64 renders as its Python float, not as np.float64(...)
        row = harness.ResultRow("snr-db", np.float64(2.0), "adaptive", np.int64(4),
                                np.float64(2.0), np.float64(0.1), np.float64(0.0123),
                                np.float64(0.0214), np.float64(0.125), np.int64(100), 0)
        assert (harness.rows_to_csv([row]).split("\n")[1]
                == "snr-db,2.0,adaptive,4,2.0,0.1,0.0123,0.0214,0.125,100,0")

    def test_byte_stable(self, default_config):
        rows = harness.sweep(default_config, "snr-db", [1.5], ["bits:4"],
                             trials=100, seed=21)
        assert harness.rows_to_csv(rows) == harness.rows_to_csv(rows)

    def test_none_value_renders_empty(self):
        row = harness.ResultRow("", None, "urllc", 1, 0.5, 0.2, 0.01,
                                0.2, 0.3, 10, 0)
        assert harness.rows_to_csv([row]).split("\n")[1].startswith(",,urllc")


@pytest.fixture(scope="module")
def validation_report():
    return validation.validate(0)


class TestValidate:
    def test_all_checks_pass(self, validation_report):
        report = validation_report
        assert report.passed
        assert all(c.passed for c in report.checks)
        assert len(report.checks) == 11

    def test_render_format(self, validation_report):
        text = validation_report.render()
        lines = text.strip().split("\n")
        assert all(l.startswith("[PASS]") or l.startswith("[FAIL]") for l in lines[:-1])
        assert lines[-1].startswith("overall:")

    def test_detects_injected_quantizer_bug(self, monkeypatch):
        # a factor-two error in the analytic noise variance must trip the
        # quantization-noise check
        real = quant.noise_variance
        monkeypatch.setattr(quant, "noise_variance",
                            lambda bits, clip: 2.0 * real(bits, clip))
        report = validation.validate(0)
        failed = {c.name for c in report.checks if not c.passed}
        assert "quantization_noise_statistics" in failed
        assert not report.passed

    def test_zero_closed_form_error_fails_scaling_check(self, monkeypatch):
        monkeypatch.setattr(ch, "avg_packet_loss_approx", ch.avg_packet_loss_exact)
        report = validation.validate(0)
        check = next(c for c in report.checks if c.name == "avg_loss_error_scaling")
        assert not check.passed and "undefined" in check.detail
        assert not report.passed


class TestCli:
    def test_optimize_outputs_decision(self, capsys):
        assert cli.main(["optimize", "--observations", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"continuous_rate", "bits_per_feature", "rounded_rate",
                            "predicted_bound", "predicted_exact"}
        assert out["bits_per_feature"] >= 1
        assert 0.0 <= out["predicted_exact"] <= out["predicted_bound"] <= 1.0

    def test_optimize_at_high_snr(self, capsys):
        assert cli.main(["optimize", "--snr-db", "40"]) == 0
        assert json.loads(capsys.readouterr().out)["bits_per_feature"] == 15

    def test_simulate_outputs_row(self, capsys):
        assert cli.main(["simulate", "--policy", "bits:4", "--trials", "200",
                         "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["policy"] == "bits:4"
        assert out["bits"] == 4
        assert out["trials"] == 200

    def test_sweep_writes_byte_identical_csv(self, tmp_path, capsys):
        args = ["sweep", "--param", "snr-db", "--values", "0,4",
                "--policies", "bits:4", "--trials", "100", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n")[0]
        assert header == ",".join(harness.CSV_COLUMNS)

    def test_validate_exit_code(self, capsys):
        assert cli.main(["validate", "--seed", "0"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"snr_db": 0.0, "observations": 5,
                                    "policy": "bits:4", "trials": 50, "seed": 1}))
        assert cli.main(["simulate", "--config", str(path),
                         "--observations", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trials"] == 50

        assert cli.main(["simulate", "--config", str(path)]) == 0
        base = json.loads(capsys.readouterr().out)
        assert base["trials"] == 50 and base["policy"] == "bits:4"

    def test_config_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"warp_factor": 9}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--config", str(path)])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["simulate", "--config", "{missing}"],
        ["simulate", "--model-file", "{missing}", "--policy", "bits:4", "--trials", "10"],
        ["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:4",
         "--trials", "10", "--seed", "0", "--model-file", "{missing}", "--out", "unused.csv"],
        ["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:4",
         "--trials", "10", "--seed", "0", "--out", "{missing}/out.csv"],
    ], ids=["config", "model-file", "sweep-model-file", "out-directory"])
    def test_missing_file_is_usage_error(self, flags, tmp_path, capsys):
        missing = str(tmp_path / "absent")
        with pytest.raises(SystemExit) as exit_info:
            cli.main([f.format(missing=missing) for f in flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "No such file or directory" in err and missing in err
        assert "Traceback" not in err

    def test_sweep_out_directory_checked_first(self, tmp_path, monkeypatch, capsys):
        # a missing --out directory is a usage error before any cell is decided
        calls = []
        monkeypatch.setattr(harness, "sweep", lambda *args: calls.append(args) or [])
        missing = str(tmp_path / "absent")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:4",
                      "--trials", "10", "--seed", "0", "--out", f"{missing}/out.csv"])
        assert exit_info.value.code == 2 and not calls
        assert missing in capsys.readouterr().err

    def test_failed_sweep_keeps_out_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_text("earlier rows\n")

        def fail(*args):
            raise ValueError("bad cell")

        monkeypatch.setattr(harness, "sweep", fail)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:4",
                      "--trials", "10", "--seed", "0", "--out", str(out)])
        assert exit_info.value.code == 2
        assert out.read_text() == "earlier rows\n"

    def test_sweep_failure_of_another_kind_is_raised(self, tmp_path, monkeypatch):
        # only a bad setting or file (ValueError, OSError) is a usage error;
        # any other exception propagates unchanged, with its cause
        def fail(*args):
            raise RuntimeError("sweep cell (snr-db=0) failed") from ZeroDivisionError()

        monkeypatch.setattr(harness, "sweep", fail)
        with pytest.raises(RuntimeError, match="sweep cell") as raised:
            cli.main(["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:4",
                      "--trials", "10", "--seed", "0", "--out", str(tmp_path / "out.csv")])
        assert isinstance(raised.value.__cause__, ZeroDivisionError)
        assert not (tmp_path / "out.csv").exists()

    def test_sweep_bad_snr_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # refused with one usage line before any cell is decided; no file is written
        calls = []
        monkeypatch.setattr(harness, "decide", lambda *args: calls.append(args))
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--param", "snr-db", "--values=0,4000", "--policies", "bits:4",
                      "--trials", "10", "--seed", "0", "--out", str(out)])
        assert exit_info.value.code == 2 and not calls and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("usage: ")
        assert err[1].startswith("senselink: error: SNR of 4000.0 dB is not a")
        assert "failed" not in err[1]

    def test_sweep_bad_policy_is_usage_error(self, tmp_path, capsys):
        # the first value decides adaptive, then refuses psychic as itself,
        # before any episode is simulated; no file is written
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--param", "snr-db", "--values", "0,2", "--policies",
                      "adaptive,psychic", "--trials", "10", "--seed", "0", "--out", str(out)])
        assert exit_info.value.code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 2 and err.startswith("usage: ")
        assert err.splitlines()[1] == "senselink: error: unknown policy 'psychic'"
        assert "sweep cell" not in err

    @pytest.mark.parametrize("key, spec", [
        ("mu1", {"mu1": {"a": 1}, "mu2": [-0.1, -0.1], "sigma": "identity"}),
        ("sigma", {"mu1": [0.1, 0.1], "mu2": [-0.1, -0.1], "sigma": {"a": 1}}),
        ("mu1", {"mu1": ["0.1", "0.1"], "mu2": ["-0.1", "-0.1"], "sigma": "identity"}),
        ("mu1", {"mu1": [True, True], "mu2": [False, False], "sigma": "identity"}),
        ("mu2", {"mu1": [0.1, 0.1], "mu2": [-0.1, False], "sigma": "identity"}),
        ("sigma", {"mu1": [0.1, 0.1], "mu2": [-0.1, -0.1], "sigma": [True, 1.0]}),
        ("sigma", {"mu1": [0.1, 0.1], "mu2": [-0.1, -0.1], "sigma": [[1.0, 0.0], [0.0]]}),
        ("mu1", {"mu1": [], "mu2": [], "sigma": "identity"}),
    ], ids=["mu1-object", "sigma-object", "mu-strings", "mu-bools", "mu2-bool",
            "sigma-bool", "sigma-ragged", "mu-empty"])
    def test_model_file_value_is_usage_error(self, key, spec, tmp_path, capsys):
        # a model-file value that is not a list of numbers, or of equally long
        # lists of numbers, is refused with one usage line that names its key
        model = tmp_path / "model.json"
        model.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--model-file", str(model), "--dim", "2",
                      "--policy", "bits:4", "--trials", "10", "--seed", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 2 and err.startswith("usage: ")
        assert err.splitlines()[1].startswith(f"senselink: error: {key} entries must be numbers")

    @pytest.mark.parametrize("key", ["mu1", "mu2", "sigma"])
    def test_model_file_missing_key(self, key, tmp_path, capsys):
        spec = {"mu1": [0.2] * 10, "mu2": [-0.2] * 10, "sigma": "identity"}
        del spec[key]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match=key):
            harness.load_model_file(str(model))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--model-file", str(model), "--dim", "10",
                      "--policy", "bits:4", "--trials", "10", "--seed", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"has no {key}" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", ["5", "null"])
    @pytest.mark.parametrize("flag", ["--config", "--model-file"])
    def test_json_file_not_an_object(self, flag, content, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", flag, str(path), "--policy", "bits:4",
                      "--trials", "10", "--seed", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "does not hold a JSON object" in err and "Traceback" not in err

    def test_model_file_flag(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        mu = [0.2] * 10
        model.write_text(json.dumps({"mu1": mu, "mu2": [-m for m in mu],
                                     "sigma": "identity"}))
        assert cli.main(["simulate", "--model-file", str(model), "--dim", "10",
                         "--policy", "bits:4", "--trials", "100", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bits"] == 4

    def test_model_file_dimension_mismatch(self, tmp_path, capsys):
        # a 2-d model under the default --dim of 50
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"mu1": [0.4, 0.0], "mu2": [-0.4, 0.0],
                                     "sigma": "identity"}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--model-file", str(model), "--policy", "bits:4",
                      "--trials", "10", "--seed", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: model file has dimension 2, not dim=50" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, message", [
        (["simulate", "--policy", "bits:65", "--trials", "10", "--seed", "0"], None,
         "bits must be an integer from 1 to 64"),
        (["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:65",
          "--trials", "10", "--seed", "0", "--out", "unused.csv"], None,
         "bits must be an integer from 1 to 64"),
        (["simulate"], {"policy": 5}, "policy must be a string"),
        (["simulate"], {"centroid": "0.1"}, "centroid must be a number"),
        (["simulate"], {"clip": "5"}, "clip must be a number"),
        (["simulate"], {"snr_db": "2"}, "snr_db must be a number"),
        (["simulate"], {"sigma_spec": {"a": 1}}, "sigma_spec must be a string or a list"),
        (["simulate"], {"model_file": 0}, "model_file must be a string"),
        (["simulate"], {"noise_model": 1}, "noise_model must be a string"),
        (["simulate"], {"centroid": {"a": 1}}, "centroid must be a number"),
        (["simulate"], {"clip": [5.0]}, "clip must be a number"),
        (["simulate"], {"snr_db": [2.0, 3.0]}, "snr_db must be a number"),
        (["simulate"], {"sigma_spec": [{"a": 1}]}, "sigma_spec entries must be numbers"),
        (["simulate"], {"centroid": True}, "centroid must be a number"),
        (["simulate"], {"snr_db": False}, "snr_db must be a number"),
        (["simulate"], {"clip": True}, "clip must be a number"),
        (["simulate"], {"dim": 2, "sigma_spec": [True, 1.0]}, "sigma_spec entries must be numbers"),
        (["simulate"], {"dim": 2, "sigma_spec": [[1.0, 0.0], [0.0]]},
         "sigma_spec entries must be numbers"),
        (["simulate"], {"dim": 2, "sigma_spec": [1.0, [1.0, 0.0]]},
         "sigma_spec entries must be numbers"),
    ], ids=["simulate", "sweep", "policy", "centroid", "clip", "snr_db", "sigma_spec",
            "model_file", "noise_model", "centroid-object", "clip-list", "snr_db-list",
            "sigma_spec-entry", "centroid-bool", "snr_db-bool", "clip-bool", "sigma_spec-bool",
            "sigma_spec-ragged", "sigma_spec-mixed"])
    def test_bad_setting_is_usage_error(self, command, config, message, tmp_path, capsys):
        # a bad flag, or a --config value of the wrong type (a bool, string,
        # list or object where a number goes, ragged sigma_spec rows, an
        # integer model_file that would name a file descriptor), is refused
        # with one usage line
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            command = [*command, "--config", str(path), "--trials", "10", "--seed", "0"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(command)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 2 and err.startswith("usage: ")

    @pytest.mark.parametrize("policy", ["bits:1_0", "bits:+4", "bits: 4", "bits:\u0664", "bits:"])
    def test_bits_policy_takes_ascii_digits_only(self, default_config, policy, capsys):
        # int() reads 1_0, +4, " 4" and the Arabic-Indic digit four as numbers;
        # only ASCII decimal digits make a bit level
        with pytest.raises(ValueError, match="unknown policy"):
            harness.decide(replace(default_config, policy=policy))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--policy", policy, "--trials", "10", "--seed", "0"])
        assert exit_info.value.code == 2
        assert "unknown policy" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--policy", "bits:4", "--trials", "10", "--seed", "-1"],
        ["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:4",
         "--trials", "10", "--seed", "-1", "--out", "unused.csv"],
    ], ids=["simulate", "sweep"])
    def test_negative_seed_is_usage_error(self, command, monkeypatch, capsys):
        # one usage line before any cell is decided
        calls = []
        monkeypatch.setattr(harness, "decide", lambda *args: calls.append(args))
        monkeypatch.setattr(harness, "sweep", lambda *args: calls.append(args) or [])
        with pytest.raises(SystemExit) as exit_info:
            cli.main(command)
        assert exit_info.value.code == 2 and not calls
        err = capsys.readouterr().err
        assert "error: seed must be non-negative" in err and "Traceback" not in err


def test_engine_and_cli_import_without_scipy_stats():
    # scipy.stats is the validation suite's alone and scipy.integrate the
    # quadrature oracle's, which imports it when it runs; the library has no
    # use for scipy.optimize or scipy.fft (numpy transforms the index laws).
    # The engine and the CLI must not pay for them
    src = Path(harness.__file__).resolve().parents[1]
    code = ("import sys, senselink, senselink.harness, senselink.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.stats', 'scipy.optimize', 'scipy.integrate', 'scipy.fft'))))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_run_sweeps_rejects_non_positive_trials(trials, tmp_path, monkeypatch, capsys):
    # a usage error before --outdir is made or any cell is decided
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"
    outdir = tmp_path / "results"
    calls = []
    monkeypatch.setattr(harness, "sweep", lambda *args: calls.append(args) or [])
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", trials, "--outdir", str(outdir)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 2
    assert not calls and not outdir.exists()
    assert "positive integer" in capsys.readouterr().err


def test_run_sweeps_rejects_negative_seed(tmp_path, monkeypatch, capsys):
    # a usage error before --outdir is made or any cell is decided
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"
    outdir = tmp_path / "results"
    calls = []
    monkeypatch.setattr(harness, "sweep", lambda *args: calls.append(args) or [])
    monkeypatch.setattr(sys, "argv", [str(script), "--seed", "-1", "--outdir", str(outdir)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 2
    assert not calls and not outdir.exists()
    assert "non-negative integer" in capsys.readouterr().err
