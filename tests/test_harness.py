import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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


class TestLemma1EngineMatchesPrediction:
    """Under the lemma-1 noise model the engine simulates exactly the law that
    ``semi_analytic_error`` integrates: a Gaussian score per packet and
    i.i.d. arrivals at the quadrature average loss."""

    @pytest.mark.parametrize("cfg, seed", [
        (harness.ExperimentConfig(policy="bits:4", noise_model="lemma1"), 23),
        (dense_config("bits:6", "lemma1"), 29),
    ], ids=["default_bits4", "dense_bits6"])
    def test_error_matches_pred_exact(self, cfg, seed):
        params = harness.build_params(cfg)
        decision = harness.decide(cfg, params)
        trials = 200_000
        row = harness.estimate_error(cfg, decision, trials, seed=seed, params=params)
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
    """``estimate_error`` rows as the engine gave them before a sweep point's
    policies shared their episodes: the one-policy case consumes each
    block's stream exactly as it did."""

    @pytest.mark.parametrize("cfg, trials, seed, cell, wrong", [
        (harness.ExperimentConfig(policy="bits:4"), 3000, 7, 2, 59),
        (harness.ExperimentConfig(policy="bits:4", noise_model="lemma1"), 3000, 7, 0, 78),
        (dense_config("bits:6", "quantizer"), 2000, 19, 1, 597),
    ], ids=["identity_bits4", "lemma1_bits4", "dense_bits6"])
    def test_rows_unchanged(self, cfg, trials, seed, cell, wrong):
        row = harness.estimate_error(cfg, harness.decide(cfg), trials, seed, cell=cell)
        assert row.error == wrong / trials
        assert row.ci95 == 1.96 * math.sqrt(row.error * (1.0 - row.error) / trials)


class TestEstimateError:
    def test_partial_block_and_single_trial(self, default_config, default_decision):
        # blocks keep their streams, so one more trial than a block adds a
        # second block and leaves the first one's outcomes as they were
        size = harness._BLOCK_VALUES // (default_config.observations * default_config.dim)
        full = harness.estimate_error(default_config, default_decision, size, seed=6)
        more = harness.estimate_error(default_config, default_decision, size + 1, seed=6)
        extra = round(more.error * (size + 1)) - round(full.error * size)
        assert more.trials == size + 1 and extra in (0, 1)
        one = harness.estimate_error(default_config, default_decision, 1, seed=6)
        assert one.trials == 1 and one.error in (0.0, 1.0)

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

    def test_bit_levels_capped_at_high_snr(self):
        # without the cap, adaptive rounds to 27,775 bits per feature here and
        # urllc to 55,054, and the quantizer's grid overflows
        config = harness.ExperimentConfig(snr_db=60.0, antennas=256, blocklength=2000, dim=1)
        params = harness.build_params(config)
        for policy in ("adaptive", "brute", "urllc", "bits:32", "bits:16", "bits:4"):
            cfg = replace(config, policy=policy)
            decision = harness.decide(cfg, params)
            assert 1 <= decision.bits_per_feature <= 64, policy
            row = harness.estimate_error(cfg, decision, 200, seed=0, params=params)
            assert row.trials == 200 and row.bits == decision.bits_per_feature

    def test_params_supply_the_simulated_point(self, default_config):
        # observations and blocklength come from params, not from the config
        other = replace(default_config, policy="bits:4", observations=4, blocklength=200)
        decision = harness.decide(other)
        row = harness.estimate_error(default_config, decision, 2000, seed=9,
                                     params=harness.build_params(other))
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

    def test_unknown_param_rejected(self, default_config):
        with pytest.raises(ValueError):
            harness.sweep(default_config, "temperature", [1], ["adaptive"], 10, 0)

    def test_cell_failure_is_identified(self, default_config):
        with pytest.raises(RuntimeError, match="policy=psychic"):
            harness.sweep(default_config, "antennas", [2], ["psychic"], 10, 0)


class TestCsv:
    def test_header_and_formatting(self):
        row = harness.ResultRow("snr-db", 2.0, "adaptive", 4, 2.0, 0.1,
                                0.0123, 0.0214, 0.125, 100, 0)
        text = harness.rows_to_csv([row])
        lines = text.split("\n")
        assert lines[0] == ",".join(harness.CSV_COLUMNS)
        assert lines[1] == "snr-db,2.0,adaptive,4,2.0,0.1,0.0123,0.0214,0.125,100,0"
        assert text.endswith("\n")

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

    @pytest.mark.parametrize("command", [
        ["simulate", "--policy", "bits:65", "--trials", "10", "--seed", "0"],
        ["sweep", "--param", "snr-db", "--values", "0", "--policies", "bits:65",
         "--trials", "10", "--seed", "0", "--out", "unused.csv"],
    ], ids=["simulate", "sweep"])
    def test_bad_setting_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(command)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "bits must be an integer from 1 to 64" in err
        assert "Traceback" not in err


def test_engine_and_cli_import_without_scipy_stats():
    # scipy.stats is the validation suite's alone; the engine and the CLI
    # must not pay for its import
    src = Path(harness.__file__).resolve().parents[1]
    code = ("import sys, senselink, senselink.harness, senselink.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
