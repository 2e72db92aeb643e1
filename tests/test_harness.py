import json
import math

import numpy as np
import pytest

from senselink import channel as ch
from senselink import cli
from senselink import gmm
from senselink import harness
from senselink import optimizer as opt
from senselink import quant


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
    def test_record_shape(self, default_config, default_decision):
        rec = harness.run_trial(default_config, default_decision,
                                np.random.default_rng(0))
        assert rec.true_class in (1, 2)
        assert rec.slot_snrs.shape == (default_config.observations,)
        assert rec.received == int(rec.slot_success.sum())
        assert rec.correct == (rec.decision == rec.true_class)

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


class TestEstimateError:
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


class TestValidate:
    def test_all_checks_pass(self):
        report = harness.validate(0)
        assert report.passed
        assert all(c.passed for c in report.checks)
        assert len(report.checks) == 11

    def test_render_format(self):
        report = harness.validate(0)
        text = report.render()
        lines = text.strip().split("\n")
        assert all(l.startswith("[PASS]") or l.startswith("[FAIL]") for l in lines[:-1])
        assert lines[-1].startswith("overall:")

    def test_detects_injected_quantizer_bug(self, monkeypatch):
        # a factor-two error in the analytic noise variance must trip the
        # quantization-noise check
        real = quant.noise_variance
        monkeypatch.setattr(quant, "noise_variance",
                            lambda bits, clip: 2.0 * real(bits, clip))
        report = harness.validate(0)
        failed = {c.name for c in report.checks if not c.passed}
        assert "quantization_noise_statistics" in failed
        assert not report.passed

    def test_zero_closed_form_error_fails_scaling_check(self, monkeypatch):
        monkeypatch.setattr(ch, "avg_packet_loss_approx", ch.avg_packet_loss_exact)
        report = harness.validate(0)
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
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--config", str(path)])

    def test_model_file_flag(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        mu = [0.2] * 10
        model.write_text(json.dumps({"mu1": mu, "mu2": [-m for m in mu],
                                     "sigma": "identity"}))
        assert cli.main(["simulate", "--model-file", str(model), "--dim", "10",
                         "--policy", "bits:4", "--trials", "100", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bits"] == 4
