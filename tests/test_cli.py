import argparse
import hashlib
import inspect
import json
import math

import numpy as np
import pytest

from sgmc.cli import DEMOS, _load_run, build_parser, load_config, main
from sgmc.errors import ConfigurationError

pytestmark = pytest.mark.filterwarnings("ignore:overflow")


def run_cli(*argv):
    return main(list(argv))


def small_run_args(tmp_path, **over):
    args = {
        "--demo": "gaussian",
        "--iterations": "400",
        "--burn-in": "100",
        "--selections": "50",
        "--seed": "5",
        "--output": str(tmp_path / "run"),
    }
    args.update(over)
    out = ["run"]
    for k, v in args.items():
        if v is not None:
            out.extend([k, v])
    return out


# chain 0 runs to the end and chain 1 diverges at iteration 19
FAILING_CHAIN = {"model": "linreg_sigma", "model_args": {"n_weights": 1},
                 "true_params": {"w": [1.0], "sigma": 0.25}, "n_obs": 50,
                 "sampler": "sgld", "step_size_first": 0.02, "step_size_last": 0.01,
                 "iterations": 300, "batch_size": 5, "seed": 1, "chains": 2}

# an adaptive AMAGOLD run, for the dual-averaging settings
ADAPTIVE = {"model": "std_normal", "sampler": "amagold",
            "sampler_args": {"leapfrog_steps": 2}, "target_accept": 0.65}


class TestRun:
    def test_success_writes_artifacts(self, tmp_path):
        assert run_cli(*small_run_args(tmp_path)) == 0
        out = tmp_path / "run"
        assert (out / "samples_chain0.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["chains"][0]["sample_count"] == 50
        assert "mu" in summary["chains"][0]["variables"]
        assert summary["config"]["seed"] == 5

    def test_burn_in_of_every_iteration_keeps_no_sample(self, tmp_path):
        argv = small_run_args(tmp_path, **{"--iterations": "100", "--burn-in": "100",
                                           "--selections": "0"})
        assert run_cli(*argv) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert [c["sample_count"] for c in summary["chains"]] == [0]

    def test_zero_iterations_is_config_error(self, tmp_path):
        assert run_cli(*small_run_args(tmp_path, **{"--iterations": "0"})) == 2

    def test_zero_chains_is_config_error_before_any_output(self, tmp_path, capsys):
        assert run_cli(*small_run_args(tmp_path, **{"--chains": "0"})) == 2
        assert "(field: chains)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("output", ["afile", "afile/run"])
    def test_output_under_a_file_is_refused_before_sampling(self, tmp_path, capsys,
                                                            monkeypatch, output):
        from sgmc.solver import SamplerBundle
        (tmp_path / "afile").write_text("")
        monkeypatch.setattr(SamplerBundle, "run", lambda *a, **k: pytest.fail("sampled"))
        argv = small_run_args(tmp_path, **{"--output": str(tmp_path / output)})
        assert run_cli(*argv) == 2
        assert "(field: output)" in capsys.readouterr().err

    def test_selections_overflow_is_config_error(self, tmp_path):
        code = run_cli(*small_run_args(tmp_path, **{"--selections": "500"}))
        assert code == 2

    def test_numeric_failure_exit_3_keeps_partial(self, tmp_path):
        cfg = dict(DEMOS["gaussian"])
        cfg.update({"iterations": 500, "burn_in": 0, "selections": None,
                    "step_size_first": 1e18, "step_size_last": 1e17,
                    "output": str(tmp_path / "boom")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 3
        summary = json.loads((tmp_path / "boom" / "summary.json").read_text())
        assert "error" in summary
        assert summary["error"]["iteration"] is not None

    def test_same_seed_byte_identical_samples(self, tmp_path):
        for name in ("a", "b"):
            code = run_cli(*small_run_args(
                tmp_path, **{"--output": str(tmp_path / name), "--chains": "2"}))
            assert code == 0
        for chain in (0, 1):
            fa = (tmp_path / "a" / f"samples_chain{chain}.jsonl").read_bytes()
            fb = (tmp_path / "b" / f"samples_chain{chain}.jsonl").read_bytes()
            assert fa == fb

    def test_csv_format(self, tmp_path):
        code = run_cli(*small_run_args(tmp_path, **{"--format": "csv"}))
        assert code == 0
        header = (tmp_path / "run" / "samples_chain0.csv").read_text().splitlines()[0]
        assert header == "iteration,mu"

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = dict(DEMOS["gaussian"])
        cfg.update({"iterations": 300, "burn_in": 50, "selections": 10,
                    "output": str(tmp_path / "x")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path), "--seed", "9") == 0
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["config"]["seed"] == 9
        assert summary["config"]["iterations"] == 300

    def test_negative_seed_flag_names_the_field(self, tmp_path, capsys):
        assert run_cli(*small_run_args(tmp_path, **{"--seed": "-1"})) == 2
        assert "(field: seed)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("argv, field", [
        (["--seed", "-1"], "seed"),  # raised as a ConfigurationError: kept with its field
        (["--config", "nope.json"], None),  # a FileNotFoundError: converted
        (["--config", "."], None)])  # an IsADirectoryError: converted
    def test_commands_raise_their_refusals_for_main(self, tmp_path, monkeypatch, argv, field):
        monkeypatch.chdir(tmp_path)  # where nope.json is missing
        args = build_parser().parse_args(["run", "--output", "x", *argv])
        with pytest.raises(ConfigurationError) as err:
            args.fn(args)
        assert err.value.field == field

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"iterations": 10, "bogus_knob": 1}))
        assert run_cli("run", "--config", str(path)) == 2

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([1, 2]))
        assert run_cli("run", "--config", str(path)) == 2
        assert "(field: config)" in capsys.readouterr().err

    def test_second_run_parses_no_signature(self, tmp_path, monkeypatch):
        # each settings table's signature is parsed once per process
        assert run_cli(*small_run_args(tmp_path, **{"--output": str(tmp_path / "a")})) == 0
        calls = []
        parse = inspect.signature
        monkeypatch.setattr(inspect, "signature",
                            lambda *args, **kwargs: calls.append(args) or parse(*args, **kwargs))
        assert run_cli(*small_run_args(tmp_path, **{"--output": str(tmp_path / "b")})) == 0
        assert calls == []

    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *args, **kwargs:
                            built.append(kwargs.get("prog")) or init(self, *args, **kwargs))
        build_parser.cache_clear()
        try:
            for _ in range(2):
                assert run_cli("compare", "--run", str(tmp_path / "nope")) == 2
        finally:
            build_parser.cache_clear()  # no later call gets the counting parser
        assert built.count("sgmc") == 1

    @pytest.mark.parametrize("key", ["frcition", "seed"])
    def test_bad_sampler_args_key_names_the_field(self, tmp_path, capsys, key):
        # a typo, or a top-level field that would silently re-seed the chains
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sampler": "sghmc", "iterations": 10,
                                    "sampler_args": {"friction": 5.0, key: 99},
                                    "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 2
        assert f"(field: {key})" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [("init_theta", [50.0, -50.0]), ("dataset", 3)],
                             ids=["init_theta", "dataset"])
    def test_setting_in_sampler_args_is_refused(self, tmp_path, capsys, key, value):
        # sampler_args takes knobs only: sgmc run sets neither the start nor the dataset
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "std_normal", "model_args": {"dim": 2},
                                    "sampler": "sgld", "iterations": 10,
                                    "sampler_args": {key: value},
                                    "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 2
        assert f"(field: {key})" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field, cfg", [
        ("noise_estimate", {"sampler": "sghmc",
                            "sampler_args": {"friction": 1.0, "noise_estimate": 2.0}}),
        ("friction", {"model": "std_normal", "sampler": "amagold",  # beta = 0.5 * 0.5 * 10
                      "sampler_args": {"leapfrog_steps": 2, "friction": 10.0},
                      "step_size_first": 0.5, "step_size_last": 0.2}),
        ("tau_high", {"model": "mixture_1d", "sampler": "resgld",
                      "sampler_args": {"tau_high": 3.0}, "temperature": 5.0}),
        ("batch_strategy", {"batch_strategy": "bogus"}),
        ("friction", {"model": "std_normal", "sampler": "sggmc",
                      "sampler_args": {"obabo_steps": 2, "friction": -1.0}}),
        ("rms_alpha", {"sampler": "psgld", "sampler_args": {"rms_alpha": 1.5}}),
        ("rms_lam", {"sampler": "psgld", "sampler_args": {"rms_lam": 0.0}}),
        ("target_accept", {**ADAPTIVE, "target_accept": 1.5}),
        ("step_size_init", {**ADAPTIVE, "step_size_init": -1.0}),
        ("step_size_first", {"step_size_first": 0.001, "step_size_last": 0.01}),
        ("step_size_decay", {"step_size_decay": 1.5}),
        ("selections", {"selections": -3}),
        ("n_obs", {"n_obs": 0}),
        ("batch_size", {"n_obs": 10, "batch_size": 20}),
        # knob values are checked, not converted
        ("rms_prop", {"sampler": "sgld", "sampler_args": {"rms_prop": "false"}}),
        ("leapfrog_steps", {"model": "std_normal", "sampler": "amagold",
                            "sampler_args": {"leapfrog_steps": 2.7}}),
        ("friction", {"sampler": "sghmc", "sampler_args": {"friction": True}}),
        ("leapfrog_steps", {"model": "std_normal", "sampler": "amagold",
                            "sampler_args": {"leapfrog_steps": "x"}}),
        ("friction", {"model": "std_normal", "sampler": "amagold",
                      "sampler_args": {"leapfrog_steps": 2, "friction": -1.0}}),
        # SGHMC names its own friction, not noise_estimate
        ("friction", {"sampler": "sghmc", "sampler_args": {"friction": -1.0}}),
        ("friction", {"sampler": "sghmc", "sampler_args": {"friction": math.nan}}),
        # NaN fails every range check: refused (exit 2), never run
        ("temperature", {"sampler": "sgld", "temperature": math.nan}),
        ("step_size_init", {**ADAPTIVE, "step_size_init": math.nan}),
        ("step_size_init", {**ADAPTIVE, "sampler": "sggmc", "sampler_args": {"obabo_steps": 2},
                            "step_size_init": math.nan}),
        # run-level and schedule settings
        ("chains", {"chains": 0}),
        ("format", {"format": "xml"}),
        ("burn_in", {"burn_in": 20}),
        ("seed", {"seed": -1})])
    def test_invalid_sampler_setting_names_the_field(self, tmp_path, capsys, field, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "iterations": 10, "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 2
        assert f"(field: {field})" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    # adaptive AMAGOLD: beta = step size * friction / 2 must start below 1
    ADAPTIVE_AMAGOLD = {"model": "std_normal", "sampler": "amagold", "target_accept": 0.65,
                        "step_size_init": 0.5, "iterations": 200, "burn_in": 100,
                        "chains": 2}

    def test_adaptive_amagold_first_step_beyond_friction_names_the_field(self, tmp_path,
                                                                         capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.ADAPTIVE_AMAGOLD,  # beta = 0.5 * 0.5 * 10
                                    "sampler_args": {"leapfrog_steps": 2, "friction": 10.0},
                                    "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 2
        assert "(field: friction)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_adapted_step_beyond_friction_is_a_chain_failure(self, tmp_path):
        # beta starts at 0.25; the first adaptation step takes it past 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.ADAPTIVE_AMAGOLD,
                                    "sampler_args": {"leapfrog_steps": 2, "friction": 1.0},
                                    "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 3
        out = tmp_path / "x"
        assert (out / "samples_chain0.jsonl").exists()
        assert (out / "samples_chain1.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [(c["chain_id"], c["status"]) for c in summary["chains"]] == [
            (0, "failed"), (1, "failed")]
        assert "half-step friction" in summary["error"]["message"]

    def test_other_samplers_knob_is_accepted(self, tmp_path):
        # the mixture preset carries reSGLD's sampler_args into the SGLD baseline
        argv = ["run", "--demo", "mixture", "--sampler", "sgld", "--iterations", "300",
                "--burn-in", "50", "--selections", "50", "--output", str(tmp_path / "b")]
        assert run_cli(*argv) == 0

    def test_target_accept_without_step_size_init_takes_default(self, tmp_path):
        base = {"model": "std_normal", "sampler": "amagold",
                "sampler_args": {"leapfrog_steps": 3}, "target_accept": 0.65,
                "iterations": 200, "burn_in": 50}
        for name, extra in (("unset", {}), ("given", {"step_size_init": 0.1})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**base, **extra, "output": str(tmp_path / name)}))
            assert run_cli("run", "--config", str(path)) == 0
        assert ((tmp_path / "unset" / "samples_chain0.jsonl").read_bytes()
                == (tmp_path / "given" / "samples_chain0.jsonl").read_bytes())

    @pytest.mark.parametrize("key, value", [
        ("iterations", "100"), ("burn_in", None), ("temperature", None),
        ("chains", 2.5), ("step_size_decay", None)])
    def test_wrongly_typed_value_names_the_field(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"iterations": 10, key: value,
                                    "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 2
        assert f"(field: {key})" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, entry", [
        ("bogus", {"model_args": {"bogus": 1}}),
        ("nu", {"true_params": {"nu": 1}}),
        # model arguments are type-checked like knobs
        ("n_weights", {"model": "linreg_sigma", "model_args": {"n_weights": "4"}}),
        # a true parameter has the type of the model's default
        ("mu", {"true_params": {"mu": "0.5"}}),
        # model arguments and true parameters are range-checked
        ("dim", {"model": "std_normal", "model_args": {"dim": 0}}),
        ("n_weights", {"model": "linreg_sigma", "model_args": {"n_weights": 0}}),
        ("w", {"model": "linreg_sigma", "true_params": {"w": [1.0, 2.0]}}),
        ("width", {"model": "mixture_1d", "model_args": {"width": 0.0}}),
        ("prior_std", {"model_args": {"prior_std": 0.0}}),
        ("prior_std", {"model_args": {"prior_std": -2.0}}),
        ("prior_std", {"model": "logreg_2d", "model_args": {"prior_std": 0.0}}),
        ("prior_std", {"model": "logreg_2d", "model_args": {"prior_std": -2.0}}),
        ("w", {"model": "logreg_2d", "true_params": {"w": [1.0, 2.0, 3.0]}}),
        ("prior_std", {"model_args": {"prior_std": math.nan}}),
        ("prior_std", {"model": "logreg_2d", "model_args": {"prior_std": math.nan}}),
        ("width", {"model": "mixture_1d", "model_args": {"width": math.nan}}),
        ("separation", {"model": "mixture_1d", "model_args": {"separation": math.nan}}),
        ("separation", {"model": "mixture_1d", "model_args": {"separation": math.inf}}),
        # a true parameter is finite numbers of the shape of the model's default
        ("mu", {"true_params": {"mu": math.nan}}),
        ("sigma", {"model": "linreg_sigma", "true_params": {"sigma": math.nan}}),
        ("w", {"model": "linreg_sigma", "true_params": {"w": ["a", "b", "c", "d"]}}),
        ("model", {"model": "nope"}),
        # a ragged nesting has no array form
        ("w", {"model": "linreg_sigma", "true_params": {"w": [[1], [1, 2], 3, 4]}})])
    def test_unknown_model_key_names_the_field(self, tmp_path, capsys, key, entry):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gaussian_mean", "iterations": 10, **entry,
                                    "output": str(tmp_path / "x")}))
        assert run_cli("run", "--config", str(path)) == 2
        assert f"(field: {key})" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:divide by zero")
    def test_failing_chain_keeps_the_finished_chain(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAILING_CHAIN, "output": str(tmp_path / "run")}))
        assert run_cli("run", "--config", str(path)) == 3
        out = tmp_path / "run"
        assert len((out / "samples_chain0.jsonl").read_text().splitlines()) == 300
        summary = json.loads((out / "summary.json").read_text())
        chains = [(c["chain_id"], c["status"], c["sample_count"]) for c in summary["chains"]]
        assert chains == [(0, "ok", 300), (1, "failed", 19)]
        assert summary["error"]["iteration"] == 19

    def test_unsummarisable_column_of_a_failed_chain_gets_nulls(self, tmp_path):
        # the samples climb from about 183 to 1.4e306 before the chain fails at 126
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gaussian_mean", "step_size_first": 3.0,
                                    "step_size_last": 2.0, "iterations": 400, "burn_in": 0,
                                    "output": str(tmp_path / "run")}))
        assert run_cli("run", "--config", str(path)) == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        chain = summary["chains"][0]
        assert (chain["status"], chain["sample_count"]) == ("failed", 126)
        assert chain["variables"] == {"mu": {"mean": None, "std": None, "ess": None}}

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:divide by zero")
    def test_overflow_in_the_model_is_a_chain_failure(self, tmp_path):
        # log-sigma diverges until exp(log-sigma) overflows inside linreg_sigma
        cfg = {"model": "linreg_sigma", "model_args": {"n_weights": 1}, "n_obs": 50,
               "sampler": "sgld", "step_size_first": 0.05, "step_size_last": 0.02,
               "iterations": 400, "batch_size": 5, "seed": 0, "chains": 2,
               "output": str(tmp_path / "run")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 3
        out = tmp_path / "run"
        assert (out / "samples_chain0.jsonl").exists()
        assert (out / "samples_chain1.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [(c["chain_id"], c["status"]) for c in summary["chains"]] == [
            (0, "failed"), (1, "failed")]
        assert "math range error" in summary["error"]["message"]


class TestCompare:
    def run_gaussian(self, tmp_path):
        argv = small_run_args(tmp_path, **{"--iterations": "4000",
                                           "--burn-in": "1000",
                                           "--selections": "2000"})
        assert run_cli(*argv) == 0
        return tmp_path / "run"

    def test_analytic_reference_report(self, tmp_path, capsys):
        run_dir = self.run_gaussian(tmp_path)
        assert run_cli("compare", "--run", str(run_dir),
                       "--reference", "analytic") == 0
        report = json.loads((run_dir / "compare_report.json").read_text())
        assert report["reference"] == "analytic"
        assert "mu" in report["variables"]
        assert report["variables"]["mu"]["mean_discrepancy"] < 0.5
        assert 0.5 < report["variables"]["mu"]["std_ratio"] < 2.0
        out = capsys.readouterr().out
        assert "mu" in out

    def test_rwmh_reference_report(self, tmp_path):
        run_dir = self.run_gaussian(tmp_path)
        assert run_cli("compare", "--run", str(run_dir), "--reference", "rwmh",
                       "--oracle-steps", "20000") == 0
        report = json.loads((run_dir / "compare_report.json").read_text())
        assert report["variables"]["mu"]["mean_discrepancy"] < 0.5

    def test_identical_samples_zero_discrepancy(self, tmp_path):
        # compare a run against itself through the rwmh path is stochastic;
        # instead check the analytic path twice gives identical reports
        run_dir = self.run_gaussian(tmp_path)
        run_cli("compare", "--run", str(run_dir), "--reference", "analytic",
                "--output", str(tmp_path / "r1.json"))
        run_cli("compare", "--run", str(run_dir), "--reference", "analytic",
                "--output", str(tmp_path / "r2.json"))
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_variable_mismatch_is_config_error(self, tmp_path):
        run_dir = self.run_gaussian(tmp_path)
        # doctor the samples file so its variable names no longer match the model
        path = run_dir / "samples_chain0.jsonl"
        path.write_text(path.read_text().replace('"mu"', '"nu"'))
        assert run_cli("compare", "--run", str(run_dir),
                       "--reference", "analytic") == 2

    def test_missing_analytic_posterior_is_config_error(self, tmp_path):
        argv = ["run", "--demo", "mixture", "--iterations", "300", "--burn-in", "50",
                "--selections", "50", "--output", str(tmp_path / "mix")]
        assert run_cli(*argv) == 0
        assert run_cli("compare", "--run", str(tmp_path / "mix"),
                       "--reference", "analytic") == 2

    def test_missing_analytic_posterior_names_the_reference(self, tmp_path, capsys):
        argv = ["run", "--demo", "mixture", "--iterations", "300", "--burn-in", "50",
                "--selections", "50", "--output", str(tmp_path / "mix")]
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert run_cli("compare", "--run", str(tmp_path / "mix"),
                       "--reference", "analytic") == 2
        assert "(field: reference)" in capsys.readouterr().err
        assert not (tmp_path / "mix" / "compare_report.json").exists()

    def test_reads_run_written_with_cache_count(self, tmp_path):
        # runs written before the no-op knob was removed still compare
        run_dir = self.run_gaussian(tmp_path)
        path = run_dir / "summary.json"
        summary = json.loads(path.read_text())
        summary["config"]["cache_count"] = 1
        summary["config"]["debug"] = False  # another field of an older version
        path.write_text(json.dumps(summary))
        assert run_cli("compare", "--run", str(run_dir),
                       "--reference", "analytic") == 0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:divide by zero")
    def test_pools_only_the_finished_chains(self, tmp_path):
        # the failed chain's diverged samples would size the oracle's proposal;
        # its length-1 weight vector is named like the model's "w[0]"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAILING_CHAIN, "output": str(tmp_path / "run")}))
        assert run_cli("run", "--config", str(path)) == 3
        assert run_cli("compare", "--run", str(tmp_path / "run"), "--reference", "rwmh",
                       "--oracle-steps", "2000") == 0
        report = json.loads((tmp_path / "run" / "compare_report.json").read_text())
        assert sorted(report["variables"]) == ["log_sigma", "w[0]"]

    def test_no_finished_chain_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAILING_CHAIN, "chains": 1, "seed": 0,
                                    "output": str(tmp_path / "run")}))
        code = run_cli("run", "--config", str(path))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert (code, [c["status"] for c in summary["chains"]]) == (3, ["failed"])
        assert run_cli("compare", "--run", str(tmp_path / "run")) == 2
        assert "status ok" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:divide by zero")
    def test_loads_the_recorded_pool_of_a_jsonl_run_with_a_failed_chain(self, tmp_path):
        # pinned names and pooled bits: how the pool is built must not change them
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAILING_CHAIN, "output": str(tmp_path / "run")}))
        assert run_cli("run", "--config", str(path)) == 3
        _, names, flat = _load_run(tmp_path / "run")
        assert (names, flat.shape) == (["w", "log_sigma"], (300, 2))
        assert hashlib.sha256(flat.tobytes()).hexdigest() == (
            "6ab443834d1dc989932d55e0271d6d490ad7ecfbe3cfc09c8f69b62f048faf7d")

    def test_loads_the_recorded_pool_of_a_two_chain_csv_run(self, tmp_path):
        argv = ["run", "--demo", "regression", "--iterations", "400", "--burn-in", "100",
                "--selections", "60", "--chains", "2", "--format", "csv", "--seed", "5",
                "--output", str(tmp_path / "run")]
        assert run_cli(*argv) == 0
        _, names, flat = _load_run(tmp_path / "run")
        assert (names, flat.shape) == (["w", "log_sigma"], (120, 5))
        assert hashlib.sha256(np.ascontiguousarray(flat).tobytes()).hexdigest() == (
            "97e7bf62a0de87e9aa4fbcc1befb2746b0265ca10ab778b7832b279e760d410b")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_file_rows_unlike_sample_count_is_refused_naming_the_chain(
            self, tmp_path, capsys, fmt, change):
        argv = small_run_args(tmp_path, **{"--chains": "2", "--format": fmt})
        assert run_cli(*argv) == 0
        path = tmp_path / "run" / f"samples_chain1.{fmt}"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1] if change == "drop" else lines + lines[-1:]))
        assert run_cli("compare", "--run", str(tmp_path / "run"), "--reference",
                       "analytic") == 2
        assert "chain 1 has" in capsys.readouterr().err

    def test_jsonl_rows_of_other_variables_are_refused(self, tmp_path, capsys):
        run_dir = self.run_gaussian(tmp_path)
        path = run_dir / "samples_chain0.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace('"mu"', '"nu"')
        path.write_text("".join(lines))
        assert run_cli("compare", "--run", str(run_dir), "--reference", "analytic") == 2
        assert ":6: variable 'mu' differs from line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["1", "0"])
    def test_too_few_oracle_steps_names_the_field(self, tmp_path, capsys, steps):
        run_dir = self.run_gaussian(tmp_path)
        assert run_cli("compare", "--run", str(run_dir), "--reference", "rwmh",
                       "--oracle-steps", steps) == 2
        assert "(field: oracle_steps)" in capsys.readouterr().err
        assert not (run_dir / "compare_report.json").exists()

    def test_report_under_a_file_is_refused_before_the_oracle(self, tmp_path, capsys,
                                                              monkeypatch):
        run_dir = self.run_gaussian(tmp_path)
        (tmp_path / "afile").write_text("")
        monkeypatch.setattr("sgmc.cli.rwmh_oracle", lambda *a, **k: pytest.fail("oracle"))
        assert run_cli("compare", "--run", str(run_dir),
                       "--output", str(tmp_path / "afile" / "r.json")) == 2
        assert "(field: output)" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["adir", "run"])
    def test_report_path_of_a_directory_is_refused_before_the_oracle(
            self, tmp_path, capsys, monkeypatch, output):
        run_dir = self.run_gaussian(tmp_path)
        (tmp_path / "adir").mkdir()
        monkeypatch.setattr("sgmc.cli.rwmh_oracle", lambda *a, **k: pytest.fail("oracle"))
        assert run_cli("compare", "--run", str(run_dir),
                       "--output", str(tmp_path / output)) == 2
        assert "is a directory (field: output)" in capsys.readouterr().err

    def test_report_in_a_new_directory_is_written(self, tmp_path):
        run_dir = self.run_gaussian(tmp_path)
        out = tmp_path / "reports" / "r.json"
        assert run_cli("compare", "--run", str(run_dir), "--reference", "analytic",
                       "--output", str(out)) == 0
        assert json.loads(out.read_text())["reference"] == "analytic"

    def test_missing_run_dir(self, tmp_path):
        assert run_cli("compare", "--run", str(tmp_path / "nope")) == 2

    def test_run_path_of_a_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert run_cli("compare", "--run", str(tmp_path / "file")) == 2
        assert "cannot load run artifacts" in capsys.readouterr().err


def test_unknown_demo_names_the_field():
    with pytest.raises(ConfigurationError) as err:
        load_config("nope", None, {})
    assert err.value.field == "demo"


def test_demo_presets_are_valid():
    from sgmc.cli import RunConfig, validate_config
    for name, preset in DEMOS.items():
        cfg = RunConfig(**preset)
        validate_config(cfg)


def test_run_config_reads_the_library_defaults_from_their_owners():
    from sgmc.cli import RunConfig
    from sgmc.errors import parameters
    from sgmc.scheduler import init_scheduler
    from sgmc.solver import STEP_SIZE_DECAY, make_solver
    cfg = RunConfig()
    assert cfg.burn_in == parameters(init_scheduler)["burn_in"].default
    assert cfg.temperature == parameters(init_scheduler)["temperature"].default
    assert cfg.batch_strategy == parameters(make_solver)["batch_strategy"].default
    assert cfg.step_size_decay == STEP_SIZE_DECAY


def test_demo_presets_restate_no_default():
    # a preset holds only what differs from RunConfig, whose fields own the defaults
    from dataclasses import asdict

    from sgmc.cli import RunConfig
    defaults = asdict(RunConfig())
    restated = [(name, key) for name, preset in DEMOS.items()
                for key, value in preset.items() if value == defaults[key]]
    assert restated == []


def test_demo_presets_resolve_to_their_pinned_configs():
    digests = {name: load_config(name, None, {}).digest() for name in DEMOS}
    assert digests == {"gaussian": "957f285729bfa7b8", "regression": "97337da1fd08438a",
                       "mixture": "aacfcb9440429c17"}
