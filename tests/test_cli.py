"""Campaign runner: exit codes, file formats, determinism, seed override."""

import json
import os
import re

import numpy as np
import pytest

from mildbbm.cli import SEED_ENV_VAR, main
from mildbbm.environment import load_points


def read(path):
    with open(path) as fh:
        return fh.read()


class TestGenEnv:
    def test_fixture_and_summary(self, tmp_path):
        out = tmp_path / "env"
        rc = main(
            [
                "gen-env",
                "--d", "1", "--nu", "1", "--a", "0.2",
                "--box-length", "10000", "--seed", "17", "--out", str(out),
            ]
        )
        assert rc == 0
        pts = load_points(out / "points.txt")
        # Poisson(1e4): three-sigma band
        assert abs(len(pts) - 10_000) < 300
        summary = json.loads(read(out / "env_summary.json"))
        assert summary["count"] == len(pts)
        assert summary["field"]["master_seed"] == 17
        assert "largest_clearing" in summary
        assert read(out / "points.txt").startswith("# spec_sha256=")

    def test_zero_length_box(self, tmp_path):
        out = tmp_path / "env0"
        rc = main(["gen-env", "--box-length", "0", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert len(load_points(out / "points.txt")) == 0

    def test_byte_identical_reruns(self, tmp_path):
        args = ["gen-env", "--d", "1", "--nu", "0.5", "--a", "0.2",
                "--box-length", "500", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read(out1 / "points.txt") == read(out2 / "points.txt")
        assert read(out1 / "env_summary.json") == read(out2 / "env_summary.json")


class TestHeaders:
    def test_a_multi_line_header_gives_only_comment_lines(self, tmp_path, monkeypatch):
        from mildbbm import cli
        from mildbbm.branching import GenealogyLog
        from mildbbm.environment import save_points
        from mildbbm.feynman_kac import FkEstimate, write_estimates_csv
        from mildbbm.genealogy import MrcaLaw, write_cdf_table, write_pmf_table

        header = "spec line one\nspec line two"
        monkeypatch.setattr(cli, "_header", lambda cfg: header)
        out = tmp_path / "g"
        rc = main(["growth-curve", "--t-max", "1", "--replicates", "1", "--out", str(out)])
        assert rc == 0
        est = FkEstimate(t=1.0, point_estimate=2.0, log_estimate=0.69, std_error=0.1, n_paths=4,
                         n_environments=1, log_std_error=0.05)
        write_estimates_csv(tmp_path / "fk.csv", [est], header=header)
        save_points(tmp_path / "pts.txt", [[0.0]], header=header)
        GenealogyLog().to_jsonl(tmp_path / "log.jsonl", header=header)
        write_cdf_table(tmp_path / "cdf.csv", MrcaLaw(t=1.0, beta=1.0), [0.25, 0.5], header=header)
        write_pmf_table(tmp_path / "pmf.csv", {1: 0.5, 2: 0.5}, header=header)
        files = [out / "aggregated.csv", out / "predicted.csv", out / "replicate_0000.csv",
                 tmp_path / "fk.csv", tmp_path / "pts.txt", tmp_path / "log.jsonl",
                 tmp_path / "cdf.csv", tmp_path / "pmf.csv"]
        for path in files:
            lines = read(path).splitlines()
            assert lines[:2] == ["# spec line one", "# spec line two"], path
            assert [line for line in lines if line.startswith("#")] == lines[:2], path


class TestGrowthCurve:
    def test_outputs_and_diagnostic_column(self, tmp_path):
        out = tmp_path / "g"
        rc = main(
            [
                "growth-curve",
                "--d", "1", "--nu", "0.8", "--a", "0.3", "--beta", "1",
                "--t-max", "3", "--obs", "0,0.75,1.5,2.25,3",
                "--replicates", "4", "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        agg = read(out / "aggregated.csv").splitlines()
        assert agg[1] == "t,mean_count,median_count,mean_r_t,median_r_t,slowdown_diagnostic"
        # at t = 0 every run holds its one particle and no rate is defined,
        # which must not warn (RuntimeWarnings fail the tests)
        assert agg[2] == "0,1,1,nan,nan,nan"
        assert len(agg) == 7
        pred = read(out / "predicted.csv").splitlines()
        assert pred[1] == "t,predicted_log_mass_quenched,predicted_log_mass_annealed"
        assert pred[2] == "0,nan,nan"
        for i in range(4):
            assert (out / f"replicate_{i:04d}.csv").exists()

    def test_deterministic_across_workers(self, tmp_path):
        base = [
            "growth-curve",
            "--d", "1", "--nu", "0.5", "--a", "0.3", "--beta", "1",
            "--t-max", "2", "--obs", "1,2", "--replicates", "6", "--seed", "9",
        ]
        out1, out2 = tmp_path / "w1", tmp_path / "w8"
        assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(base + ["--workers", "8", "--out", str(out2)]) == 0
        for name in ["aggregated.csv", "predicted.csv"] + [f"replicate_{i:04d}.csv" for i in range(6)]:
            assert read(out1 / name) == read(out2 / name), name

    def test_all_truncated_exits_3(self, tmp_path):
        rc = main(
            [
                "growth-curve",
                "--d", "1", "--nu", "0.1", "--a", "0.1", "--beta", "2",
                "--t-max", "6", "--obs", "6", "--cap", "4",
                "--replicates", "3", "--seed", "5", "--out", str(tmp_path / "t"),
            ]
        )
        assert rc == 3

    def test_fk_compare_all_truncated_exits_3(self, tmp_path, capsys):
        rc = main(
            [
                "fk-compare",
                "--empty-env", "--beta", "2", "--t-max", "3", "--cap", "1",
                "--runs", "3", "--n-paths", "2", "--dt", "0.05", "--seed", "1", "--out", str(tmp_path / "t"),
            ]
        )
        assert rc == 3
        assert "every branching run hit the particle cap" in capsys.readouterr().err

    def test_some_truncated_exits_1(self, tmp_path):
        # a cap of 200 cuts 5 of the 6 replicates: the survivor's curve is
        # written, but its mean alone is biased low
        out = tmp_path / "t"
        rc = main(
            [
                "growth-curve",
                "--d", "1", "--nu", "0.1", "--a", "0.1", "--beta", "2",
                "--t-max", "4", "--obs", "4", "--cap", "200",
                "--replicates", "6", "--seed", "5", "--out", str(out),
            ]
        )
        summary = json.loads(read(out / "growth_summary.json"))
        assert 0 < summary["truncated"] < 6 and summary["usable"] == 6 - summary["truncated"]
        assert (out / "aggregated.csv").exists()
        assert rc == 1

    def test_runs_do_not_depend_on_blocks_or_workers(self, tmp_path, monkeypatch):
        from mildbbm import cli

        base = ["growth-curve", "--d", "1", "--nu", "0.5", "--a", "0.3", "--beta", "1",
                "--t-max", "2", "--obs", "1,2", "--replicates", "70", "--seed", "12"]
        outs = {}
        for tag, block, workers in (("w1", 64, 1), ("w2", 64, 2), ("b3", 3, 1)):
            monkeypatch.setattr(cli, "_BLOCK", block)
            out = tmp_path / tag
            assert main(base + ["--workers", str(workers), "--out", str(out)]) == 0
            outs[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outs["w1"]) == 70 + 3 and outs["w1"] == outs["w2"]
        # more, smaller blocks step more rounds; nothing else may move
        summary = {tag: json.loads(files.pop("growth_summary.json")) for tag, files in outs.items()}
        assert outs["b3"] == outs["w1"]
        assert summary["b3"].pop("rounds") > summary["w1"].pop("rounds")
        assert summary["b3"] == summary["w1"]
        assert summary["w1"]["events"] > summary["w1"]["rejected"] > 0


class TestGates:
    def test_mrca_gate_passes_at_scale(self, tmp_path):
        out = tmp_path / "m"
        rc = main(
            ["mrca-test", "--beta", "1", "--t-max", "3", "--pairs", "20000",
             "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        rep = json.loads(read(out / "mrca_report.json"))
        assert rep["pass"] and rep["ks_stat"] < rep["ks_gate"]

    def test_mrca_impossible_gate_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gates": {"ks_gate": 1e-6}}))
        rc = main(
            ["--config", str(cfg), "mrca-test", "--beta", "1", "--t-max", "2",
             "--pairs", "2000", "--seed", "4", "--out", str(tmp_path / "m2")]
        )
        assert rc == 1

    def test_fk_compare_empty_env(self, tmp_path):
        out = tmp_path / "fk"
        rc = main(
            ["fk-compare", "--d", "1", "--beta", "1", "--t-max", "1.5",
             "--runs", "800", "--n-paths", "400", "--dt", "5e-3",
             "--empty-env", "--no-dt-halving", "--seed", "6", "--out", str(out)]
        )
        assert rc == 0
        rep = json.loads(read(out / "fk_report.json"))
        assert rep["pass"]
        csv = read(out / "fk_estimates.csv").splitlines()
        assert csv[1] == "t,estimate,log_estimate,se,n_paths,n_envs"

    def test_fk_compare_fails_when_some_runs_truncate(self, tmp_path):
        # a cap of 20 cuts 3 of the 400 Yule runs (mean e^1.5 = 4.5): the
        # survivors' mean alone would pass the SE gate, but it is biased low
        out = tmp_path / "fk"
        rc = main(
            ["fk-compare", "--d", "1", "--beta", "1", "--t-max", "1.5",
             "--runs", "400", "--n-paths", "400", "--dt", "5e-3", "--cap", "20",
             "--empty-env", "--no-dt-halving", "--seed", "6", "--out", str(out)]
        )
        rep = json.loads(read(out / "fk_report.json"))
        assert 0 < rep["truncated_runs"] < 400
        assert rep["diff"] <= rep["se_gate"] * rep["combined_se"]
        assert not rep["pass"]
        assert rc == 1

    def test_fk_compare_applies_the_drift(self, tmp_path):
        # the drift moves both the branching runs and the FK paths, and the
        # two sides still agree
        base = ["fk-compare", "--t-max", "2", "--runs", "64", "--n-paths", "200", "--seed", "3"]
        reps = {}
        for drift in ("0", "1.5"):
            out = tmp_path / drift
            rc = main(base + ["--drift", drift, "--out", str(out)])
            reps[drift] = json.loads(read(out / "fk_report.json"))
            assert rc == 0 and reps[drift]["pass"], drift
        for key in ("branch_mean", "fk_estimate", "events"):
            assert reps["1.5"][key] != reps["0"][key], key

    def test_fk_compare_runs_do_not_depend_on_blocks_or_workers(self, tmp_path, monkeypatch):
        from mildbbm import cli

        base = ["fk-compare", "--t-max", "1.5", "--runs", "150", "--n-paths", "200", "--dt", "1e-2",
                "--no-dt-halving", "--seed", "8"]
        outs = {}
        for tag, block, workers in (("w1", 64, 1), ("w2", 64, 2), ("b7", 7, 1)):
            monkeypatch.setattr(cli, "_BLOCK", block)
            out = tmp_path / tag
            assert main(base + ["--workers", str(workers), "--out", str(out)]) in (0, 1)
            outs[tag] = json.loads(read(out / "fk_report.json"))
        assert outs["w1"] == outs["w2"]
        assert outs["b7"]["rounds"] > outs["w1"]["rounds"]
        for key in ("branch_mean", "branch_se", "events", "rejected", "fk_estimate"):
            assert outs["b7"][key] == outs["w1"][key]
        assert outs["w1"]["events"] > outs["w1"]["rejected"] > 0

    def test_dichotomy_labels_extinct(self, tmp_path):
        out = tmp_path / "dich"
        rc = main(
            ["dichotomy", "--d", "1", "--drift", "1", "--beta", "0.3",
             "--nu", "0.5", "--a", "0.3", "--t-max", "14", "--runs", "60",
             "--seed", "8", "--out", str(out)]
        )
        rep = json.loads(read(out / "dichotomy_report.json"))
        assert rep["predicted_regime"] == "extinct-like"
        assert rep["observed_label"] == "extinct-like"
        assert rc == 0

    def test_dichotomy_labels_growing_with_zero_median(self, tmp_path):
        # beta > b^2/2, but fewer than half the runs reach B(0, 1): the median
        # local count is 0 at every time, so the label must come from the mean
        out = tmp_path / "grow"
        rc = main(
            ["dichotomy", "--d", "1", "--drift", "1", "--beta", "0.8",
             "--nu", "0.5", "--a", "0.3", "--t-max", "12", "--runs", "40",
             "--seed", "1", "--out", str(out)]
        )
        rep = json.loads(read(out / "dichotomy_report.json"))
        assert rep["predicted_regime"] == "growing"
        assert rep["median_local_counts"] == [0.0] * 6
        assert rep["observed_label"] == "growing"
        assert rep["slope"] > 0
        assert rc == 0

    def test_dichotomy_label_uses_configured_surv_gate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gates": {"surv_gate": 0.9}}))
        out = tmp_path / "gate"
        rc = main(
            ["--config", str(cfg), "dichotomy", "--d", "1", "--drift", "1", "--beta", "0.8",
             "--nu", "0.5", "--a", "0.3", "--t-max", "6", "--runs", "10",
             "--seed", "1", "--out", str(out)]
        )
        rep = json.loads(read(out / "dichotomy_report.json"))
        assert rep["params"]["surv_gate"] == 0.9
        assert rep["observed_label"] == "extinct-like"
        assert rc == 1

    def test_dichotomy_cap_defaults_to_the_library_cap(self, tmp_path):
        import inspect

        from mildbbm.branching import dichotomy_experiment

        library = inspect.signature(dichotomy_experiment).parameters["particle_cap"].default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cap": 7000}))
        base = ["dichotomy", "--t-max", "1", "--runs", "2", "--seed", "1"]
        # (options before the command, options after it, cap in effect)
        cases = [([], [], library), ([], ["--cap", "5000"], 5000), (["--config", str(cfg)], [], 7000)]
        for k, (before, after, expected) in enumerate(cases):
            out = tmp_path / f"cap{k}"
            main(before + base + after + ["--out", str(out)])
            rep = json.loads(read(out / "dichotomy_report.json"))
            assert rep["params"]["particle_cap"] == expected
        assert library > 2_000_000

    @pytest.mark.parametrize("cap", [1, 2])
    def test_dichotomy_report_is_strict_json_when_runs_truncate(self, tmp_path, cap):
        # cap 1 truncates every run (no survival fraction); cap 2 keeps few
        # enough runs that the standard error can be undefined
        out = tmp_path / "trunc"
        rc = main(["dichotomy", "--cap", str(cap), "--runs", "3", "--seed", "1", "--out", str(out)])

        def refuse(token):
            raise ValueError(f"non-finite token {token} in the report")

        rep = json.loads(read(out / "dichotomy_report.json"), parse_constant=refuse)
        assert rep["truncated_runs"] > 0
        if cap == 1:
            assert rc == 3 and rep["truncated_runs"] == 3
            assert rep["survival_fraction"] is None
        else:
            assert rc in (1, 3)

    def test_clearing_stats(self, tmp_path):
        out = tmp_path / "cl"
        rc = main(
            ["clearing-stats", "--d", "1", "--nu", "1", "--a", "0.1",
             "--ell", "2000", "--resolution", "0.5", "--n-seeds", "20",
             "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
        rep = json.loads(read(out / "clearing_report.json"))
        assert rep["fraction_reaching"] >= rep["gate"]


class TestConfigHandling:
    def test_bad_value_exits_2(self, tmp_path):
        assert main(["gen-env", "--nu", "-1", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["growth-curve", "--obs", "2,1"],  # observation times not increasing
            ["growth-curve", "--t-max", "2", "--obs", "1,3"],  # observation past the horizon
            ["fk-compare", "--cap", "0"],
            ["fk-compare", "--n-paths", "1"],
            ["gen-env", "--cell-size", "1e4"],  # Poisson cell mean too large to tabulate
            ["clearing-stats", "--ell", "2"],  # log log ell undefined
            ["growth-curve", "--obs", "1,x"],  # an observation time that is not a number
            # non-finite drifts and times, with flags that keep a run that
            # gets past the check short
            ["growth-curve", "--drift", "nan", "--replicates", "2", "--cap", "50"],
            ["fk-compare", "--drift", "inf", "--runs", "2", "--n-paths", "2", "--dt", "0.05", "--cap", "50"],
            ["dichotomy", "--drift", "nan", "--runs", "2", "--t-max", "1", "--cap", "50"],
            ["growth-curve", "--obs", "nan", "--replicates", "2", "--cap", "50"],
            ["fk-compare", "--t-max", "inf", "--runs", "2", "--n-paths", "2", "--dt", "0.05", "--cap", "50"],
        ],
    )
    def test_invalid_config_is_refused_before_running(self, tmp_path, args, capsys):
        out = tmp_path / "never"
        assert main(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_internal_fault_exits_4_with_traceback(self, tmp_path, monkeypatch, capsys):
        from mildbbm import cli

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "run_batch", broken)
        rc = main(["growth-curve", "--replicates", "1", "--out", str(tmp_path / "f")])
        err = capsys.readouterr().err
        assert rc == 4
        assert "Traceback" in err and "could not be broadcast" in err
        assert "config error" not in err

    def test_campaign_builds_one_field_in_process(self, tmp_path, monkeypatch):
        from mildbbm import cli

        built = []
        make = cli._campaign_field
        monkeypatch.setattr(cli, "_campaign_field", lambda cfg: built.append(1) or make(cfg))
        rc = main(["growth-curve", "--replicates", "5", "--t-max", "2", "--out", str(tmp_path / "g")])
        assert rc == 0 and len(built) == 1

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert main(["--config", str(cfg), "gen-env", "--out", str(tmp_path / "y")]) == 2

    def test_config_file_supplies_params(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": 2.0, "box_length": 800.0, "seed": 12}))
        out = tmp_path / "env"
        assert main(["--config", str(cfg), "gen-env", "--out", str(out)]) == 0
        pts = load_points(out / "points.txt")
        assert abs(len(pts) - 1600) < 3 * 40  # Poisson(1600)

    def test_env_var_overrides_seed(self, tmp_path, monkeypatch):
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        args = ["gen-env", "--d", "1", "--nu", "1", "--a", "0.2", "--box-length", "300"]
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv(SEED_ENV_VAR, "4242")
        assert main(args + ["--out", str(out2)]) == 0
        # flag wins over the environment variable
        assert main(args + ["--seed", "1", "--out", str(out3)]) == 0
        assert read(out2 / "points.txt") != read(out1 / "points.txt")
        assert read(out3 / "points.txt") == read(out1 / "points.txt")

    def test_env_var_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["gen-env", "--out", str(tmp_path / "z")]) == 2

    @pytest.mark.parametrize(
        "command, file_cfg",
        [
            ("growth-curve", {"obs": 3}),  # observation times that are not a list
            ("growth-curve", [1, 2]),  # a config that is not a JSON object
            ("growth-curve", {"gates": 3}),  # gates that are not a JSON object
            ("fk-compare", {"dt_halving": "false"}),  # a string, which Python reads as true
            ("fk-compare", {"empty_env": 0}),
            ("gen-env", {"seed": 1.5}),  # the field would take seed 1, derive_seed "1.5"
            ("fk-compare", {"seed": True}),
            ("growth-curve", {"cap": 2.5}),
        ],
    )
    def test_invalid_config_file_is_refused_before_running(self, tmp_path, command, file_cfg, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        out = tmp_path / "never"
        assert main(["--config", str(cfg), command] + CHEAP[command] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_out_that_is_not_a_path_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # no --out flag here, since the flag would override the file's value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 3}))
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg), "gen-env"] + CHEAP["gen-env"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# the config keys each command reads; its flags are these keys, and nothing else
FIELD = ["d", "nu", "a", "cell_size", "seed", "out"]
RUN = FIELD + ["beta", "drift", "t_max", "cap"]
READS = {
    "gen-env": FIELD + ["box_length", "resolution"],
    "growth-curve": RUN + ["obs", "replicates", "workers"],
    "mrca-test": ["beta", "t_max", "seed", "out", "pairs"],
    "fk-compare": RUN + ["runs", "workers", "n_paths", "dt", "empty_env", "dt_halving"],
    "dichotomy": RUN + ["obs", "runs", "prune_tol", "ball_radius"],
    "clearing-stats": FIELD + ["ell", "resolution", "n_seeds"],
}
BOOL_FLAGS = {"empty_env": "--empty-env", "dt_halving": "--no-dt-halving"}
# flags that keep a command short, had it run
CHEAP = {
    "gen-env": ["--box-length", "10"],
    "growth-curve": ["--t-max", "1", "--replicates", "1"],
    "mrca-test": ["--pairs", "10"],
    "fk-compare": ["--t-max", "1", "--runs", "2", "--n-paths", "2", "--dt", "0.05"],
    "dichotomy": ["--t-max", "1", "--runs", "2"],
    "clearing-stats": ["--ell", "100", "--n-seeds", "1"],
}


def flag_args(key):
    if key in BOOL_FLAGS:
        return [BOOL_FLAGS[key]]
    return ["--" + key.replace("_", "-"), "1"]


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_keys_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == {flag_args(key)[0] for key in READS[command]}

    @pytest.mark.parametrize("command", sorted(READS))
    def test_a_flag_the_command_does_not_read_exits_2(self, command, capsys):
        from mildbbm.cli import build_parser

        every = {key for keys in READS.values() for key in keys}
        for key in READS[command]:
            build_parser().parse_args([command] + flag_args(key))
        for key in sorted(every - set(READS[command])) + ["n_envs"]:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command] + flag_args(key))
            assert exc.value.code == 2, key
            assert f"unrecognized arguments: {flag_args(key)[0]}" in capsys.readouterr().err, key

    @pytest.mark.parametrize(
        "command, file_cfg",
        [
            ("gen-env", {"beta": 2.0}),
            ("gen-env", {"gates": {"clearing_frac": 0.5}}),
            ("growth-curve", {"runs": 10}),
            ("growth-curve", {"empty_env": True}),
            ("growth-curve", {"gates": {"se_gate": 3.0}}),
            ("mrca-test", {"d": 2}),
            ("mrca-test", {"gates": {"ks_gat": 1e-9}}),
            ("mrca-test", {"gates": {"se_gate": 1.0}}),
            ("fk-compare", {"replicates": 2}),
            ("fk-compare", {"gates": {"alpha": 0.01}}),
            ("dichotomy", {"workers": 2}),
            ("dichotomy", {"gates": {"ks_gate": 0.5}}),
            ("clearing-stats", {"beta": 2.0}),
            ("clearing-stats", {"n_envs": 8}),
            ("clearing-stats", {"gates": {"surv_gate": 0.5}}),
        ],
    )
    def test_a_key_or_gate_the_command_does_not_read_exits_2(self, tmp_path, command, file_cfg, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        out = tmp_path / "never"
        assert main(["--config", str(cfg), command] + CHEAP[command] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        key = next(iter(file_cfg["gates"])) if "gates" in file_cfg else next(iter(file_cfg))
        assert key in err
        assert not out.exists()
