import json
import math

import numpy as np
import pytest

from conftest import assert_dirs_match
from glasd.benchmarks import BenchmarkSpec, corr_objective
from glasd.cli import main
from glasd.losses import read_data_csv
from glasd.manifold import angles_to_corr, default_angle_box
from glasd.optimizer import derive_seeds, random_search_minimize
from glasd.simulate import StructureSpec, gen_structure, sample_data

OPT_INI = "[optimizer]\nmax_iters = 400\n"


def write_clean_csv(path, p=5, n=400, seed=0, header=True):
    rng = np.random.default_rng(seed)
    C = gen_structure(StructureSpec("block-toeplitz", p=p), rng)
    X = sample_data(C, n, "gaussian", rng)
    names = [f"v{j}" for j in range(p)]
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(names) + "\n")
        for row in X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return C


class TestOptimizeCommand:
    def test_corr_variant_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["optimize", "--fn", "ackley", "--variant", "corr", "--M", "4",
                     "--starts", "3", "--seed", "7", "--out", str(out),
                     "--max-iters", "500"])
        assert code == 0
        record = json.loads((out / "result.json").read_text())
        assert "min_value" in record and record["min_value"] >= 0
        assert record["master_seed"] == 7
        assert len(record["per_start"]) == 3
        # the matrix is the one of the best start's angles, bit for bit
        C = read_data_csv(out / "best_matrix.csv").values
        angles = [float(v) for v in (out / "best_angles.csv").read_text().split(",")]
        assert np.array_equal(C, angles_to_corr(np.array(angles)))
        for start in record["per_start"]:
            # move counters: greedy proposals are iterations - explore
            assert 0 <= start["explore_accepts"] <= start["explore"] <= start["iterations"]
            assert 0 <= start["greedy_accepts"] <= start["iterations"] - start["explore"]
            assert start["nonfinite"] == 0
        for k in range(3):
            trace = (out / f"trace_{k:02d}.csv").read_text().splitlines()
            vals = [float(ln.split(",")[2]) for ln in trace[1:]]
            assert all(b <= a + 1e-300 for a, b in zip(vals, vals[1:]))

    def test_box_variant(self, tmp_path):
        out = tmp_path / "run"
        code = main(["optimize", "--fn", "sumsquares", "--variant", "box",
                     "--dim", "4", "--starts", "2", "--seed", "1",
                     "--out", str(out), "--max-iters", "300"])
        assert code == 0
        assert not (out / "best_matrix.csv").exists()

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "run"
        args = ["optimize", "--fn", "ackley", "--variant", "corr", "--M", "3",
                "--starts", "1", "--seed", "1", "--out", str(out),
                "--max-iters", "50"]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_bad_arguments_exit_2(self, tmp_path):
        assert main(["optimize", "--fn", "nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["optimize", "--fn", "ackley", "--starts", "0"],
        ["benchmark", "--fn", "ackley", "--starts", "0"],
        ["optimize", "--fn", "ackley", "--M", "1"],
        ["benchmark", "--fn", "ackley", "--M", "1"],
        ["optimize", "--fn", "ackley", "--variant", "box", "--dim", "0"],
        ["benchmark", "--fn", "ackley", "--variant", "box", "--dim", "0"],
        ["estimate", "DATA", "--starts", "0"],
        # the box Rosenbrock is constant at dimension 1
        ["optimize", "--fn", "rosenbrock", "--variant", "box", "--dim", "1"],
        ["benchmark", "--fn", "rosenbrock", "--variant", "box", "--dim", "1"],
        ["optimize", "--fn", "ackley", "--seed", "-1"],
        ["benchmark", "--fn", "ackley", "--seed", "-1"],
        ["estimate", "DATA", "--seed", "-1"],
    ])
    def test_bad_sizes_exit_2_before_output(self, tmp_path, argv):
        data = tmp_path / "d.csv"
        write_clean_csv(data, n=50)
        out = tmp_path / "run"
        argv = [str(data) if a == "DATA" else a for a in argv]
        # the case's own flags come last, so its --seed overrides the default one
        defaults = ["--seed", "1", "--max-iters", "20", "--out", str(out)]
        assert main(argv[:1] + defaults + argv[1:]) == 2
        assert not out.exists()

    def test_resolved_config_record(self, tmp_path):
        # M = 3 gives a 3-dimensional angle box
        out = tmp_path / "run"
        assert main(["optimize", "--fn", "ackley", "--M", "3", "--starts", "1",
                     "--seed", "2", "--out", str(out)]) == 0
        resolved = json.loads((out / "result.json").read_text())["optimizer_config_resolved"]
        assert resolved == {
            "s_init": 0.1, "s_inc": 2.0, "s_dec": 2.0, "p_inc": 2.0, "p_dec": 2.0,
            "m": 5, "c": 0.001 * math.log(3), "r": None,
            "max_iters": 3296, "stagnation_window": 12, "epsilon": 1e-20,
            "explore_enabled": True,
        }

    def test_r_policy_is_an_unknown_key_exit_2(self, tmp_path, capsys):
        # r alone sets a fixed radius; there is no policy key
        ini = tmp_path / "opt.ini"
        ini.write_text("[optimizer]\nr_policy = fixed\nr = 0.05\n")
        out = tmp_path / "run"
        assert main(["optimize", "--fn", "ackley", "--M", "3", "--config", str(ini),
                     "--seed", "5", "--out", str(out)]) == 2
        assert "unknown key 'r_policy'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ini, flags", [
        ("s_init = nan", []), ("p_inc = inf", []), ("c = nan", []), ("", ["--epsilon", "nan"]),
        ("r = inf", []), ("r = 0", []), ("max_iters = 40%", []),
    ])
    def test_bad_tuning_values_exit_2_before_output(self, tmp_path, ini, flags):
        config = tmp_path / "opt.ini"
        config.write_text(f"[optimizer]\n{ini}\n")
        out = tmp_path / "run"
        assert main(["optimize", "--fn", "ackley", "--M", "3", "--config", str(config),
                     "--seed", "5", "--max-iters", "20", "--out", str(out)] + flags) == 2
        assert not out.exists()

    def test_stagnation_window_flag(self, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--fn", "ackley", "--M", "3", "--starts", "1", "--seed", "2",
                     "--max-iters", "50", "--stagnation-window", "7", "--out", str(out)]) == 0
        record = json.loads((out / "result.json").read_text())
        assert record["optimizer_config"]["stagnation_window"] == 7
        assert record["optimizer_config_resolved"]["stagnation_window"] == 7

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            args = ["optimize", "--fn", "rastrigin", "--variant", "corr",
                    "--M", "3", "--starts", "2", "--seed", "3",
                    "--out", str(out), "--max-iters", "400"]
            assert main(args) == 0
        assert_dirs_match(a, b)


class TestEstimateCommand:
    @pytest.mark.parametrize("loss", ["gaussian", "huber", "truncated", "tukey"])
    @pytest.mark.parametrize("threshold", ["bogus", "-1", "0", "nan", "inf"])
    def test_bad_threshold_exit_2_before_output(self, tmp_path, loss, threshold):
        # the gaussian loss does not use the threshold, but a bad one is still an error
        data = tmp_path / "d.csv"
        write_clean_csv(data, n=50)
        out = tmp_path / "run"
        assert main(["estimate", str(data), "--loss", loss, "--threshold", threshold,
                     "--seed", "1", "--max-iters", "20", "--out", str(out)]) == 2
        assert not out.exists()

    def test_singular_fit_exit_1_without_matrix(self, tmp_path, capsys):
        # t(3) rows, six of them shifted: under a frozen truncated cutoff the
        # fit walks to a singular corner of the angle box
        X = sample_data(np.eye(5), 80, "t", np.random.default_rng(1))
        X[:6] += 10.0
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in X))
        out = tmp_path / "run"
        assert main(["estimate", str(data), "--loss", "truncated", "--threshold", "6.5",
                     "--starts", "3", "--seed", "3", "--max-iters", "1500",
                     "--out", str(out)]) == 1
        assert "truncated" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_column_fully_correlated(self, tmp_path):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(120)
        data = tmp_path / "d.csv"
        with open(data, "w") as fh:
            fh.write("a,b\n")
            for v in base:
                fh.write(f"{float(v)!r},{float(2 * v + 1)!r}\n")
        out = tmp_path / "run"
        code = main(["estimate", str(data), "--loss", "gaussian", "--starts", "2",
                     "--seed", "0", "--out", str(out), "--max-iters", "2000"])
        assert code == 0
        fit = read_data_csv(out / "corr.csv")
        assert fit.names() == ["a", "b"]
        assert fit.values[0, 1] >= 0.99

    def test_clean_data_close_to_truth(self, tmp_path):
        data = tmp_path / "d.csv"
        C_true = write_clean_csv(data, p=5, n=2000, seed=5)
        out = tmp_path / "run"
        code = main(["estimate", str(data), "--loss", "gaussian", "--starts", "2",
                     "--seed", "2", "--out", str(out), "--max-iters", "1500"])
        assert code == 0
        C = read_data_csv(out / "corr.csv").values
        assert np.abs(C - C_true).max() < 0.05
        record = json.loads((out / "run.json").read_text())
        assert record["threshold"] is None
        heat = (out / "heatmap.csv").read_text().splitlines()
        assert len(heat) == 1 + 25

    def test_robust_threshold_in_record(self, tmp_path):
        data = tmp_path / "d.csv"
        write_clean_csv(data, p=4, n=200, seed=6)
        out = tmp_path / "run"
        code = main(["estimate", str(data), "--loss", "truncated",
                     "--threshold", "iqr", "--starts", "2", "--seed", "3",
                     "--out", str(out), "--max-iters", "400"])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["threshold"] > 0
        assert record["threshold_policy"] == "iqr"
        # the per-start records of optimize's result.json
        assert [s["seed"] for s in record["per_start"]] == derive_seeds(3, 2)
        assert min(s["f_best"] for s in record["per_start"]) == record["f_best"]
        for start in record["per_start"]:
            assert start["evaluations"] == start["iterations"] + 1
            assert 0 <= start["explore_accepts"] <= start["explore"] <= start["iterations"]

    def test_iqr_threshold_on_three_rows(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n0.3,1.2\n-1.1,0.4\n2.0,-0.7\n")
        out = tmp_path / "run"
        code = main(["estimate", str(data), "--loss", "huber", "--threshold", "iqr",
                     "--starts", "1", "--seed", "3", "--out", str(out), "--max-iters", "200"])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert math.isfinite(record["threshold"]) and record["threshold"] > 0

    def test_byte_order_mark_keeps_every_row(self, tmp_path):
        # the same fit as from the file without the mark: no row is lost
        plain = tmp_path / "plain.csv"
        write_clean_csv(plain, p=4, n=60, seed=8, header=False)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        corrs = []
        for data in (plain, marked):
            out = tmp_path / data.stem
            code = main(["estimate", str(data), "--starts", "1", "--seed", "3",
                         "--out", str(out), "--max-iters", "200"])
            assert code == 0
            record = json.loads((out / "run.json").read_text())
            assert record["n"] == 60
            fit = read_data_csv(out / "corr.csv")
            assert fit.names() == ["x1", "x2", "x3", "x4"]
            corrs.append(fit.values)
        assert np.array_equal(*corrs)

    def test_fixed_threshold(self, tmp_path):
        data = tmp_path / "d.csv"
        write_clean_csv(data, p=4, n=100, seed=7)
        out = tmp_path / "run"
        code = main(["estimate", str(data), "--loss", "huber",
                     "--threshold", "12.5", "--starts", "1", "--seed", "3",
                     "--out", str(out), "--max-iters", "200"])
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["threshold"] == 12.5

    def test_malformed_csv_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3,zebra\n")
        assert main(["estimate", str(data), "--out", str(tmp_path / "r")]) == 2

    def test_non_utf8_csv_exit_2_before_output(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(b"a,b\n1,2\n3,\xff\n4,5\n")
        out = tmp_path / "r"
        assert main(["estimate", str(data), "--out", str(out)]) == 2
        assert not out.exists()

    def test_ragged_csv_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n3\n")
        assert main(["estimate", str(data), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("n", [5, 8])
    def test_no_more_rows_than_columns_exit_1_before_output(self, tmp_path, capsys, n):
        data = tmp_path / "d.csv"
        rows = np.random.default_rng(0).standard_normal((n, 8))
        data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        out = tmp_path / "run"
        assert main(["estimate", str(data), "--seed", "1", "--starts", "2",
                     "--max-iters", "2000", "--out", str(out)]) == 1
        assert f"{n} rows for 8 columns" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_column_exit_1(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n1,3\n1,4\n1,5\n")
        assert main(["estimate", str(data), "--out", str(tmp_path / "r")]) == 1

    def test_deterministic_outputs(self, tmp_path):
        data = tmp_path / "d.csv"
        write_clean_csv(data, p=4, n=150, seed=8)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["estimate", str(data), "--loss", "huber",
                         "--threshold", "iqr", "--starts", "2", "--seed", "11",
                         "--out", str(out), "--max-iters", "300"]) == 0
        assert_dirs_match(a, b)


SCENARIO_INI = """
[scenario]
p = 5
n = 60
replicates = 2
n_starts = 2
master_seed = 5
losses = gaussian, huber, truncated, tukey

[structure]
kind = sparse-uniform

[contamination]
kind = rows

[optimizer]
max_iters = 250
"""


def malformed_ini(text: str, how: str) -> bytes:
    """The bytes of ``text``, an INI file with an [optimizer] section, made
    unreadable in the way ``how`` names."""
    if how == "duplicate-option":
        text = text.replace("[optimizer]\n", "[optimizer]\nepsilon = 0\nepsilon = 0\n")
    elif how == "duplicate-section":
        text += "\n[optimizer]\nepsilon = 0\n"
    elif how == "no-section-header":
        text = "epsilon = 0\n" + text.lstrip()
    elif how == "not-utf8":
        return (text + "; caf\xe9\n").encode("latin-1")
    return text.encode()


@pytest.mark.parametrize("how", ["duplicate-option", "duplicate-section",
                                 "no-section-header", "not-utf8"])
@pytest.mark.parametrize("command", ["optimize", "simulate"])
def test_malformed_ini_exit_2_before_output(tmp_path, capsys, command, how):
    ini = tmp_path / "c.ini"
    out = tmp_path / "r"
    if command == "optimize":
        ini.write_bytes(malformed_ini(OPT_INI, how))
        argv = ["optimize", "--fn", "ackley", "--M", "3", "--config", str(ini)]
    else:
        ini.write_bytes(malformed_ini(SCENARIO_INI, how))
        argv = ["simulate", str(ini)]
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    assert "malformed config file" in capsys.readouterr().err
    assert not out.exists()


class TestConfigSeed:
    def test_optimizer_seed_rejected(self, tmp_path, capsys):
        # the search seeds derive from the master seed alone, so seed is no
        # [optimizer] key
        ini = tmp_path / "opt.ini"
        ini.write_text("[optimizer]\nmax_iters = 50\nseed = 99\n")
        data = tmp_path / "d.csv"
        write_clean_csv(data, n=50)
        for argv in (["optimize", "--fn", "ackley", "--M", "3"],
                     ["benchmark", "--fn", "ackley", "--M", "3"],
                     ["estimate", str(data)]):
            out = tmp_path / argv[0]
            assert main(argv + ["--config", str(ini), "--seed", "5",
                                "--out", str(out)]) == 2
            assert "unknown key 'seed'" in capsys.readouterr().err
            assert not out.exists()


class TestConfigPInit:
    def test_optimizer_p_init_rejected(self, tmp_path, capsys):
        # the direction weights always start equal; p_init is not a key
        ini = tmp_path / "opt.ini"
        ini.write_text("[optimizer]\nmax_iters = 50\np_init = 0.4\n")
        out = tmp_path / "run"
        assert main(["optimize", "--fn", "ackley", "--M", "3", "--config", str(ini),
                     "--seed", "5", "--out", str(out)]) == 2
        assert "p_init" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_artifacts_and_shape(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI)
        out = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = (out / "rmse_table.csv").read_text().splitlines()
        assert lines[0] == "loss,mean_rmse,se,mean_runtime"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "gaussian", "huber", "truncated", "tukey"]
        record = json.loads((out / "scenario.json").read_text())
        assert len(record["cells"]) == 8
        assert len(record["data_seeds"]) == 2
        for cell in record["cells"]:
            # counters summed over the cell's starts
            assert cell["evaluations"] >= cell["iterations"] + 2
            assert 0 <= cell["greedy_accepts"] <= cell["iterations"] - cell["explore"]
            assert cell["nonfinite"] >= 0

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI.replace("kind = rows", "kind = rowz"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "r")]) == 2

    def test_no_losses_exit_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI.replace("losses = gaussian, huber, truncated, tukey",
                                            "losses ="))
        out = tmp_path / "r"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert "at least one loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [3, 5])
    def test_no_more_rows_than_columns_exit_2_before_output(self, tmp_path, capsys, n):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI.replace("n = 60", f"n = {n}"))
        out = tmp_path / "r"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert f"n = {n} must exceed p = 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, match", [
        ("kind = sparse-uniform", "value_range = 0.1", "structure.value_range"),
        ("kind = sparse-uniform", "value_range = 0.1, 0.2, 0.3", "structure.value_range"),
        ("kind = sparse-uniform", "value_low = 0.1", "unknown key 'value_low'"),
        ("kind = rows", "entry_fraction_high = 0.9", "unknown key 'entry_fraction_high'"),
        # a table derived from the specs lets neither p nor a nested spec into
        # the wrong section
        ("kind = sparse-uniform", "p = 5", "unknown key 'p'"),
        ("n = 60", "structure = x", "unknown key 'structure'"),
    ], ids=["one-bound", "three-bounds", "value_low", "entry_fraction_high", "p-in-structure",
            "structure-in-scenario"])
    def test_bad_key_exit_2_before_output(self, tmp_path, capsys, old, new, match):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI.replace(old, f"{old}\n{new}"))
        out = tmp_path / "r"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_df_exit_2_before_output(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI.replace("n = 60", "n = 60\ndistribution = t\ndf = nan"))
        out = tmp_path / "r"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("ini_seed, flags", [(-1, []), (5, ["--seed", "-3"])])
    def test_negative_seed_exit_2_before_output(self, tmp_path, ini_seed, flags):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI.replace("master_seed = 5", f"master_seed = {ini_seed}"))
        out = tmp_path / "r"
        assert main(["simulate", str(cfg), "--out", str(out)] + flags) == 2
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert_dirs_match(a, b)

    def test_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SCENARIO_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", str(cfg), "--seed", "99", "--out", str(b)]) == 0
        ra = json.loads((a / "scenario.json").read_text())
        rb = json.loads((b / "scenario.json").read_text())
        assert ra["data_seeds"] != rb["data_seeds"]


class TestOutlierReportCommand:
    def test_counts(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,5\n2,5\n3,5\n4,5\n100,5\n")
        out = tmp_path / "run"
        assert main(["outlier-report", str(data), "--out", str(out)]) == 0
        lines = (out / "outliers.csv").read_text().splitlines()
        assert lines[0] == "column,count"
        assert lines[1] == "a,1"
        assert lines[2] == "b,0"
        record = json.loads((out / "run.json").read_text())
        assert record["counts"] == {"a": 1, "b": 0}

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["outlier-report", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r")]) == 1


class TestUnexpectedErrors:
    @staticmethod
    def _boom(monkeypatch):
        import glasd.cli

        def fail(args):
            raise RuntimeError("boom")
        monkeypatch.setitem(glasd.cli._DISPATCH, "outlier-report", fail)

    def test_one_line_without_verbose(self, tmp_path, monkeypatch, capsys):
        self._boom(monkeypatch)
        assert main(["outlier-report", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: boom\n"

    def test_traceback_with_verbose(self, tmp_path, monkeypatch, capsys):
        self._boom(monkeypatch)
        assert main(["outlier-report", str(tmp_path / "d.csv"), "-v"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: boom\n")
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: boom" in err


class TestBenchmarkCommand:
    def test_summary_with_baseline(self, tmp_path):
        out = tmp_path / "run"
        code = main(["benchmark", "--fn", "ackley,sumsquares", "--variant", "box",
                     "--dim", "3", "--starts", "2", "--seed", "4",
                     "--out", str(out), "--max-iters", "200",
                     "--baseline", "random"])
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "benchmark,solver,min_value,se_of_values,mean_runtime_s"
        solvers = [ln.split(",")[1] for ln in lines[1:]]
        assert solvers == ["glasd", "random-search"] * 2

    @pytest.mark.parametrize("M", [2, 4])
    def test_corr_random_baseline_values(self, tmp_path, M):
        # the baseline's values are the test function at the matrix of each
        # random point (at M = 2 every point is one angle from the last)
        out = tmp_path / "run"
        assert main(["benchmark", "--fn", "griewank", "--M", str(M), "--starts", "2",
                     "--seed", "6", "--max-iters", "60", "--baseline", "random",
                     "--out", str(out)]) == 0
        runs = json.loads((out / "benchmark.json").read_text())["runs"]
        base = next(r for r in runs if r["solver"] == "random-search")
        obj = corr_objective(BenchmarkSpec("griewank", "corr-manifold", dim=M))
        expected = [random_search_minimize(lambda a: obj(angles_to_corr(a)),
                                           default_angle_box(M), 60, seed=s).f_best
                    for s in derive_seeds(base["seed"], 2)]
        assert base["values"] == expected

    def test_unknown_function_exit_2(self, tmp_path):
        assert main(["benchmark", "--fn", "nope", "--out", str(tmp_path / "r")]) == 2
