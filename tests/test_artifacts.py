import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from glasd.artifacts import (
    _CONTAMINATION_KEYS,
    _OPTIMIZER_KEYS,
    _SCENARIO_KEYS,
    _STRUCTURE_KEYS,
    fmt,
    load_optimizer_overrides,
    load_scenario_config,
    make_loss_spec,
    write_csv,
    write_json,
    write_matrix_csv,
    write_trace_csv,
)
from glasd.errors import ConfigError, MalformedDataError
from glasd.losses import read_data_csv
from glasd.optimizer import OptimizerConfig
from glasd.simulate import STRUCTURE_KINDS, ContaminationSpec, ScenarioSpec, StructureSpec


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        C = rng.uniform(-1, 1, (5, 5))
        path = tmp_path / "m.csv"
        names = [f"v{i}" for i in range(5)]
        write_matrix_csv(path, C, names)
        back = read_data_csv(path)
        assert back.names() == names
        assert np.array_equal(back.values, C)  # 17 significant digits round-trip floats

    def test_fmt_roundtrip_extremes(self):
        for v in (1 / 3, 1e-300, -1.2345678901234567e17, 5.15e-11):
            assert float(fmt(v)) == v


    @pytest.mark.parametrize("text", ["a,b\n1,2\n3\n", "a,b\n1,2\n3,x\n", "a,b\n1,nan\n2,3\n"],
                             ids=["ragged", "non-numeric", "non-finite"])
    def test_read_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(MalformedDataError):
            read_data_csv(path)


class TestWriteCsv:
    def test_floats_by_fmt_other_cells_by_str(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "count", "value"],
                  [("a", 3, 0.1), ("b", np.int64(4), np.float64(1 / 3)), ("c", 5, 2.0)])
        assert path.read_text().splitlines() == [
            "name,count,value", "a,3,0.10000000000000001",
            "b,4,0.33333333333333331", "c,5,2"]


class TestWriteJson:
    def test_numpy_values_as_python_values(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"a": np.arange(3), "b": np.float64(0.1), "c": np.int64(7),
                          "d": [np.bool_(True), (1, 2)]})
        assert json.loads(path.read_text()) == {"a": [0, 1, 2], "b": 0.1, "c": 7,
                                                "d": [True, [1, 2]]}

    def test_unknown_object_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="set"):
            write_json(tmp_path / "r.json", {"a": {1, 2}})


class TestTraceCsv:
    def test_layout(self, tmp_path):
        trace = np.array([[0, 1, 5.0], [1, 2, 4.0], [2, 3, 4.0]])
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,evaluations,f_best"
        assert lines[1] == "0,1,5"
        assert len(lines) == 4


SCENARIO_INI = """
[scenario]
p = 6
n = 50
replicates = 2
n_starts = 2
master_seed = 7
distribution = gaussian
losses = gaussian, huber

[structure]
kind = sparse-uniform
sparsity = 0.9

[contamination]
kind = rows
fraction = 0.1

[optimizer]
max_iters = 300
"""


class TestScenarioConfig:
    def test_parses(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI)
        spec = load_scenario_config(path)
        assert spec.p == 6 and spec.n == 50
        assert spec.structure.kind == "sparse-uniform"
        assert spec.contamination.kind == "rows"
        assert [ls.kind for ls in spec.losses] == ["gaussian", "huber"]
        assert spec.losses[1].threshold == "iqr-auto"
        assert spec.optimizer.max_iters == 300
        assert spec.master_seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI.replace("sparsity = 0.9", "sparsiti = 0.9"))
        with pytest.raises(ConfigError):
            load_scenario_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ConfigError):
            load_scenario_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI.replace("n = 50", "n = fifty"))
        with pytest.raises(ConfigError):
            load_scenario_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("line, match", [
        ("[structure]\n", "sections"),
        ("kind = sparse-uniform\n", "kind"),
        ("p = 6\n", "'p' and 'n'"),
        ("n = 50\n", "'p' and 'n'"),
    ], ids=["structure", "kind", "p", "n"])
    def test_required_entry_missing(self, tmp_path, line, match):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI.replace(line, "", 1))
        with pytest.raises(ConfigError, match=match):
            load_scenario_config(path)

    def test_optimizer_seed_rejected(self, tmp_path):
        # run_scenario derives one search seed per loss from master_seed, and
        # the [optimizer] keys are the OptimizerConfig fields, which hold no seed
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI.replace("max_iters = 300", "max_iters = 300\nseed = 99"))
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            load_scenario_config(path)

    def test_readme_example_loads(self, tmp_path):
        # the README's scenario block, with its inline "; ..." comments
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "s.ini"
        path.write_text(block)
        spec = load_scenario_config(path)
        assert spec.structure.kind == "sparse-uniform"
        assert spec.losses[1].threshold == "iqr-auto"
        assert spec.optimizer.max_iters == 2000

    MINIMAL = "[scenario]\np = 6\nn = 30\n[structure]\nkind = {kind}\n"

    @pytest.mark.parametrize("kind", STRUCTURE_KINDS)
    def test_minimal_file_takes_every_default(self, tmp_path, kind):
        path = tmp_path / "s.ini"
        path.write_text(self.MINIMAL.format(kind=kind))
        assert load_scenario_config(path) == ScenarioSpec(StructureSpec(kind, p=6), n=30)

    def test_ranges_are_comma_separated_pairs(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI
                        .replace("sparsity = 0.9", "sparsity = 0.9\nvalue_range = 0.2, 0.4")
                        .replace("fraction = 0.1", "fraction = 0.1\nentry_fraction = 0.1, 0.9"))
        spec = load_scenario_config(path)
        assert spec.structure.value_range == (0.2, 0.4)
        assert spec.contamination.entry_fraction == (0.1, 0.9)

    def test_keys_are_the_spec_fields(self):
        # p sets the structure but sits in [scenario]; no nested spec is a key
        assert set(_STRUCTURE_KEYS) == {f.name for f in fields(StructureSpec)} - {"p"}
        assert set(_CONTAMINATION_KEYS) == {f.name for f in fields(ContaminationSpec)}
        assert set(_SCENARIO_KEYS) == {"p", "n", "distribution", "df", "losses", "replicates",
                                       "n_starts", "master_seed", "threshold"}


class TestOptimizerOverrides:
    def test_keys_are_the_config_fields(self):
        # derived from OptimizerConfig's type hints, with None dropped
        assert _OPTIMIZER_KEYS == {
            "s_init": float, "s_inc": float, "s_dec": float, "p_inc": float,
            "p_dec": float, "m": int, "c": float, "r": float,
            "max_iters": int, "stagnation_window": int, "epsilon": float,
            "explore_enabled": bool,
        }
        assert list(_OPTIMIZER_KEYS) == [f.name for f in fields(OptimizerConfig)]

    BLOCKS = "kind = block-toeplitz\nblock_fractions = "

    @pytest.mark.parametrize("old, new, match", [
        ("max_iters = 300", "max_iters = 300\ns_dec = nan", "s_dec"),
        ("distribution = gaussian", "distribution = t\ndf = nan", "df"),
        ("fraction = 0.1", "fraction = 0.1\nshift = nan", "shift"),
        ("fraction = 0.1", "fraction = 0.1\nshift = inf", "shift"),
        ("kind = sparse-uniform", BLOCKS + "nan,0.5,0.25", "block fractions"),
        ("kind = sparse-uniform", BLOCKS + "1.5,-0.75,0.25", "block fractions"),
        # round(6 * 0.05) = 0: the first block would be empty at p = 6
        ("kind = sparse-uniform", BLOCKS + "0.05,0.9,0.05", "empty"),
    ], ids=["s_dec", "df", "shift-nan", "shift-inf", "fractions-nan",
            "fractions-negative", "fractions-empty-block"])
    def test_nonfinite_scenario_value_rejected(self, tmp_path, old, new, match):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_INI.replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_scenario_config(path)

    def test_load(self, tmp_path):
        path = tmp_path / "o.ini"
        path.write_text("[optimizer]\nmax_iters = 42\ns_inc = 3.0\n")
        assert load_optimizer_overrides(path) == {"max_iters": 42, "s_inc": 3.0}

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "o.ini"
        path.write_bytes(b"\xef\xbb\xbf[optimizer]\nmax_iters = 42\n")
        assert load_optimizer_overrides(path) == {"max_iters": 42}
        path.write_bytes(b"\xef\xbb\xbf" + SCENARIO_INI.encode())
        assert load_scenario_config(path).optimizer.max_iters == 300

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "o.ini"
        path.write_text("[optimizer]\nstep = 42\n")
        with pytest.raises(ConfigError):
            load_optimizer_overrides(path)

    def test_p_init_is_not_a_key(self, tmp_path):
        # the direction weights always start equal; there is no p_init to set
        path = tmp_path / "o.ini"
        path.write_text("[optimizer]\np_init = 0.4\n")
        with pytest.raises(ConfigError, match="p_init"):
            load_optimizer_overrides(path)


class TestLossSpecParsing:
    def test_iqr(self):
        spec = make_loss_spec("huber", "iqr")
        assert spec.threshold == "iqr-auto"

    def test_numeric(self):
        spec = make_loss_spec("truncated", "7.5")
        assert spec.threshold == 7.5

    def test_bad(self):
        with pytest.raises(ConfigError):
            make_loss_spec("huber", "many")
        with pytest.raises(ConfigError):
            make_loss_spec("hoober", "iqr")
        with pytest.raises(ConfigError):
            make_loss_spec("gaussian", "many")
        assert make_loss_spec("gaussian", "6.5") == make_loss_spec("gaussian", "iqr-pilot")
