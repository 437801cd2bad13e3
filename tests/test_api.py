import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glasd
import glasd.estimate
from glasd import (BenchmarkSpec, BoxDomain, LossSpec, OptimizerConfig, ScenarioSpec, Search,
                   StructureSpec, angle_dim, asd_minimize, default_angle_box,
                   estimate_correlation, glasd_minimize, minimize_over_corr,
                   multi_start_minimize, random_search_minimize)


def test_public_names_resolve_once():
    assert len(glasd.__all__) == len(set(glasd.__all__))
    missing = [name for name in glasd.__all__ if not hasattr(glasd, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.linalg more than
    # doubled the start-up time of every command
    src = str(Path(glasd.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import glasd, glasd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's Python block as written, on a small data.csv with a header
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3)) @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3],
                                                 [0.0, 0.0, 1.0]])
    np.savetxt(tmp_path / "data.csv", X, delimiter=",", header="a,b,c", comments="")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["fit"].corr.shape == (3, 3)
    assert scope["rec"].seed == 0


FAST = OptimizerConfig(max_iters=3)
BOX = BoxDomain([0.0, 0.0], [1.0, 1.0])
DATA = np.random.default_rng(0).standard_normal((20, 3))
GAUSSIAN = LossSpec("gaussian")

# Every count, size and seed the API takes, as
# entry -> (parameter, its bound, None is its default, run(value, f)); run
# calls the entry with the parameter set to value and f as its objective.
INTEGER_INPUTS = {
    "angle_dim": ("M", 2, False, lambda v, f: angle_dim(v)),
    "default_angle_box": ("M", 2, False, lambda v, f: default_angle_box(v)),
    "minimize_over_corr.M": ("M", 2, False, lambda v, f: minimize_over_corr(f, v, FAST, 1, 1)),
    "BenchmarkSpec.box": ("dim", 1, False, lambda v, f: BenchmarkSpec("ackley", "box", v)),
    "BenchmarkSpec.corr": ("dim", 2, False,
                           lambda v, f: BenchmarkSpec("ackley", "corr-manifold", v)),
    "StructureSpec.p": ("p", 2, False, lambda v, f: StructureSpec("random-dense", v)),
    "ScenarioSpec.n": ("n", 1, False,
                       lambda v, f: ScenarioSpec(StructureSpec("random-dense", 2), v)),
    "ScenarioSpec.replicates": ("replicates", 1, False, lambda v, f: ScenarioSpec(
        StructureSpec("random-dense", 2), 10, replicates=v)),
    "ScenarioSpec.n_starts": ("n_starts", 1, False, lambda v, f: ScenarioSpec(
        StructureSpec("random-dense", 2), 10, n_starts=v)),
    "ScenarioSpec.master_seed": ("master_seed", 0, False, lambda v, f: ScenarioSpec(
        StructureSpec("random-dense", 2), 10, master_seed=v)),
    "OptimizerConfig.m": ("m", 1, False, lambda v, f: OptimizerConfig(m=v)),
    "multi_start_minimize.n_starts": ("n_starts", 1, False,
                                      lambda v, f: multi_start_minimize(f, BOX, FAST, v, 1)),
    "estimate_correlation.n_starts": ("n_starts", 1, False, lambda v, f: estimate_correlation(
        DATA, GAUSSIAN, FAST, v, 1)),
    "Search.seed": ("seed", 0, True, lambda v, f: f(Search(BOX, None, FAST, v).ask())),
    "glasd_minimize.seed": ("seed", 0, True,
                            lambda v, f: glasd_minimize(f, BOX, None, FAST, v)),
    "asd_minimize.seed": ("seed", 0, True, lambda v, f: asd_minimize(f, BOX, None, FAST, v)),
    "random_search_minimize.seed": ("seed", 0, True,
                                    lambda v, f: random_search_minimize(f, BOX, 3, v)),
    "multi_start_minimize.master_seed": ("master_seed", 0, True,
                                         lambda v, f: multi_start_minimize(f, BOX, FAST, 1, v)),
    "minimize_over_corr.master_seed": ("master_seed", 0, True,
                                       lambda v, f: minimize_over_corr(f, 3, FAST, 1, v)),
    "estimate_correlation.master_seed": ("master_seed", 0, True,
                                         lambda v, f: estimate_correlation(
                                             DATA, GAUSSIAN, FAST, 1, v)),
}


def bad_values(entry):
    _, low, none_is_default, _ = INTEGER_INPUTS[entry]
    return ([2.5, 3.0, "3", low - 1, True] + ([False] if low == 0 else [])
            + ([] if none_is_default else [None]))


@pytest.fixture
def calls(monkeypatch):
    """Calls of the objective, and of estimate_correlation's pilot, the first
    work of a fit."""
    made = []
    pilot = glasd.estimate.pilot_correlation
    monkeypatch.setattr(glasd.estimate, "pilot_correlation",
                        lambda X: made.append("pilot") or pilot(X))
    return made


def objective(made):
    return lambda x: made.append("f") or float(np.sum(np.square(x)))


class TestIntegerRule:
    @pytest.mark.parametrize("entry, value", [(e, v) for e in INTEGER_INPUTS
                                              for v in bad_values(e)])
    def test_non_integers_raise_before_any_work(self, entry, value, calls):
        name, low, _, run = INTEGER_INPUTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}$"):
            run(value, objective(calls))
        assert calls == []

    @pytest.mark.parametrize("entry", INTEGER_INPUTS)
    def test_numpy_integers_accepted(self, entry, calls):
        INTEGER_INPUTS[entry][3](np.int64(3), objective(calls))
