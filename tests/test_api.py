import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import glasd


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
