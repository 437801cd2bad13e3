import subprocess
import sys
from pathlib import Path

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
