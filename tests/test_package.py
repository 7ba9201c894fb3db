"""Package surface: every name a module exports exists, and what importing
and running the package loads."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import fgdist
from conftest import package_env

# __main__ runs the CLI on import
MODULES = ["fgdist"] + [f"fgdist.{info.name}" for info in pkgutil.iter_modules(fgdist.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


# Runs in a fresh interpreter: no sweep loads scipy, the reduce branch
# included, whose canonical form is one numpy eigh.  Only two reference
# builders that no sweep calls import it.
IMPORT_PATH_SCRIPT = """
import sys
from pathlib import Path

import fgdist
import fgdist.cli

out = Path(sys.argv[1])
runs = [
    ["sweep", "--model", "ising", "--L", "8", "--metric", "trace", "--ell-max", "4", "--out", out / "trace.csv"],
    ["sweep", "--model", "xxz", "--L", "8", "--sector", "1,2", "--ell-max", "3", "--out", out / "xxz.csv",
     "--sector-out", out / "sector.csv"],
    ["spectrum", "--L", "8", "--h", "1.0", "--out", out / "spectrum.csv"],
    # every consecutive pair of this sweep takes the regular branch
    ["sweep", "--model", "ising", "--L", "10", "--h", "0.95", "--metric", "bures", "--ell-min", "3", "--ell-max", "4",
     "--out", out / "bures.csv"],
]
for argv in runs:
    assert fgdist.cli.main([str(arg) for arg in argv]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
argv = ["sweep", "--model", "random", "--L", "8", "--count", "6", "--ell-min", "5", "--ell-max", "6",
        "--out", str(out / "random.csv")]
assert fgdist.cli.main(argv) == 0
print("scipy.linalg" in sys.modules)
"""


def test_no_sweep_loads_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT, str(tmp_path)], capture_output=True, text=True,
                          timeout=300, env=package_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "False"]
    assert (tmp_path / "random.csv").read_text() == (
        "model,L,param,sector,ordering,metric,ell,x,average,pairs\n"
        "random,8,0,count=6,all-pairs,bures,5,0.625,1.1218451689593103,15\n"
        "random,8,0,count=6,all-pairs,bures,6,0.75,1.2550469290901489,15\n"
    )
