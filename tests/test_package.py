import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

MODULES = ("grid", "psolve", "linearize", "criticalfree", "jets", "recover", "planecheck", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"plap.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


# cli is left out: it is the command-line front end, and its public-named
# module functions are the subcommand handlers behind ``main`` and the
# report writers, reached through the command line, not as library API
@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"plap.{name}")
    public = [
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(public) - set(module.__all__)) == []


_LAZY_PACKAGE = """\
import json, sys
import plap

loaded = sorted(m for m in sys.modules if m.startswith("plap."))
listed = dir(plap)
solver = plap.psolve.solve_p_laplace.__module__
resolved = [getattr(plap, n).__name__ for n in plap.__all__]
print(json.dumps([loaded, listed, solver, resolved, hasattr(plap, "nope")]))
"""


def test_package_loads_submodules_on_first_access():
    # a fresh interpreter: this test process has imported every module already
    import plap

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plap.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_PACKAGE], env=env, capture_output=True, text=True, check=True
    )
    loaded, listed, solver, resolved, has_nope = json.loads(out.stdout)
    assert loaded == []
    assert set(plap.__all__) <= set(listed)
    assert solver == "plap.psolve"
    assert resolved == [f"plap.{n}" for n in plap.__all__]
    assert not has_nope
