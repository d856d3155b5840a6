import importlib
import inspect

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
