import importlib

import pytest

MODULES = ("grid", "psolve", "linearize", "criticalfree", "jets", "recover", "planecheck", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"plap.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
