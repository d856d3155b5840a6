import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_runs():
    study = _load("convergence_study")
    u_err, flux_err, iterations = study.pseudo1d(3.0, 17)
    # second-order errors on a 17-node grid, reached by a converged Newton solve
    assert 0.0 < u_err < 1e-4
    assert 0.0 < flux_err < 1e-2
    assert 0 < iterations <= 10
