import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from plap import cli

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


def test_determinant_sweep_runs(tmp_path, capsys):
    sweep = _load("determinant_sweep")
    path = tmp_path / "theta_determinants.csv"
    sweep.main(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "p,slope_ratio,det_direct,det_closed_form"
    assert len(lines) - 1 == 40_000
    assert min(abs(float(line.split(",")[2])) for line in lines[1:]) > 1e-6
    assert "canonical point: direct = 4, closed form = 6" in capsys.readouterr().out
    e1 = np.array([1.0, 0.0, 0.0])
    assert sweep.theta_det_direct(sweep.theta_matrix(1.0, e1, 3.0)) == 4.0
    assert sweep.theta_det_closed_form(1.0, e1, 3.0) == 6.0


@pytest.mark.parametrize("name", sorted(path.stem for path in (SCRIPTS / "configs").glob("*.cfg")))
def test_sample_config_passes(tmp_path, name):
    # each sample config is named after the subcommand it runs
    cfg = SCRIPTS / "configs" / f"{name}.cfg"
    assert cli.main([name, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["pass"] is True
