import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from plap import cli, jets, psolve, recover
from plap.cli import (
    ConfigError,
    ExperimentConfig,
    config_to_text,
    load_config,
    main,
    parse_config_text,
    to_json,
    write_csv,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _report(out):
    return json.loads(Path(out, "report.json").read_text())


# -- config parsing ------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = parse_config_text("")
    assert cfg == ExperimentConfig()


def test_minimal_config_fills_defaults():
    cfg = parse_config_text("[problem]\np = 2.5\n")
    assert cfg.p == 2.5
    assert cfg.tol == 1e-8
    assert cfg.resolution == (33, 33)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text("[problem]\np = 3\np = 4\n")


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match="unknown key problem.quux"):
        parse_config_text("[problem]\nquux = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[nope]\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("p = 3\n")


def test_p_equals_two_rejected():
    with pytest.raises(ConfigError, match="p must avoid 2"):
        parse_config_text("[problem]\np = 2\n")


def test_expression_error_carries_offset():
    with pytest.raises(ConfigError, match="offset 2"):
        parse_config_text("[problem]\ngamma = 1+*x1\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("[solver]\ntol = banana\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# top\n\n[problem]\np = 3.5  # inline\n")
    assert cfg.p == 3.5


def test_config_round_trip():
    cfg = parse_config_text(
        "[problem]\np = 2.5\ngamma = 1+0.1*x1\n[domain]\nresolution = 17 17\n"
        "[recover]\np_list = 1.3 3.0\n[run]\nseed = 7\n"
    )
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_eps_schedule_must_decrease():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config_text("[linearize]\neps_schedule = 0.01 0.1\n")


# -- deterministic serialization --------------------------------------------------------


def test_json_float_format_round_trips():
    x = 0.1 + 0.2
    text = to_json({"v": x})
    assert json.loads(text)["v"] == x


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"v": object()})


# -- end-to-end runs ----------------------------------------------------------------------


def test_checks_run_and_determinism(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "[domain]\nresolution = 9 9\n[problem]\np = 2.5\n")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["checks", "--config", cfg, "--out", out1]) == 0
    assert main(["checks", "--config", cfg, "--out", out2]) == 0
    b1 = Path(out1, "report.json").read_bytes()
    b2 = Path(out2, "report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["pass"] is True
    assert report["results"]["det_identity_max_dev"] < 1e-12


def test_report_config_echo_reparses(tmp_path):
    from dataclasses import replace

    cfg_path = _write(tmp_path, "c.cfg", "[domain]\nresolution = 9 9\n")
    out = str(tmp_path / "out")
    assert main(["checks", "--config", cfg_path, "--out", out]) == 0
    report = _report(out)
    echoed = parse_config_text(report["config"])
    assert echoed == replace(load_config(cfg_path), command="checks")


def test_forward_reports_extension_deviation(tmp_path):
    cfg = _write(
        tmp_path,
        "f.cfg",
        "[domain]\nresolution = 17 17\n[problem]\np = 3\ngamma = 1\ndata = expr:x1\n",
    )
    out = str(tmp_path / "out")
    assert main(["forward", "--config", cfg, "--out", out]) == 0
    report = _report(out)
    assert report["results"]["max_dev_from_extension"] <= 1e-8
    assert os.path.exists(os.path.join(out, "tables", "residual_history.csv"))
    assert os.path.exists(os.path.join(out, "run_meta.json"))


def test_dn_pseudo1d_run(tmp_path):
    cfg = _write(
        tmp_path,
        "d.cfg",
        "[domain]\nresolution = 17 17\n[problem]\np = 3\ngamma = 1+x1\ndata = pseudo1d\n",
    )
    out = str(tmp_path / "out")
    assert main(["dn", "--config", cfg, "--out", out]) == 0
    report = _report(out)
    assert abs(report["results"]["flux_balance"]) < 0.05
    lines = Path(out, "tables", "flux.csv").read_text().splitlines()
    assert lines[0] == "face,x1,x2,flux"
    assert len(lines) == 1 + 4 * 17


def test_dn_dense_matrix_opt_in(tmp_path):
    cfg = _write(
        tmp_path,
        "dm.cfg",
        "[domain]\nresolution = 9 9\n[problem]\np = 3\ngamma = 1\ndata = expr:x1\n"
        "[dn]\ndn_matrix = true\n",
    )
    out = str(tmp_path / "out")
    assert main(["dn", "--config", cfg, "--out", out]) == 0
    report = _report(out)
    assert report["results"]["dn_matrix_nodes"] == 32
    lines = Path(out, "tables", "dn_matrix.csv").read_text().splitlines()
    # one row per (flux node, boundary bump) pair
    assert len(lines) == 1 + (4 * 9) * 32


def test_linearize_run(tmp_path):
    cfg = _write(
        tmp_path,
        "l.cfg",
        "[domain]\nresolution = 17 17\n[problem]\np = 3\ngamma = 1\ndata = expr:x1\n"
        "[linearize]\nphi = x2^2 - x2\neps_schedule = 0.1 0.01 0.001\n",
    )
    out = str(tmp_path / "out")
    assert main(["linearize", "--config", cfg, "--out", out]) == 0
    report = _report(out)
    assert report["results"]["monotone_verdict"] is True
    devs = report["results"]["deviations"]
    assert devs[0] > devs[-1]
    # the base solve's LU and the LU of A, shared by the three quotient solves
    assert report["results"]["factorizations"] == 2
    assert report["results"]["factor_fill"] > 0
    assert isinstance(report["results"]["krylov_iterations"], int)


def test_fixedpoint_run(tmp_path):
    cfg = _write(
        tmp_path,
        "fp.cfg",
        "[domain]\nresolution = 17 17\n[problem]\np = 1.5\ngamma = 1+0.05*x1\nzeta = 1 0\n",
    )
    out = str(tmp_path / "out")
    assert main(["fixedpoint", "--config", cfg, "--out", out]) == 0
    report = _report(out)
    assert report["results"]["sup_grad_R"] < 0.5
    assert report["results"]["min_grad_u0"] > 0.5
    assert report["results"]["factorizations"] == 1
    assert report["results"]["factor_fill"] > 0
    assert report["results"]["krylov_iterations"] > 0


def test_nonpositive_weight_serialized_as_error(tmp_path):
    cfg = _write(
        tmp_path,
        "w.cfg",
        "[domain]\nresolution = 9 9\n[problem]\np = 3\ngamma = x1 - 0.5\ndata = expr:x1\n",
    )
    out = str(tmp_path / "out")
    assert main(["forward", "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert "strictly positive" in report["error"]["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "gamma, message",
    [("1/x1", "finite"), ("x1 - 0.5", "strictly positive")],
)
def test_bad_weight_rejected_before_pseudo1d_profile(tmp_path, gamma, message):
    cfg = _write(
        tmp_path,
        "w.cfg",
        f"[domain]\nresolution = 9 9\n[problem]\np = 3\ngamma = {gamma}\ndata = pseudo1d\n",
    )
    out = str(tmp_path / "out")
    assert main(["forward", "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["error"]["type"] == "ValueError"
    assert message in report["error"]["message"]


@pytest.mark.parametrize(
    "gamma, p, error, message",
    [
        # positive at the five nodes, negative between them
        ("0.5 + cos(8*3.14159265358979*x1)", "3", "ValueError", "strictly positive"),
        ("1e-12 + x1^2", "1.2", "ProfileNotResolved", "nodes per cell"),
    ],
)
def test_pseudo1d_profile_error_serialized(tmp_path, gamma, p, error, message):
    cfg = _write(
        tmp_path,
        "w.cfg",
        f"[domain]\nresolution = 5 5\n[problem]\np = {p}\ngamma = {gamma}\ndata = pseudo1d\n",
    )
    out = str(tmp_path / "out")
    assert main(["forward", "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["error"]["type"] == error
    assert message in report["error"]["message"]


@pytest.mark.parametrize(
    "command, text, error",
    [
        (
            "forward",
            "[domain]\nresolution = 9 9\n[problem]\np = 1.5\ndata = expr:(x1-0.5)^2\n"
            "[solver]\neps_reg = 0\n",
            "NonConvergence",
        ),
        (
            "forward",
            "[domain]\nresolution = 9 9\n[problem]\np = 3\ndata = expr:(x1-0.5)^2\n"
            "[solver]\neps_reg = 0\n",
            "NonConvergence",
        ),
        (
            "recover",
            "[recover]\nprofile = 1/(x1 + 0.18)\nrzeta = 0.6 0.64 0.48\norder = 5\ndepths = 0.3\n",
            "JetDomainError",
        ),
    ],
    ids=["nan_residual", "singular_jacobian", "profile_pole_at_depth"],
)
def test_bad_value_serialized_as_error(tmp_path, command, text, error):
    cfg = _write(tmp_path, "bad.cfg", text)
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["pass"] is False
    assert report["error"]["type"] == error


def test_zero_gradient_without_regularization_is_named(tmp_path):
    # p < 2: the flux itself is undefined at the zero gradient, so the check
    # must come before the first residual; zero data starts Newton from zero
    # whatever order the isotropic solve eliminates in (the Newton-loop check
    # at p > 2 is test_psolve's test_zero_gradient_in_newton_loop_is_named)
    cfg = _write(
        tmp_path,
        "zero_grad_1.5.cfg",
        "[domain]\nresolution = 9 9\n[problem]\np = 1.5\ngamma = 1\ndata = expr:0\n"
        "[solver]\neps_reg = 0\n",
    )
    out = str(tmp_path / "out_1.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["forward", "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["error"]["type"] == "NonConvergence"
    assert "gradient is exactly zero" in report["error"]["message"]
    # p > 2: the flux is 0 at a zero gradient, so zero data solves at once
    cfg = _write(
        tmp_path,
        "zero_data_3.cfg",
        "[domain]\nresolution = 9 9\n[problem]\np = 3\ngamma = 1\ndata = expr:0\n"
        "[solver]\neps_reg = 0\n",
    )
    out = str(tmp_path / "out_zero_data")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["forward", "--config", cfg, "--out", out]) == 0
    results = _report(out)["results"]
    assert results["iterations"] == 0 and results["residual_norm"] == 0.0


def test_degenerate_gradient_still_passes_forward_and_dn(tmp_path):
    # constant data: the Dirichlet solution is constant, a valid solve with
    # zero gradient; the flag warns only about linearizing there
    cfg = _write(tmp_path, "const.cfg", "[domain]\nresolution = 3 3\n[problem]\np = 3\ndata = expr:1\n")
    for command in ("forward", "dn"):
        out = str(tmp_path / command)
        with pytest.warns(psolve.DegenerateGradientWarning):
            assert main([command, "--config", cfg, "--out", out]) == 0
        report = _report(out)
        assert report["pass"] is True
        assert report["results"]["degenerate_gradient"] is True
        assert report["results"]["residual_norm"] == 0.0


def test_forward_and_dn_reports_carry_solver_counts(tmp_path):
    text = "[domain]\nresolution = 17 17\n[problem]\np = 3\ndata = linear\nzeta = 0.8 0.6\n"
    for command in ("forward", "dn"):
        cfg = _write(tmp_path, f"{command}.cfg", text)
        out = str(tmp_path / command)
        assert main([command, "--config", cfg, "--out", out]) == 0
        results = _report(out)["results"]
        assert results["factorizations"] == 1
        assert results["factor_fill"] > 0
        assert isinstance(results["krylov_iterations"], int)


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    scipy_loaded = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
    # scipy.sparse loads at the first sparse build, so importing plap.cli and
    # loading a config load no scipy module at all
    rec = _write(tmp_path, "rec.cfg", "[recover]\norder = 4\ndepths = 0.1\np_list = 3.0\n")
    code = f"import sys, plap.cli; plap.cli.load_config({rec!r}); print({scipy_loaded})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    # nor does a fixedpoint run load scipy.integrate: B comes from a fixed Gauss-Legendre rule
    cfg = _write(tmp_path, "fp.cfg", "[domain]\nresolution = 9 9\n[problem]\np = 1.5\ngamma = 1+0.05*x1\n")
    code = (
        "import sys, plap.cli; "
        f"code = plap.cli.main(['fixedpoint', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'scipy.integrate' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 False"
    # nor does the Taylor identity check, which takes the same rule
    code = (
        "import sys, plap.linearize as lin; "
        "print(lin.taylor_identity_check([2.0, 0.5], [1.0, 0.0], 1.5) < 1e-12, 'scipy.integrate' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True False"
    # a recover run, which solves no PDE, loads no scipy module
    args = ["recover", "--config", rec, "--jobs", "1", "--out", str(tmp_path / "rec")]
    code = f"import sys, plap.cli; code = plap.cli.main({args!r}); print(code, {scipy_loaded})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
    # a PDE run loads scipy.sparse at its first grid operator; only a fresh
    # interpreter reaches the function-level imports on their first call
    fwd = _write(tmp_path, "fwd.cfg", "[domain]\nresolution = 9 9\n[problem]\np = 3.0\n")
    args = ["forward", "--config", fwd, "--jobs", "1", "--out", str(tmp_path / "fwd")]
    code = f"import sys, plap.cli; code = plap.cli.main({args!r}); print(code, 'scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 True"
    # and the pseudo-1D profile, from its own Gauss-Legendre rule, loads no
    # scipy.integrate, nor the optimize and special modules it brings
    p1d = _write(tmp_path, "p1d.cfg", "[domain]\nresolution = 9 9\n[problem]\ngamma = 1 + x1\ndata = pseudo1d\n")
    args = ["forward", "--config", p1d, "--jobs", "1", "--out", str(tmp_path / "p1d")]
    heavy = "[m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') if m in sys.modules]"
    code = f"import sys, plap.cli; code = plap.cli.main({args!r}); print(code, {heavy})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_recover_bad_depth_fails_before_recovery(tmp_path, monkeypatch):
    def no_recovery(*args, **kwargs):
        raise AssertionError("the recovery ran before the depths were checked")

    monkeypatch.setattr(recover, "run_recovery", no_recovery)
    cfg = _write(
        tmp_path,
        "bad.cfg",
        "[recover]\nprofile = 1/(x1 + 0.18)\nrzeta = 0.6 0.64 0.48\norder = 5\ndepths = 0.3\n",
    )
    out = str(tmp_path / "out")
    assert main(["recover", "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["error"]["type"] == "JetDomainError"


def test_fixedpoint_solver_error_serialized(tmp_path):
    cfg = _write(
        tmp_path,
        "fp.cfg",
        "[domain]\nresolution = 17 17\n[problem]\np = 3\ngamma = 1+5*x1\nzeta = 1 0\n",
    )
    out = str(tmp_path / "out")
    assert main(["fixedpoint", "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["error"]["type"] == "BallEscape"
    assert report["pass"] is False


def test_recover_run_and_jobs_merge(tmp_path):
    text = (
        "[recover]\nprofile = exp(0.2*x1)\nrzeta = 0.48 -0.6 0.64\nz = 0.1 -0.3 0.2\n"
        "order = 6\np_list = 1.5 3.0\n"
    )
    cfg = _write(tmp_path, "r.cfg", text)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["recover", "--config", cfg, "--out", out1]) == 0
    assert main(["recover", "--config", cfg, "--jobs", "2", "--out", out2]) == 0
    b1 = Path(out1, "report.json").read_bytes()
    b2 = Path(out2, "report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert [s["p"] for s in report["results"]["scenarios"]] == [1.5, 3.0]
    assert report["results"]["canonical_theta_det_direct"] == 4.0
    assert report["results"]["canonical_theta_det_closed_form"] == 6.0


def test_recover_gauge_residual_table(tmp_path):
    text = (
        "[recover]\nprofile = exp(0.2*x1)\nrzeta = 0.48 -0.6 0.64\nz = 0.1 -0.3 0.2\n"
        "order = 6\np_list = 1.5 3.0\n"
    )
    cfg = _write(tmp_path, "r.cfg", text)
    blobs = []
    for run in ("o1", "o2"):
        out = str(tmp_path / run)
        assert main(["recover", "--config", cfg, "--out", out]) == 0
        blobs.append(Path(out, "tables", "gauge_residual.csv").read_bytes())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode("ascii").splitlines()
    assert lines[0] == "p,order,tangential_degree,max_abs_Z"
    rows = [line.split(",") for line in lines[1:]]
    # orders 1..4, tangential degrees 0..6-m, for each p
    expected = [(p, m, k) for p in ("1.5", "3") for m in range(1, 5) for k in range(7 - m)]
    assert [(r[0], int(r[1]), int(r[2])) for r in rows] == expected
    report = _report(tmp_path / "o1")
    for scen in report["results"]["scenarios"]:
        zs = [float(r[3]) for r in rows if float(r[0]) == scen["p"]]
        assert max(zs) == scen["max_gauge_residual"]


def test_recover_sample_passes_at_order_16(tmp_path):
    sample = (Path(__file__).resolve().parents[1] / "scripts" / "configs" / "recover.cfg").read_text()
    assert "\norder = 8\n" in sample
    cfg = _write(tmp_path, "r16.cfg", sample.replace("\norder = 8\n", "\norder = 16\n"))
    out = str(tmp_path / "o")
    assert main(["recover", "--config", cfg, "--out", out]) == 0
    scenarios = _report(out)["results"]["scenarios"]
    assert [s["p"] for s in scenarios] == [1.3, 1.7, 2.5, 3.0, 6.0]
    for scen in scenarios:
        assert scen["passed"]
        assert scen["max_rel_error"] < 1e-7 and scen["max_gauge_residual"] < 1e-8
    assert scenarios[0]["max_gauge_residual"] <= 1e-10


def _report_files(out: Path) -> dict[str, bytes]:
    """report.json and every table of a run, by relative path."""
    paths = [out / "report.json", *sorted((out / "tables").iterdir())]
    return {str(path.relative_to(out)): path.read_bytes() for path in paths}


@pytest.mark.parametrize("order", [8, 16])
def test_recover_sample_cold_and_warm_runs_identical(tmp_path, order):
    # the first run builds the jet tables (windowed ones included) from
    # empty caches, the second reads them
    sample = (Path(__file__).resolve().parents[1] / "scripts" / "configs" / "recover.cfg").read_text()
    cfg = _write(tmp_path, "r.cfg", sample.replace("\norder = 8\n", f"\norder = {order}\n"))
    jets._product_table.cache_clear()
    jets._division_levels.cache_clear()
    runs = []
    for run in ("cold", "warm"):
        assert main(["recover", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        runs.append(_report_files(tmp_path / run))
    assert len(runs[0]) == 5
    assert runs[0] == runs[1]


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, n_cpus, n_tasks, expected",
    [(64, 2, 3, [2]), (64, 8, 3, [3]), (2, 8, 5, [2]), (64, 1, 3, []), (4, 8, 1, [])],
)
def test_recover_jobs_capped(monkeypatch, jobs, n_cpus, n_tasks, expected):
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: n_cpus)
    monkeypatch.setattr(cli, "_recover_scenario", lambda task: ({"passed": True}, [], [], [], []))
    cfg = ExperimentConfig(p_list=tuple(1.5 + 0.5 * k for k in range(n_tasks)))
    results, _, passed = cli.run_recover(cfg, jobs=jobs)
    assert passed and len(results["scenarios"]) == n_tasks
    assert _SerialPool.sizes == expected


def test_rescale_run(tmp_path):
    cfg = _write(
        tmp_path,
        "rs.cfg",
        "[domain]\nresolution = 17 17\n[problem]\np = 3\ngamma = 1+x2^2\nzeta = 1 0\n",
    )
    out = str(tmp_path / "out")
    assert main(["rescale", "--config", cfg, "--out", out]) == 0
    report = _report(out)
    assert report["results"]["stretch"] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)


def test_output_dir_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "c.cfg", "[domain]\nresolution = 9 9\n[output]\ndir = from_config\n")
    assert main(["checks", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "report.json").exists()
    # the CLI flag wins over the config key
    assert main(["checks", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "report.json").exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "[problem]\np = 2\n")
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_recover_mode_b_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "b.cfg", "[recover]\nmode = B\n")
    assert main(["recover", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "recover.mode" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_file(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_parser_built_once_and_reusable_after_a_usage_error(tmp_path, capsys):
    parser = cli._parser()
    with pytest.raises(SystemExit) as err:
        main(["forward"])  # --config missing
    assert err.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert cli._parser() is parser


def test_run_command_mismatch(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "[run]\ncommand = checks\n")
    with pytest.raises(ConfigError, match="does not match"):
        cli.run("forward", load_config(cfg), str(tmp_path / "o"))


_WAVY = (
    "[domain]\nresolution = {n} {n}\n[problem]\np = 2.7\n"
    "gamma = 1 + 0.3*sin(3.14159265358979*x1)*sin(3.14159265358979*x2)\n"
    "data = linear\nzeta = 0.955336489125606 0.29552020666134\n{extra}"
)


@pytest.mark.parametrize("command, n, extra, fills", [
    ("forward", 65, "", [148_813]),
    ("dn", 33, "[dn]\ndn_matrix = true\n", [25_925, 74_216]),
])
def test_factor_counts_are_pinned(tmp_path, monkeypatch, command, n, extra, fills):
    # the fill of an LU depends only on the pattern of the block it factors:
    # an assembly that stores zeros or reorders the unknowns changes it
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(splu(*a, **k)) or factors[-1])
    cfg = _write(tmp_path, "wavy.cfg", _WAVY.format(n=n, extra=extra))
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == 0
    results = _report(out)["results"]
    assert results["factorizations"] == 1
    assert results["factor_fill"] == fills[0]
    assert [lu.nnz for lu in factors] == fills


def test_write_csv_formats_mixed_cells(tmp_path):
    # floats of every kind at 17 significant digits, anything else by str,
    # the types of a column free to change between rows
    rows = [
        [0, 0.1, np.float64(1.0) / 3.0, "x1+"],
        [np.int64(7), np.float32(0.1), -0.0, True],
        [2.5, 3, float("nan"), float("-inf")],
        [0, 1e-300, np.float64(2.0), "x2-"],
    ]
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b", "c", "d"], rows)
    assert path.read_text() == (
        "a,b,c,d\n"
        "0,0.10000000000000001,0.33333333333333331,x1+\n"
        "7,0.10000000149011612,-0,True\n"
        "2.5,3,nan,-inf\n"
        "0,1e-300,2,x2-\n"
    )
