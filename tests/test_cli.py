import concurrent.futures
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


def test_p_equals_two_rejected(tmp_path, capsys):
    # the runner that reads p refuses it: problem.p for a PDE subcommand,
    # recover.p_list (else problem.p) for recover
    cases = [("forward", "[problem]\np = 2\n", "problem.p"),
             ("recover", "[problem]\np = 2\n", "problem.p"),
             ("recover", "[recover]\np_list = 3 2\n", "recover.p_list")]
    for command, text, key in cases:
        cfg = _write(tmp_path, "two.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{key}: p must avoid 2" in capsys.readouterr().err


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


def test_eps_schedule_must_decrease(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", "[linearize]\neps_schedule = 0.01 0.1\n")
    assert main(["linearize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "linearize.eps_schedule must be strictly decreasing" in capsys.readouterr().err


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
    cfg_path = _write(tmp_path, "c.cfg", "[domain]\nresolution = 9 9\n")
    out = str(tmp_path / "out")
    assert main(["checks", "--config", cfg_path, "--out", out]) == 0
    report = _report(out)
    echoed = parse_config_text(report["config"])
    assert echoed == load_config(cfg_path)


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
    assert report["error"]["type"] == "InvalidWeight"
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
    assert report["error"]["type"] == "InvalidWeight"
    assert message in report["error"]["message"]


@pytest.mark.parametrize(
    "gamma, p, error, message",
    [
        # positive at the five nodes, negative between them
        ("0.5 + cos(8*3.14159265358979*x1)", "3", "InvalidWeight", "strictly positive"),
        # positive, but so small that the slope overflows
        ("1e-300*(1 + x1)", "1.2", "ProfileNotResolved", "not finite"),
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
            "recover",
            "[recover]\nprofile = 1/(x1 + 0.18)\nrzeta = 0.6 0.64 0.48\norder = 5\ndepths = 0.3\n",
            "JetDomainError",
        ),
    ],
    ids=["profile_pole_at_depth"],
)
def test_bad_value_serialized_as_error(tmp_path, command, text, error):
    cfg = _write(tmp_path, "bad.cfg", text)
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == 3
    report = _report(out)
    assert report["pass"] is False
    assert report["error"]["type"] == error


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
    # nor does the segment integral of dJ, which takes the same rule
    code = (
        "import sys, plap.linearize as lin; "
        "print(lin.segment_integral_dJ([1.0, 0.0], [1.0, 0.5], 1.5).shape == (2, 2), 'scipy.integrate' in sys.modules)"
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


def test_report_does_not_depend_on_blas_threads(tmp_path):
    import subprocess
    import sys

    # the seed-0 fixedpoint129 benchmark task: GMRES runs on every Picard
    # step after the first, on vectors long enough for a threaded BLAS to
    # split its sums; each thread count gets its own interpreter, since the
    # BLAS reads the variable once, at load
    cfg = _write(tmp_path, "fp.cfg", "[domain]\nresolution = 129 129\n[problem]\np = 1.5\n"
                 "gamma = 1 + 0.05*x1\nzeta = 1 0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "plap.cli", "fixedpoint", "--config", cfg, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        reports.append((out / "report.json").read_bytes())
    assert json.loads(reports[0])["results"]["krylov_iterations"] > 0
    assert reports[0] == reports[1]


_LOAD_AND_RUN = """\
import json, sys
import plap.cli

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("plap", "scipy", "concurrent"))

command, config, out, *configs = sys.argv[1:]
for path in configs:
    plap.cli.load_config(path)
before = loaded()
code = plap.cli.main([command, "--config", config, "--out", out])
print(json.dumps([before, code, [m for m in loaded() if m not in before]]))
"""


@pytest.mark.parametrize(
    "command, added",
    [("recover", ["plap.recover"]), ("forward", ["plap.grid", "plap.psolve"])],
)
def test_subcommands_load_only_the_modules_they_run(tmp_path, command, added):
    import subprocess
    import sys

    # config parsing loads numpy and the expression grammar only; each run
    # then imports the plap modules it drives, and recover solves no PDE
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    paths = sorted(str(p) for p in configs.glob("*.cfg"))
    assert len(paths) == 7
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _LOAD_AND_RUN, command, str(configs / f"{command}.cfg"),
         str(tmp_path / "out"), *paths],
        env=env, capture_output=True, text=True, check=True,
    )
    before, code, new = json.loads(out.stdout)
    assert before == ["plap", "plap.cli", "plap.jets"]
    assert code == 0
    assert [m for m in new if m.startswith("plap")] == added
    if command == "recover":  # scipy, which a PDE run loads, imports concurrent.futures itself
        assert new == added


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


def test_recover_batch_error_is_the_first_failing_p(tmp_path, monkeypatch):
    # the sample p values 1.3, 1.7, 2.5, 3 and 6 have condition numbers 2.06,
    # 1.42, 2.68, 4.56 and 41.46: at a limit of 2.5 the last three fail, so
    # the batch raises, the p values rerun one at a time, and the report
    # names the third p's error, as a one-at-a-time run does
    sample = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "recover.cfg"
    monkeypatch.setattr(recover, "_COND_LIMIT", 2.5)
    batches = []
    run_batch = cli._recover_batch

    def spy(cfg, p_values):
        batches.append(list(p_values))
        return run_batch(cfg, p_values)

    monkeypatch.setattr(cli, "_recover_batch", spy)
    out = str(tmp_path / "o")
    assert main(["recover", "--config", str(sample), "--out", out]) == 3
    assert batches == [[1.3, 1.7, 2.5, 3.0, 6.0], [1.3], [1.7], [2.5]]
    sc = recover.Scenario(
        profile="exp(0.2*x1)", c=1.0, zeta=np.array([0.48, -0.6, 0.64]), p=2.5,
        z=np.array([0.1, -0.3, 0.2]), order=8,
    )
    with pytest.raises(recover.IllConditioned) as one:
        recover.run_recovery(recover.synthesize_measurements(*recover.oracle_tilted_profile(sc), 2.5))
    assert _report(out)["error"] == {"type": "IllConditioned", "message": str(one.value)}
    assert "condition number 2.677e+00 exceeds" in str(one.value)


def _report_files(out: Path) -> dict[str, bytes]:
    """report.json and every table of a run, by relative path."""
    paths = [out / "report.json", *sorted((out / "tables").iterdir())]
    return {str(path.relative_to(out)): path.read_bytes() for path in paths}


@pytest.mark.parametrize("order", [8, 16])
def test_recover_sample_cold_and_warm_runs_identical(tmp_path, order):
    # the first run builds the jet tables (the slice-range and batch ones
    # included) from empty caches, the second reads them
    sample = (Path(__file__).resolve().parents[1] / "scripts" / "configs" / "recover.cfg").read_text()
    cfg = _write(tmp_path, "r.cfg", sample.replace("\norder = 8\n", f"\norder = {order}\n"))
    jets._product_table.cache_clear()
    jets._division_levels.cache_clear()
    jets._batch_levels.cache_clear()
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: n_cpus)
    chunks = []

    def batch(args):
        chunks.append(args[1])
        return [({"passed": True}, [], [], [], [])] * len(args[1])

    monkeypatch.setattr(cli, "_recover_scenario", batch)
    cfg = ExperimentConfig(p_list=tuple(2.5 + 0.5 * k for k in range(n_tasks)))
    results, _, passed = cli.run_recover(cfg, jobs=jobs)
    assert passed and len(results["scenarios"]) == n_tasks
    assert _SerialPool.sizes == expected
    # each worker runs one contiguous chunk of the p list as one batch
    assert len(chunks) == (expected[0] if expected else 1)
    assert [p for chunk in chunks for p in chunk] == list(cfg.p_list)


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


@pytest.mark.parametrize(
    "command, text, key",
    [
        # unchecked, inf reaches jet_pow's integer exponent test as an OverflowError
        ("recover", "[recover]\norder = 4\ndepths = 0.1\np_list = 3 inf\n", "recover.p_list"),
        # a forward solve at p = inf warns, then fails on a nan residual
        ("forward", "[domain]\nresolution = 9 9\n[problem]\np = inf\n", "problem.p"),
        # three numpy warnings, then IllConditioned "condition number inf" (exit 3)
        ("recover", "[recover]\norder = 4\nrc = inf\n", "recover.rc"),
        # the solve stops with "line search stalled at residual 0.000e+00" (exit 3)
        ("forward", "[domain]\nresolution = 9 9\n[solver]\ntol = nan\n", "solver.tol"),
    ],
    ids=["p_list", "p", "rc_inf", "tol_nan"],
)
def test_non_finite_float_is_config_error(tmp_path, capsys, command, text, key):
    cfg = _write(tmp_path, "nf.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, key", [sk for sk, (_, parser) in cli._SCHEMA.items() if parser in (float, cli._floats)]
)
def test_every_float_key_rejects_non_finite_values(section, key):
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"^{section}.{key} must be finite"):
            parse_config_text(f"[{section}]\n{key} = {bad}\n")


_GRID = "[domain]\nresolution = 9 9\n"
_GRID_3D = "[domain]\nextents = 1 1 1\nresolution = 5 5 5\norigin = 0 0 0\n"


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("recover", "[recover]\norder = 2\n", "recover.order"),
        ("recover", "[recover]\ndepths = 0\n", "recover.depths"),
        ("recover", "[recover]\nz = 0 0\n", "recover.z"),
        ("recover", "[recover]\nrzeta = 0.6 0.64\n", "recover.rzeta"),
        ("recover", "[recover]\nrzeta = 1 0 0\n", "recover.rzeta"),
        ("recover", "[recover]\nrzeta = 0 0.6 0.8\n", "recover.rzeta"),
        ("recover", "[recover]\nrc = -1\n", "recover.rc"),
        ("recover", "[recover]\nprofile = 0-1+0*x1\n", "recover.profile"),
        ("recover", "[recover]\nprofile = 1 + x2\n", "recover.profile"),
        ("forward", "[domain]\nresolution = 2 2\n", "domain.resolution"),
        (
            "forward",
            "[domain]\nextents = 1 1 1 1\nresolution = 3 3 3 3\norigin = 0 0 0 0\n",
            "domain.resolution",
        ),
        ("forward", _GRID + "[problem]\ngamma = 1 + x3\n", "problem.gamma"),
        ("forward", _GRID + "[problem]\ndata = expr:x3\n", "problem.data"),
        ("forward", _GRID + "[solver]\ntol = 0\n", "solver.tol"),
        ("linearize", _GRID + "[linearize]\nphi = x3\n", "linearize.phi"),
        ("fixedpoint", _GRID_3D, "problem.zeta"),
        ("rescale", _GRID_3D, "problem.zeta"),
        ("rescale", _GRID + "[problem]\nzeta = 0.6 0.8\n", "problem.zeta"),
        ("rescale", _GRID + "[problem]\ngamma = 1 + x1\nzeta = 1 0\n", "problem.gamma"),
    ],
    ids=[
        "order_2", "depth_0", "z_2d", "rzeta_2d", "rzeta_normal_only", "rzeta_tangential_only",
        "rc_negative", "profile_negative", "profile_x2", "resolution_2", "four_axes",
        "gamma_x3", "data_x3", "tol_zero", "phi_x3", "fixedpoint_3d",
        "rescale_3d", "rescale_tilted_zeta", "rescale_gamma_varies",
    ],
)
def test_value_a_run_cannot_take_is_config_error(tmp_path, capsys, command, text, key):
    # each of these once ended in a ValueError traceback and exit 1, the
    # code of a failed verdict; the subcommand that reads the key refuses it
    cfg = _write(tmp_path, "bad.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


_SMALL_RECOVER = "[recover]\norder = 4\ndepths = 0.1\np_list = 3.0\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("recover", _SMALL_RECOVER + "[checks]\nn_samples = 1\n"),
        ("recover", _SMALL_RECOVER + "[problem]\nzeta = 0 0\n"),
        ("recover", _SMALL_RECOVER + "[problem]\np = 2\n"),
        ("recover", _SMALL_RECOVER + "[domain]\nextents = -1 1\n"),
        ("forward", _GRID + "[linearize]\neps_schedule = 0.1 0.2\n"),
        ("forward", _GRID + "[recover]\nmode = B\n"),
        # the check that gamma is constant along zeta has its own tolerance
        ("rescale", _GRID + "[problem]\nzeta = 1 0\n[solver]\ntol = -1\n"),
    ],
    ids=["n_samples", "zeta_zero", "p_beside_p_list", "extents_negative", "eps_schedule", "mode_b",
         "rescale_tol"],
)
def test_bad_value_of_an_ignored_key_is_no_error(tmp_path, command, text):
    # only the runner that reads a key checks its range
    cfg = _write(tmp_path, "ignored.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_recover_order_is_bounded_by_its_product_table(tmp_path, capsys):
    # the full 3-variable product table has C(order + 6, 6) triples: order 24
    # (593,775) is accepted, and the refusal costs no jet work at any order
    cli._validate_recover(parse_config_text("[recover]\norder = 24\n"))
    for order, triples in [(25, "736,281"), (60, "90,858,768")]:
        cfg = _write(tmp_path, "deep.cfg", f"[recover]\norder = {order}\n")
        assert main(["recover", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"recover.order = {order} needs a product table of {triples} triples" in err
        assert "above the limit of 600,000" in err


@pytest.mark.parametrize(
    "section, key", [("solver", "max_iter"), ("fixedpoint", "fp_tol"), ("fixedpoint", "fp_max_iter"),
                     ("rescale", "rescale_tol"), ("solver", "eps_reg"), ("run", "command")],
)
def test_removed_solver_settings_are_refused(tmp_path, capsys, section, key):
    # the Newton and Picard budgets, the Picard tolerance, the rescale
    # verdict's bound and the flux regularization are module constants, and
    # the subcommand is the command line's; the report no longer echoes them
    cfg = _write(tmp_path, "old.cfg", f"[{section}]\n{key} = 0\n")
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    known = any(s == section for s, _ in cli._SCHEMA)
    expected = f"unknown key {section}.{key}" if known else f"unknown section [{section}]"
    assert expected in capsys.readouterr().err
    assert f"{key} = " not in config_to_text(ExperimentConfig())


def test_overflowing_flux_is_solver_error(tmp_path):
    # at p = 1e6 and |grad u| = 2 the flux overflows; at p = 400 and
    # |grad u| = 3 it is finite, near 1e190, but its squares are not
    cases = [("1e6", "2*x1", "residual is nan after 0 iterations: the flux"),
             ("400", "3*x1", "Newton Jacobian: a GMRES vector's 2-norm is inf")]
    for p, data, message in cases:
        cfg = _write(tmp_path, "big.cfg", f"{_GRID}[problem]\np = {p}\ndata = expr:{data}\n")
        out = str(tmp_path / f"o{p}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["forward", "--config", cfg, "--out", out]) == 3
        error = _report(out)["error"]
        assert error["type"] == "NonConvergence" and error["message"].startswith(message)
    # |grad u| = 1 keeps the flux at 1 for any p
    cfg = _write(tmp_path, "one.cfg", f"{_GRID}[problem]\np = 1e6\n")
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "one")]) == 0


@pytest.mark.parametrize("n_samples", [0, 10])
def test_too_few_check_samples_is_config_error(tmp_path, capsys, n_samples):
    # the identity checks read the first 50 sampled p values
    cfg = _write(tmp_path, "c.cfg", f"[checks]\nn_samples = {n_samples}\n")
    assert main(["checks", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "checks.n_samples must be at least 50" in capsys.readouterr().err
    assert parse_config_text("[checks]\nn_samples = 50\n").n_samples == 50


@pytest.mark.parametrize("zeta", ["0 0", "inf 0", "nan 1"])
def test_degenerate_zeta_is_config_error(tmp_path, capsys, zeta):
    # unchecked, a zero direction is divided by its zero norm before the solve
    cfg = _write(tmp_path, "z.cfg", f"[domain]\nresolution = 9 9\n[problem]\ndata = linear\nzeta = {zeta}\n")
    assert main(["dn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    expected = "nonzero" if zeta == "0 0" else "finite"
    assert f"problem.zeta must be {expected}" in capsys.readouterr().err


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


_WAVY = (
    "[domain]\nresolution = {n} {n}\n[problem]\np = 2.7\n"
    "gamma = 1 + 0.3*sin(3.14159265358979*x1)*sin(3.14159265358979*x2)\n"
    "data = linear\nzeta = 0.955336489125606 0.29552020666134\n{extra}"
)


@pytest.mark.parametrize("command, n, extra, fills", [
    ("forward", 65, "", [[21_664, 44_566, 23_016]]),
    ("dn", 33, "[dn]\ndn_matrix = true\n", [[3_516, 7_600, 4_192], [57_851]]),
])
def test_factor_counts_are_pinned(tmp_path, monkeypatch, command, n, extra, fills):
    # the fill of an LU depends only on the pattern of the block it factors:
    # an assembly that stores zeros or reorders the unknowns changes it.
    # ``fills`` holds one SuperLU.nnz per level of each factorization: the
    # isotropic operator splits into 3 levels, the DN matrix's A is one
    factors = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factors.append(splu(*a, **k)) or factors[-1])
    cfg = _write(tmp_path, "wavy.cfg", _WAVY.format(n=n, extra=extra))
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == 0
    results = _report(out)["results"]
    assert results["factorizations"] == 1
    assert results["factor_fill"] == sum(fills[0])
    assert [lu.nnz for lu in factors] == [nnz for levels in fills for nnz in levels]


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
