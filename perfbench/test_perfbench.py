"""Checks of the benchmark itself: seeded inputs and exactly repeating counts.

Run from the root of the source tree (takes about a minute)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys

import pytest

import run
import tracing
import workloads

SAMPLES = ("forward", "dn", "checks", "fixedpoint", "linearize", "recover", "rescale")


def _all_tasks(seed):
    return {t.name: t for w in workloads.WORKLOADS for t in workloads.generate(w, seed)}


def test_seed0_reproduces_the_sample_configs():
    tasks = workloads.sample_configs(0)
    for name in SAMPLES:
        committed = run.ROOT / "scripts" / "configs" / f"{name}.cfg"
        if not committed.is_file():
            pytest.skip("sample configs not present")
        assert tasks[name].text == committed.read_text(encoding="ascii"), name


def test_seed_fixes_inputs_and_changes_every_config():
    base = _all_tasks(0)
    again, other = _all_tasks(5), _all_tasks(5)
    assert again == other
    for name, task in base.items():
        assert other[name].text != task.text, name
    assert set(workloads.sample_configs(0)) == set(SAMPLES)


def _traced_pass(workload, seed, tmp_path):
    tasks = workloads.generate(workload, seed)
    for task in tasks:
        (tmp_path / f"{task.name}.cfg").write_text(task.text, encoding="ascii")
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import plap.cli

    runner = run.Runner(plap.cli, tmp_path, tmp_path / "out")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for task in tasks:
            runner.run_task(task, 0)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    metrics = tracing.layer_metrics(tracer.take())
    return {name: metrics[name] for name in tracing.EXACT}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload, tmp_path):
    first = _traced_pass(workload, 0, tmp_path)
    second = _traced_pass(workload, 0, tmp_path)
    assert first == second
    if workload == "pde_solves":
        assert first["linearize.factor_calls"] >= 128  # one LU per boundary bump at 33^2


def test_install_wraps_every_namespace_and_uninstall_restores():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import scipy.sparse.linalg as spla

    import plap.jets
    import plap.recover

    originals = (plap.jets.jet_div, plap.recover.jet_div, spla.splu)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert plap.recover.jet_div.__wrapped__ is originals[0]
        assert plap.jets.jet_div.__wrapped__ is originals[0]
        assert spla.splu is not originals[2]
    finally:
        tracer.uninstall()
    assert (plap.jets.jet_div, plap.recover.jet_div, spla.splu) == originals


def test_layer_metrics_of_synthetic_spans():
    span = tracing.Span
    spans = [
        span("psolve.solve_p_laplace", "", 0.0, 10.0, -1, "t", {"iterations": 3}),
        span("splu", "", 1.0, 3.0, 0, "t", {"fill_nnz": 7}),
        span(tracing.OVERHEAD, "", 3.0, 4.0, 0, "t"),
        span("splu.solve", "", 4.0, 4.5, 0, "t"),
        span("jets.jet_mul", "n3o8", 5.0, 6.0, -1, "t"),
        span("jets.jet_pow", "n3o8", 6.0, 9.0, -1, "t"),
        span("jets.jet_mul", "n3o8", 7.0, 8.0, 5, "t"),
    ]
    m = tracing.layer_metrics(spans)
    assert m["psolve.solve_s"] == 9.0  # tracer bookkeeping excluded
    assert m["psolve.self_s"] == 6.5
    assert (m["psolve.factor_calls"], m["psolve.factor_s"], m["psolve.backsolve_s"]) == (1, 2.0, 0.5)
    assert (m["psolve.fill_nnz"], m["psolve.newton_iters"]) == (7, 3)
    assert (m["jets.mul_calls.n3o8"], m["jets.mul_s.n3o8"]) == (2, 2.0)
    assert m["jets.series_s"] == 2.0
    assert m["jets.s"] == 4.0  # the nested jet_mul counts once
