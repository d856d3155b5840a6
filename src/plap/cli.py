"""Batch experiment runner: parse a flat config, run a subcommand, write reports.

Interface::

    plap <subcommand> --config <path> [--jobs k] [--out dir]

Subcommands: ``forward`` (solve + residual + flux), ``dn`` (DN evaluation),
``linearize`` (quotient convergence report), ``fixedpoint`` (fixed point
construction report), ``recover`` (boundary jet recovery + Taylor
reconstruction + both determinant variants), ``checks`` (plane-algebra
suite), ``rescale`` (anisotropic-to-isotropic reduction comparison).

Config files are flat ``key = value`` pairs under ``[section]`` headers with
``#`` comments; unknown sections or keys are rejected with their path, and
duplicate keys are rejected with a line number.  Expressions use the grammar
of :mod:`plap.jets`.  Every key has a default, so the minimal valid config is
an empty file.

Reports: ``report.json`` (fully deterministic for a fixed config and seed;
floats are serialized with 17 significant digits so they round-trip),
``tables/*.csv``, and ``run_meta.json`` (timestamps and versions live here,
outside the deterministic report).  Exit code 0 iff every verdict passes,
1 on failed verdicts, 2 on config errors, 3 on solver errors (which are
serialized into the report).

``--jobs k`` fans the independent scenario list entries of ``recover`` (one
per entry of ``p_list``) across processes; results merge in scenario order,
so reports stay deterministic.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import criticalfree, jets, linearize, planecheck, psolve, recover
from .grid import (
    ScalarField,
    TensorField,
    build_domain,
    integrate_boundary,
    require_positive_weight,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config_text", "run", "main"]

SUBCOMMANDS = ("forward", "dn", "linearize", "fixedpoint", "recover", "checks", "rescale")

class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = ""
    # domain
    extents: tuple[float, ...] = (1.0, 1.0)
    resolution: tuple[int, ...] = (33, 33)
    origin: tuple[float, ...] = (0.0, 0.0)
    # problem
    p: float = 3.0
    gamma: str = "1"
    data: str = "expr:x1"
    zeta: tuple[float, ...] = (1.0, 0.0)
    c: float = 1.0
    # solver
    tol: float = 1e-8
    eps_reg: float = 1e-8
    max_iter: int = 60
    # linearize
    phi: str = "x2^2 - x2"
    eps_schedule: tuple[float, ...] = linearize._DEFAULT_EPS_SCHEDULE
    # fixedpoint
    fp_tol: float = 1e-10
    fp_max_iter: int = 60
    # recover
    profile: str = "1 + 0.1*x1"
    rc: float = 1.0
    rzeta: tuple[float, ...] = (0.6, 0.64, 0.48)
    z: tuple[float, ...] = (0.0, 0.0, 0.0)
    order: int = 8
    depths: tuple[float, ...] = (0.1, 0.2, 0.3)
    mode: str = "A"
    p_list: tuple[float, ...] = ()
    # checks
    n_samples: int = 1000
    # dn
    dn_matrix: bool = False
    # rescale
    rescale_tol: float = 1e-8
    # output
    out_dir: str = ""
    # run
    seed: int = 0


# (section, key) -> (config field, parser)
def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(t) for t in s.split())


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(t) for t in s.split())


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("domain", "extents"): ("extents", _floats),
    ("domain", "resolution"): ("resolution", _ints),
    ("domain", "origin"): ("origin", _floats),
    ("problem", "p"): ("p", float),
    ("problem", "gamma"): ("gamma", str),
    ("problem", "data"): ("data", str),
    ("problem", "zeta"): ("zeta", _floats),
    ("problem", "c"): ("c", float),
    ("solver", "tol"): ("tol", float),
    ("solver", "eps_reg"): ("eps_reg", float),
    ("solver", "max_iter"): ("max_iter", int),
    ("linearize", "phi"): ("phi", str),
    ("linearize", "eps_schedule"): ("eps_schedule", _floats),
    ("fixedpoint", "fp_tol"): ("fp_tol", float),
    ("fixedpoint", "fp_max_iter"): ("fp_max_iter", int),
    ("recover", "profile"): ("profile", str),
    ("recover", "rc"): ("rc", float),
    ("recover", "rzeta"): ("rzeta", _floats),
    ("recover", "z"): ("z", _floats),
    ("recover", "order"): ("order", int),
    ("recover", "depths"): ("depths", _floats),
    ("recover", "mode"): ("mode", str),
    ("recover", "p_list"): ("p_list", _floats),
    ("checks", "n_samples"): ("n_samples", int),
    ("dn", "dn_matrix"): ("dn_matrix", _bool),
    ("rescale", "rescale_tol"): ("rescale_tol", float),
    ("output", "dir"): ("out_dir", str),
    ("run", "seed"): ("seed", int),
    ("run", "command"): ("command", str),
}

_FIELD_TO_SECTION = {f: (s, k) for (s, k), (f, _) in _SCHEMA.items()}


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    seen: set[tuple[str, str]] = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not any(s == section for s, _ in _SCHEMA):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        seen.add((section, key))
        field_name, parser = _SCHEMA[(section, key)]
        try:
            values[field_name] = parser(value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config_text(fh.read())


def _validate_config(cfg: ExperimentConfig):
    if len(cfg.extents) != len(cfg.resolution):
        raise ConfigError("domain.extents and domain.resolution must have equal length")
    if len(cfg.origin) != len(cfg.extents):
        raise ConfigError("domain.origin must match domain.extents in length")
    if any(e <= 0 for e in cfg.extents):
        raise ConfigError("domain.extents must be positive")
    for p_val, name in [(cfg.p, "problem.p")] + [(q, "recover.p_list") for q in cfg.p_list]:
        if not (p_val > 1.0) or p_val == 2.0:
            raise ConfigError(f"{name}: p must avoid 2 and exceed 1, got {p_val}")
    for expr_key in ("gamma", "phi", "profile"):
        text = getattr(cfg, expr_key)
        try:
            jets.parse_expr(text)
        except jets.ParseError as exc:
            raise ConfigError(f"{_FIELD_TO_SECTION[expr_key][0]}.{expr_key}: {exc}") from exc
    if not (cfg.data.startswith("expr:") or cfg.data in ("linear", "pseudo1d")):
        raise ConfigError("problem.data must be 'expr:<expression>', 'linear', or 'pseudo1d'")
    if cfg.data.startswith("expr:"):
        try:
            jets.parse_expr(cfg.data[len("expr:"):])
        except jets.ParseError as exc:
            raise ConfigError(f"problem.data: {exc}") from exc
    if cfg.mode != "A":
        raise ConfigError(f"recover.mode must be 'A', got {cfg.mode!r} (mode B was removed)")
    if cfg.command and cfg.command not in SUBCOMMANDS:
        raise ConfigError(f"run.command must be one of {SUBCOMMANDS}")
    if len(list(cfg.eps_schedule)) < 2 or any(
        b >= a for a, b in zip(cfg.eps_schedule, cfg.eps_schedule[1:])
    ):
        raise ConfigError("linearize.eps_schedule must be strictly decreasing")


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical config serialization; re-parses to an equal config."""
    by_section: dict[str, list[str]] = {}
    for f in fields(cfg):
        if f.name not in _FIELD_TO_SECTION:
            continue
        section, key = _FIELD_TO_SECTION[f.name]
        value = getattr(cfg, f.name)
        if f.name in ("command", "out_dir") and not value:
            continue
        if isinstance(value, tuple):
            text = " ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        by_section.setdefault(section, []).append(f"{key} = {text}")
    lines = []
    for section in sorted(by_section):
        lines.append(f"[{section}]")
        lines.extend(by_section[section])
        lines.append("")
    return "\n".join(lines)


# -- deterministic JSON -----------------------------------------------------------


def _json_fragment(obj, out: list[str], indent: int):
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            out.append(json.dumps(str(x)))
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad + "  ")
            _json_fragment(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        items = list(obj.items())
        if not items:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _json_fragment(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def to_json(obj) -> str:
    out: list[str] = []
    _json_fragment(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_csv(path: str, header: list[str], rows: list[list]):
    """Write a table: floats (numpy floats too) as ``%.17g``, other cells as ``str``.

    Each row is formatted in one ``%`` operation, with a format string kept
    per tuple of cell types.
    """
    formats: dict[tuple, str] = {}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join(
                    "%.17g" if issubclass(t, (float, np.floating)) else "%s" for t in types
                ) + "\n"
            fh.write(fmt % tuple(row))


# -- field construction helpers -----------------------------------------------------


def _build_domain(cfg: ExperimentConfig):
    return build_domain(cfg.extents, cfg.resolution, origin=cfg.origin)


def _expr_field(dom, text: str) -> ScalarField:
    """An expression of the node coordinates as a field on ``dom``."""
    return ScalarField(dom, jets.eval_numpy(text, dom.coords) * np.ones(dom.shape))


def _gamma_field(cfg: ExperimentConfig, dom) -> ScalarField:
    gamma = _expr_field(dom, cfg.gamma)
    require_positive_weight(gamma)
    return gamma


def _pseudo1d_profile(cfg: ExperimentConfig, dom) -> np.ndarray:
    expr = jets.parse_expr(cfg.gamma)
    if not jets.free_variables(expr) <= {0}:
        raise ConfigError("problem.data = pseudo1d needs gamma to depend on x1 only")
    return psolve.pseudo1d_profile(expr, cfg.p, dom.axes[0], cfg.c)


def _data_field(cfg: ExperimentConfig, dom) -> tuple[ScalarField, np.ndarray | None]:
    """Boundary data field plus (when known) the exact extension for reporting."""
    if cfg.data.startswith("expr:"):
        data = _expr_field(dom, cfg.data[len("expr:"):])
        return data, data.values
    if cfg.data == "linear":
        zeta = np.asarray(cfg.zeta, dtype=float)
        if zeta.shape != (dom.n,):
            raise ConfigError("problem.zeta must match the domain dimension")
        zeta = zeta / np.linalg.norm(zeta)
        vals = sum(zeta[a] * dom.coords[a] for a in range(dom.n))
        return ScalarField(dom, vals), vals
    axis_vals = _pseudo1d_profile(cfg, dom)
    vals = np.broadcast_to(
        axis_vals.reshape((-1,) + (1,) * (dom.n - 1)), dom.shape
    ).copy()
    return ScalarField(dom, vals), vals


def _solver_cfg(cfg: ExperimentConfig) -> psolve.PSolveConfig:
    return psolve.PSolveConfig(
        p=cfg.p, eps_reg=cfg.eps_reg, tol=cfg.tol, max_iter=cfg.max_iter
    )


def _flux_tables(dom, flux: dict) -> tuple[list[str], list[list]]:
    header = ["face", *(f"x{a + 1}" for a in range(dom.n)), "flux"]
    rows: list[list] = []
    for face in dom.faces:
        name = f"x{face.axis + 1}{'+' if face.side > 0 else '-'}"
        coords = dom.face_coords(face)
        vals = flux[face.key]
        for idx in np.ndindex(vals.shape):
            rows.append([name, *(c[idx] for c in coords), vals[idx]])
    return header, rows


# -- subcommand runners --------------------------------------------------------------


def run_forward(cfg: ExperimentConfig):
    dom = _build_domain(cfg)
    gamma = _gamma_field(cfg, dom)
    f, extension = _data_field(cfg, dom)
    sol = psolve.solve_p_laplace(gamma, cfg.p, f, _solver_cfg(cfg))
    flux = psolve.boundary_flux(gamma, cfg.p, sol.u, cfg.eps_reg)
    results = {
        "iterations": sol.iterations,
        "factorizations": sol.factorizations,
        "factor_fill": sol.factor_fill,
        "krylov_iterations": sol.krylov_iterations,
        "residual_norm": sol.residual_norm,
        "min_interior_gradient": sol.min_gradient,
        "energy": sol.energy,
        "degenerate_gradient": sol.degenerate_gradient,
        "flux_balance": integrate_boundary(dom, flux),
    }
    if extension is not None:
        results["max_dev_from_extension"] = float(np.max(np.abs(sol.u.values - extension)))
    tables = {
        "residual_history": (["iteration", "residual"], [[i, r] for i, r in enumerate(sol.residual_history)]),
    }
    passed = sol.residual_norm <= cfg.tol
    return results, tables, passed


def run_dn(cfg: ExperimentConfig):
    dom = _build_domain(cfg)
    gamma = _gamma_field(cfg, dom)
    f, _ = _data_field(cfg, dom)
    scfg = _solver_cfg(cfg)
    sol = psolve.solve_p_laplace(gamma, cfg.p, f, scfg)
    flux = psolve.boundary_flux(gamma, cfg.p, sol.u, cfg.eps_reg)
    results = {
        "residual_norm": sol.residual_norm,
        "factorizations": sol.factorizations,
        "factor_fill": sol.factor_fill,
        "krylov_iterations": sol.krylov_iterations,
        "degenerate_gradient": sol.degenerate_gradient,
        "flux_balance": integrate_boundary(dom, flux),
        "pairing": psolve.boundary_pairing(f, flux),
        "interior_energy_times_p": cfg.p * psolve.p_energy(gamma, cfg.p, sol.u, 0.0),
    }
    tables = {"flux": _flux_tables(dom, flux)}
    if cfg.dn_matrix:
        matrix, index = linearize.dn_matrix(linearize.assemble_A(gamma, cfg.p, sol.u))
        tables["dn_matrix"] = (
            ["row", "col", "value"],
            [[i, j, v] for i, row in enumerate(matrix.tolist()) for j, v in enumerate(row)],
        )
        results["dn_matrix_nodes"] = len(index)
    passed = sol.residual_norm <= cfg.tol
    return results, tables, passed


def run_linearize(cfg: ExperimentConfig):
    dom = _build_domain(cfg)
    gamma = _gamma_field(cfg, dom)
    phi0, _ = _data_field(cfg, dom)
    phi = _expr_field(dom, cfg.phi)
    scfg = psolve.PSolveConfig(p=cfg.p, eps_reg=cfg.eps_reg, tol=min(cfg.tol, 1e-10), max_iter=cfg.max_iter)
    report = linearize.verify_linearization(
        gamma, cfg.p, phi0, phi, eps_schedule=cfg.eps_schedule, cfg=scfg
    )
    results = {
        "eps_schedule": list(report.eps_schedule),
        "deviations": list(report.deviations),
        "floor_index": report.floor_index,
        "floor_value": report.floor_value,
        "monotone_verdict": report.passed,
        "factorizations": report.factorizations,
        "factor_fill": report.factor_fill,
        "krylov_iterations": report.krylov_iterations,
    }
    tables = {
        "deviation_vs_eps": (
            ["eps", "deviation"],
            [[e, d] for e, d in zip(report.eps_schedule, report.deviations)],
        )
    }
    return results, tables, report.passed


def run_fixedpoint(cfg: ExperimentConfig):
    dom = _build_domain(cfg)
    gamma = _gamma_field(cfg, dom)
    zeta = np.asarray(cfg.zeta, dtype=float)
    zeta = zeta / np.linalg.norm(zeta)
    fcfg = criticalfree.FixedPointConfig(tol=cfg.fp_tol, max_iter=cfg.fp_max_iter)
    rep = criticalfree.fixed_point_u0(gamma, cfg.p, zeta, fcfg)
    results = {
        "iterations": rep.iterations,
        "factorizations": rep.factorizations,
        "factor_fill": rep.factor_fill,
        "krylov_iterations": rep.krylov_iterations,
        "converged": rep.converged,
        "sup_grad_R": rep.sup_grad_R,
        "min_grad_u0": rep.min_grad_u0,
        "residual_norm": rep.residual_norm,
    }
    tables = {
        "iterate_history": (
            ["iteration", "sup_grad_V"],
            [[i, v] for i, v in enumerate(rep.sup_grad_history)],
        )
    }
    passed = (
        rep.converged
        and rep.sup_grad_R <= criticalfree.BALL_RADIUS
        and rep.min_grad_u0 > 0.5
        and rep.residual_norm < criticalfree.RESIDUAL_TOL
    )
    return results, tables, passed


def _recover_scenario(args):
    cfg, p_val = args
    sc = recover.Scenario(
        profile=cfg.profile,
        c=cfg.rc,
        zeta=np.asarray(cfg.rzeta, dtype=float),
        p=p_val,
        z=np.asarray(cfg.z, dtype=float),
        order=cfg.order,
    )
    # the true profile at the depths first, so a bad depth fails before any jet work
    depths = np.asarray(cfg.depths, dtype=float)
    s0 = float(sc.zeta @ sc.z)
    truth = np.array(
        [jets.eval_point(sc.profile, (s0 - sc.zeta[0] * s,)) for s in depths]
    )
    gamma_jet, u0_jet = recover.oracle_tilted_profile(sc)
    bj = recover.synthesize_measurements(gamma_jet, u0_jet, p_val)
    state = recover.run_recovery(bj)

    def relerr(rec, true):
        return abs(rec - true) / max(abs(true), 1.0)

    gamma_rows = []
    max_rel = 0.0
    for m in range(0, cfg.order - 1):
        true = gamma_jet.coefficient((m, 0, 0))
        rec = state.gamma.coefficient((m, 0, 0))
        gamma_rows.append([m, true, rec, abs(rec - true)])
        max_rel = max(max_rel, relerr(rec, true))
    u_rows = []
    for m in range(1, cfg.order):
        true = u0_jet.coefficient((m, 0, 0))
        rec = state.u0.coefficient((m, 0, 0))
        u_rows.append([m, true, rec, abs(rec - true)])
        max_rel = max(max_rel, relerr(rec, true))

    recon = recover.taylor_reconstruct(state, depths)
    grad0 = np.array(
        [u0_jet.derivative((1, 0, 0)), u0_jet.derivative((0, 1, 0)), u0_jet.derivative((0, 0, 1))]
    )
    # determinant variants at the scenario point, with the tangential slope on
    # axis 1 and the third row on the orthogonal axis 2
    grad_rot = np.array([grad0[0], float(np.hypot(grad0[1], grad0[2])), 0.0])
    theta = recover.theta_matrix(gamma_jet.value, grad_rot, p_val)
    gauge_max = max(state.gauge_residuals) if state.gauge_residuals else 0.0
    scenario_results = {
        "p": p_val,
        "max_rel_error": max_rel,
        "max_gauge_residual": gauge_max,
        "gamma_normal_derivatives": [
            state.gamma.derivative((m, 0, 0)) for m in range(cfg.order - 1)
        ],
        "u0_normal_derivatives": [
            state.u0.derivative((m, 0, 0)) for m in range(1, cfg.order)
        ],
        "conds": list(state.conds),
        "order0": {
            "gamma_z": state.order0.gamma_z,
            "normal_slope": state.order0.normal_slope,
            "grad_norm": state.order0.grad_norm,
            "consistency": state.order0.consistency,
        },
        "theta_det_direct": recover.theta_det_direct(theta),
        "theta_det_closed_form": recover.theta_det_closed_form(gamma_jet.value, grad_rot, p_val),
        "reconstruction_max_err": float(np.max(np.abs(recon - truth))),
        "passed": bool(max_rel < 1e-7 and gauge_max < 1e-8),
    }
    recon_rows = [[s, r, t, abs(r - t)] for s, r, t in zip(depths, recon, truth)]
    gauge_rows = [
        [m, k, z]
        for m, by_degree in enumerate(state.gauge_by_degree, start=1)
        for k, z in enumerate(by_degree)
    ]
    return scenario_results, gamma_rows, u_rows, recon_rows, gauge_rows


def run_recover(cfg: ExperimentConfig, jobs: int = 1):
    p_values = list(cfg.p_list) if cfg.p_list else [cfg.p]
    tasks = [(cfg, p_val) for p_val in p_values]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_recover_scenario, tasks))
    else:
        outcomes = [_recover_scenario(t) for t in tasks]
    scenarios = []
    gamma_rows, u_rows, recon_rows, gauge_rows = [], [], [], []
    for (res, grow, urow, rrow, zrow), p_val in zip(outcomes, p_values):
        scenarios.append(res)
        gamma_rows += [[p_val, *row] for row in grow]
        u_rows += [[p_val, *row] for row in urow]
        recon_rows += [[p_val, *row] for row in rrow]
        gauge_rows += [[p_val, *row] for row in zrow]
    canonical = recover.theta_matrix(1.0, np.array([1.0, 0.0, 0.0]), 3.0)
    results = {
        "scenarios": scenarios,
        "canonical_theta_det_direct": recover.theta_det_direct(canonical),
        "canonical_theta_det_closed_form": recover.theta_det_closed_form(1.0, np.array([1.0, 0.0, 0.0]), 3.0),
        "mode": cfg.mode,
    }
    tables = {
        "gamma_jets": (["p", "m", "true", "recovered", "abs_err"], gamma_rows),
        "u0_jets": (["p", "m", "true", "recovered", "abs_err"], u_rows),
        "reconstruction": (["p", "depth", "partial_sum", "truth", "abs_err"], recon_rows),
        "gauge_residual": (["p", "order", "tangential_degree", "max_abs_Z"], gauge_rows),
    }
    passed = all(s["passed"] for s in scenarios)
    return results, tables, passed


def run_checks(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples

    # determinant identity on random unit vectors and p
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    ps = rng.uniform(1.0 + 1e-6, 10.0, n)
    ps[np.abs(ps - 2.0) < 1e-6] = 2.5
    det_dev = max(
        abs(planecheck.det_identity_2d((np.cos(t), np.sin(t)), p) - (p - 1.0))
        for t, p in zip(angles, ps)
    )

    # projector idempotence
    vs = rng.normal(size=(n, 2))
    vs = vs[np.linalg.norm(vs, axis=1) > 1e-6]
    proj_dev = max(
        float(np.max(np.abs(planecheck.projector(v) @ planecheck.projector(v) - planecheck.projector(v))))
        for v in vs[:200]
    )

    # identity residuals: F = I passes; eta != 1 violates the identity for
    # every p and alpha (the complement-eigenspace constraint is eta = 1)
    passes, fails = [], []
    for k in range(50):
        v = rng.normal(size=2)
        pmat = planecheck.projector(v)
        p_val = float(ps[k])
        pair = planecheck.ProjectorPair(F=np.eye(2), P=pmat, alpha=1.0, p=p_val)
        passes.append(planecheck.fp_identity_residuals(pair).max())
        theta = 1.0 + rng.uniform(0.5, 1.5)
        f_bad = theta * pmat + 1.5 * (np.eye(2) - pmat)
        pair_bad = planecheck.ProjectorPair(F=f_bad, P=pmat, alpha=1.0, p=p_val)
        fails.append(planecheck.fp_identity_residuals(pair_bad).max())
    identity_pass_residual = max(passes)
    identity_fail_floor = min(fails)

    # theta/eta solve
    p_samples = np.concatenate([np.linspace(1.05, 1.95, 10), np.linspace(2.05, 9.5, 10)])
    theta_ok = all(planecheck.solve_theta_eta(1.0, p) == (1.0, 1.0) for p in p_samples)
    alphas = rng.uniform(0.1, 3.0, 100)
    alphas = alphas[np.abs(alphas - 1.0) > 1e-3][:50]
    inconsistent_ok = all(
        planecheck.solve_theta_eta(a, p) is None for a, p in zip(alphas, p_samples[: len(alphas)])
    )

    # energy pairing on a small forward solve
    dom = _build_domain(cfg)
    gamma = _gamma_field(cfg, dom)
    f, _ = _data_field(cfg, dom)
    pairing = planecheck.energy_pairing_check(gamma, cfg.p, f, _solver_cfg(cfg))

    results = {
        "det_identity_max_dev": det_dev,
        "projector_idempotence_max_dev": proj_dev,
        "identity_pass_residual": identity_pass_residual,
        "identity_fail_floor": identity_fail_floor,
        "theta_eta_alpha1_ok": theta_ok,
        "theta_eta_inconsistent_ok": inconsistent_ok,
        "pairing_interior": pairing.interior_energy,
        "pairing_boundary": pairing.boundary_pairing,
        "pairing_rel_gap": pairing.rel_gap,
    }
    passed = (
        det_dev < 1e-12
        and proj_dev < 1e-14
        and identity_pass_residual < 1e-12
        and identity_fail_floor > 1e-3
        and theta_ok
        and inconsistent_ok
        and pairing.rel_gap < 5e-2
    )
    tables = {}
    return results, tables, passed


def run_rescale(cfg: ExperimentConfig):
    dom = _build_domain(cfg)
    gamma = _gamma_field(cfg, dom)
    zeta = np.asarray(cfg.zeta, dtype=float)
    rescaled = linearize.rescale_translation_invariant(gamma, zeta, cfg.p, tol=cfg.tol)
    axis = rescaled.axis

    # anisotropic side: A = gamma (I + (p-2) zeta zeta^T) via the exact base solution
    u0_vals = sum(zeta[a] * dom.coords[a] for a in range(dom.n))
    a_tensor = linearize.assemble_A(gamma, cfg.p, ScalarField(dom, u0_vals))
    phi = _expr_field(dom, cfg.phi)
    flux_aniso = linearize.dn_linear(a_tensor, phi)

    # isotropic side on the stretched box: same node values for weight and data
    new_dom = rescaled.domain
    iso_tensor = rescaled.weight.values[..., None, None] * np.eye(new_dom.n)
    flux_iso = linearize.dn_linear(
        TensorField(new_dom, iso_tensor), ScalarField(new_dom, np.array(phi.values))
    )
    devs = {}
    for face in dom.faces:
        scale = rescaled.flux_scale if face.axis == axis else 1.0
        devs[f"x{face.axis + 1}{'+' if face.side > 0 else '-'}"] = float(
            np.max(np.abs(flux_aniso[face.key] - scale * flux_iso[face.key]))
        )
    max_dev = max(devs.values())
    results = {
        "stretch": rescaled.stretch,
        "flux_scale": rescaled.flux_scale,
        "face_deviations": devs,
        "max_deviation": max_dev,
    }
    tables = {}
    passed = max_dev < cfg.rescale_tol
    return results, tables, passed


_RUNNERS = {
    "forward": run_forward,
    "dn": run_dn,
    "linearize": run_linearize,
    "fixedpoint": run_fixedpoint,
    "checks": run_checks,
    "rescale": run_rescale,
}


def run(command: str, cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    """Execute a subcommand and write report.json / tables / run_meta.json."""
    if cfg.command and cfg.command != command:
        raise ConfigError(
            f"run.command = {cfg.command!r} does not match the CLI subcommand {command!r}"
        )
    cfg = replace(cfg, command=command)
    os.makedirs(out_dir, exist_ok=True)
    report = {"command": command, "config": config_to_text(cfg)}
    exit_code = 0
    tables: dict = {}
    try:
        if command == "recover":
            results, tables, passed = run_recover(cfg, jobs=jobs)
        else:
            results, tables, passed = _RUNNERS[command](cfg)
        report["results"] = results
        report["pass"] = bool(passed)
        if not passed:
            exit_code = 1
    except (psolve.NonConvergence, psolve.ProfileNotResolved, criticalfree.BallEscape,
            linearize.DegenerateGradient, linearize.DegenerateInput, linearize.SegmentDegenerate,
            recover.RecoveryError, jets.JetError, ValueError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["pass"] = False
        exit_code = 3
    with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
        fh.write(to_json(report))
    if tables:
        tdir = os.path.join(out_dir, "tables")
        os.makedirs(tdir, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(os.path.join(tdir, f"{name}.csv"), header, rows)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="ascii") as fh:
        fh.write(to_json(meta))
    return exit_code


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    the tests and scripts call :func:`main` many times in one interpreter."""
    parser = argparse.ArgumentParser(prog="plap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.out_dir or f"plap_out_{args.command}"
    try:
        return run(args.command, cfg, out_dir, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
