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
an empty file.  Loading checks the form of a config only: known keys,
values that parse, finite numbers.

Reports: ``report.json`` (fully deterministic for a fixed config and seed;
floats are serialized with 17 significant digits so they round-trip),
``tables/*.csv``, and ``run_meta.json`` (timestamps and versions live here,
outside the deterministic report).  Exit code 0 iff every verdict passes,
1 on failed verdicts, 2 on config errors, 3 on solver errors (which are
serialized into the report).  Each range check belongs to the subcommand
that reads the key: it refuses, as a config error that names the key, a
value it cannot take, so a key it ignores never refuses its config.

``recover`` runs all entries of ``p_list`` as one lockstep batch (see
:mod:`plap.recover`); ``--jobs k`` splits the list into k contiguous
chunks, one batch per worker process.  Results merge in p order, so
reports stay deterministic.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

# config parsing needs only the expression grammar; each runner and field
# helper imports the modules it drives when it is called, so ``recover``
# never loads the PDE stack and no run loads what it does not use
from . import jets

if TYPE_CHECKING:
    import argparse

    from .grid import ScalarField

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config_text", "run", "main"]

SUBCOMMANDS = ("forward", "dn", "linearize", "fixedpoint", "recover", "checks", "rescale")
# run_checks tests the projector identities on the first this many sampled p
_IDENTITY_SAMPLES = 50
# run_rescale passes when every face's flux deviation is below this
_RESCALE_TOL = 1e-8
# the most triples a recovery's full 3-variable product table, C(order + 6, 6)
# of them, may hold: order 24, the deepest order measured (1.4 s, 186 MB),
# needs 593,775, and order 25 would need 736,281
_MAX_PRODUCT_TRIPLES = 600_000

class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
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
    # linearize
    phi: str = "x2^2 - x2"
    # 10^-1 down to 10^-3 in half decades
    eps_schedule: tuple[float, ...] = (0.1, 0.03162277660168379, 0.01, 0.0031622776601683794, 0.001)
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
    ("linearize", "phi"): ("phi", str),
    ("linearize", "eps_schedule"): ("eps_schedule", _floats),
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
    ("output", "dir"): ("out_dir", str),
    ("run", "seed"): ("seed", int),
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
    """The checks at load: every number finite, every expression parsed.  A
    range check belongs to the runner that reads the key, so a key a
    subcommand ignores never refuses its config."""
    for (section, key), (field_name, parser) in _SCHEMA.items():
        if parser is float or parser is _floats:
            value = getattr(cfg, field_name)
            if not all(map(math.isfinite, value if parser is _floats else (value,))):
                raise ConfigError(f"{section}.{key} must be finite, got {value}")
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


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical config serialization; re-parses to an equal config."""
    by_section: dict[str, list[str]] = {}
    for f in fields(cfg):
        if f.name not in _FIELD_TO_SECTION:
            continue
        section, key = _FIELD_TO_SECTION[f.name]
        value = getattr(cfg, f.name)
        if f.name == "out_dir" and not value:
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


def _check_p(p_val: float, key: str):
    if not (p_val > 1.0) or p_val == 2.0:
        raise ConfigError(f"{key}: p must avoid 2 and exceed 1, got {p_val}")


def _pde_problem(cfg: ExperimentConfig):
    """The grid and weight field of a PDE subcommand, whose ``problem.p`` it
    checks first."""
    _check_p(cfg.p, "problem.p")
    dom = _build_domain(cfg)
    return dom, _gamma_field(cfg, dom)


def _build_domain(cfg: ExperimentConfig):
    from .grid import build_domain

    if len(cfg.extents) != len(cfg.resolution):
        raise ConfigError("domain.extents and domain.resolution must have equal length")
    if len(cfg.origin) != len(cfg.extents):
        raise ConfigError("domain.origin must match domain.extents in length")
    if any(e <= 0 for e in cfg.extents):
        raise ConfigError("domain.extents must be positive")
    if len(cfg.resolution) not in (2, 3):
        raise ConfigError(f"domain.resolution must give 2 or 3 axes, got {len(cfg.resolution)}")
    if min(cfg.resolution) < 3:
        raise ConfigError(f"domain.resolution must be at least 3 per axis, got {cfg.resolution}")
    return build_domain(cfg.extents, cfg.resolution, origin=cfg.origin)


def _expr_field(dom, text: str, key: str) -> ScalarField:
    """The expression ``text`` of config key ``key`` as a field on ``dom``."""
    from .grid import ScalarField

    used = jets.free_variables(text)
    if used and max(used) >= dom.n:
        raise ConfigError(f"{key} uses x{max(used) + 1}, but the domain has {dom.n} axes")
    return ScalarField(dom, jets.eval_numpy(text, dom.coords) * np.ones(dom.shape))


def _unit_zeta(cfg: ExperimentConfig, dom) -> np.ndarray:
    """``problem.zeta`` scaled to unit length, one entry per axis of ``dom``."""
    zeta = np.asarray(cfg.zeta, dtype=float)
    if zeta.shape != (dom.n,):
        raise ConfigError(f"problem.zeta must match the domain dimension {dom.n}, got {cfg.zeta}")
    if not zeta.any():
        raise ConfigError(f"problem.zeta must be nonzero, got {cfg.zeta}")
    return zeta / np.linalg.norm(zeta)


def _gamma_field(cfg: ExperimentConfig, dom) -> ScalarField:
    from .grid import require_positive_weight

    gamma = _expr_field(dom, cfg.gamma, "problem.gamma")
    require_positive_weight(gamma)
    return gamma


def _pseudo1d_profile(cfg: ExperimentConfig, dom) -> np.ndarray:
    from . import psolve

    expr = jets.parse_expr(cfg.gamma)
    if not jets.free_variables(expr) <= {0}:
        raise ConfigError("problem.data = pseudo1d needs gamma to depend on x1 only")
    return psolve.pseudo1d_profile(expr, cfg.p, dom.axes[0], cfg.c)


def _data_field(cfg: ExperimentConfig, dom) -> tuple[ScalarField, np.ndarray | None]:
    """Boundary data field plus (when known) the exact extension for reporting."""
    from .grid import ScalarField

    if cfg.data.startswith("expr:"):
        data = _expr_field(dom, cfg.data[len("expr:"):], "problem.data")
        return data, data.values
    if cfg.data == "linear":
        zeta = _unit_zeta(cfg, dom)
        vals = sum(zeta[a] * dom.coords[a] for a in range(dom.n))
        return ScalarField(dom, vals), vals
    axis_vals = _pseudo1d_profile(cfg, dom)
    vals = np.broadcast_to(
        axis_vals.reshape((-1,) + (1,) * (dom.n - 1)), dom.shape
    ).copy()
    return ScalarField(dom, vals), vals


def _solver_tol(cfg: ExperimentConfig) -> float:
    if not cfg.tol > 0.0:
        raise ConfigError(f"solver.tol must be positive, got {cfg.tol}")
    return cfg.tol


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
    from . import psolve
    from .grid import integrate_boundary

    dom, gamma = _pde_problem(cfg)
    f, extension = _data_field(cfg, dom)
    sol = psolve.solve_p_laplace(gamma, cfg.p, f, _solver_tol(cfg))
    flux = psolve.boundary_flux(gamma, cfg.p, sol.u)
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
    from . import psolve
    from .grid import integrate_boundary

    dom, gamma = _pde_problem(cfg)
    f, _ = _data_field(cfg, dom)
    sol = psolve.solve_p_laplace(gamma, cfg.p, f, _solver_tol(cfg))
    flux = psolve.boundary_flux(gamma, cfg.p, sol.u)
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
        from . import linearize

        matrix, index = linearize.dn_matrix(linearize.assemble_A(gamma, cfg.p, sol.u))
        tables["dn_matrix"] = (
            ["row", "col", "value"],
            [[i, j, v] for i, row in enumerate(matrix.tolist()) for j, v in enumerate(row)],
        )
        results["dn_matrix_nodes"] = len(index)
    passed = sol.residual_norm <= cfg.tol
    return results, tables, passed


def run_linearize(cfg: ExperimentConfig):
    from . import linearize

    schedule = cfg.eps_schedule
    if len(schedule) < 2 or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError(f"linearize.eps_schedule must be strictly decreasing, got {schedule}")
    dom, gamma = _pde_problem(cfg)
    phi0, _ = _data_field(cfg, dom)
    phi = _expr_field(dom, cfg.phi, "linearize.phi")
    report = linearize.verify_linearization(
        gamma, cfg.p, phi0, phi, eps_schedule=cfg.eps_schedule, tol=min(_solver_tol(cfg), 1e-10)
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
    from . import criticalfree

    dom, gamma = _pde_problem(cfg)
    rep = criticalfree.fixed_point_u0(gamma, cfg.p, _unit_zeta(cfg, dom))
    results = {
        "iterations": rep.iterations,
        "factorizations": rep.factorizations,
        "factor_fill": rep.factor_fill,
        "krylov_iterations": rep.krylov_iterations,
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
        rep.sup_grad_R <= criticalfree.BALL_RADIUS
        and rep.min_grad_u0 > 0.5
        and rep.residual_norm < criticalfree.RESIDUAL_TOL
    )
    return results, tables, passed


def _recover_scenario(args):
    """Recover the p values of ``args`` = (cfg, p_values) as one lockstep
    batch and return one outcome per p, in order.  If anything raises
    inside the batch, the p values rerun one at a time, so the error that
    reaches the report is the first failing p's, as in a one-by-one run."""
    cfg, p_values = args
    try:
        return _recover_batch(cfg, p_values)
    except Exception:
        if len(p_values) == 1:
            raise
    return [outcome for p_val in p_values for outcome in _recover_batch(cfg, [p_val])]


def _recover_batch(cfg: ExperimentConfig, p_values: list[float]):
    """The outcomes of the p values recovered in lockstep; a batch of one is
    the unbatched recovery of that p."""
    from . import recover

    sc = recover.Scenario(
        profile=cfg.profile,
        c=cfg.rc,
        zeta=np.asarray(cfg.rzeta, dtype=float),
        p=p_values[0] if len(p_values) == 1 else np.array(p_values),
        z=np.asarray(cfg.z, dtype=float),
        order=cfg.order,
    )
    # the true profile at the depths first, so a bad depth fails before any jet work
    depths = np.asarray(cfg.depths, dtype=float)
    s0 = float(sc.zeta @ sc.z)
    truth = np.array(
        [jets.eval_point(sc.profile, (s0 - sc.zeta[0] * s,)) for s in depths]
    )
    gamma_jets, u0_jets = recover.oracle_tilted_profile(sc)
    batch = recover.run_recovery(recover.synthesize_measurements(gamma_jets, u0_jets, sc.p))
    return [
        _recover_outcome(cfg, p_val, gamma_jets.take(k), u0_jets.take(k), batch.scenario(k), depths, truth)
        for k, p_val in enumerate(p_values)
    ]


def _recover_outcome(cfg: ExperimentConfig, p_val: float, gamma_jet, u0_jet, state, depths, truth):
    """The report entry and table rows of one p's recovery."""
    from . import recover

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


def _validate_recover(cfg: ExperimentConfig):
    """Refuse the ``[recover]`` values a recovery cannot take, before any jet
    work and before ``--jobs`` starts a worker."""
    if cfg.mode != "A":
        raise ConfigError(f"recover.mode must be 'A', got {cfg.mode!r} (mode B was removed)")
    for p_val, key in [(q, "recover.p_list") for q in cfg.p_list] or [(cfg.p, "problem.p")]:
        _check_p(p_val, key)
    if cfg.order < 3:
        raise ConfigError(f"recover.order must be at least 3, got {cfg.order}")
    triples = math.comb(cfg.order + 6, 6)
    if triples > _MAX_PRODUCT_TRIPLES:
        raise ConfigError(
            f"recover.order = {cfg.order} needs a product table of {triples:,} triples, "
            f"above the limit of {_MAX_PRODUCT_TRIPLES:,}"
        )
    zeta = np.asarray(cfg.rzeta)
    if not (zeta.shape == (3,) and abs(np.linalg.norm(zeta) - 1.0) <= 1e-12
            and abs(zeta[0]) >= 1e-10 and math.hypot(zeta[1], zeta[2]) >= 1e-10):
        raise ConfigError(
            f"recover.rzeta must be a unit 3-vector with nonzero normal (first) entry "
            f"and tangential part, got {cfg.rzeta}"
        )
    if len(cfg.z) != 3:
        raise ConfigError(f"recover.z must be a 3-vector, got {cfg.z}")
    if not cfg.rc > 0.0:
        raise ConfigError(f"recover.rc must be positive, got {cfg.rc}")
    if not cfg.depths or min(cfg.depths) <= 0.0:
        raise ConfigError(f"recover.depths must be positive, got {cfg.depths}")
    if not jets.free_variables(cfg.profile) <= {0}:
        raise ConfigError("recover.profile must be an expression of x1 alone")
    s0 = float(zeta @ np.asarray(cfg.z))
    value = jets.eval_point(cfg.profile, (s0,))
    if not value > 0.0:
        raise ConfigError(f"recover.profile must be positive at rzeta . z = {s0:g}, got {value:g}")


def run_recover(cfg: ExperimentConfig, jobs: int = 1):
    from . import recover

    _validate_recover(cfg)
    p_values = list(cfg.p_list) if cfg.p_list else [cfg.p]
    workers = min(jobs, len(p_values), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        # one contiguous chunk of the p list per worker, each run as one batch
        bounds = [len(p_values) * w // workers for w in range(workers + 1)]
        chunks = [(cfg, p_values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [outcome for chunk in pool.map(_recover_scenario, chunks) for outcome in chunk]
    else:
        outcomes = _recover_scenario((cfg, p_values))
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
    from . import planecheck

    n = cfg.n_samples
    if n < _IDENTITY_SAMPLES:
        raise ConfigError(f"checks.n_samples must be at least {_IDENTITY_SAMPLES}, got {n}")
    dom, gamma = _pde_problem(cfg)
    f, _ = _data_field(cfg, dom)
    tol = _solver_tol(cfg)
    rng = np.random.default_rng(cfg.seed)

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
    for k in range(_IDENTITY_SAMPLES):
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
    pairing = planecheck.energy_pairing_check(gamma, cfg.p, f, tol)

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
    from . import linearize
    from .grid import ScalarField, TensorField

    dom, gamma = _pde_problem(cfg)
    zeta = _unit_zeta(cfg, dom)
    if np.count_nonzero(zeta) != 1:
        raise ConfigError(f"rescale needs problem.zeta along one axis, got {cfg.zeta}")
    try:
        rescaled = linearize.rescale_translation_invariant(gamma, zeta, cfg.p)
    except ValueError as exc:  # the one check left: gamma varies along zeta
        raise ConfigError(f"problem.gamma: {exc}") from exc
    axis = rescaled.axis

    # anisotropic side: A = gamma (I + (p-2) zeta zeta^T) via the exact base solution
    u0_vals = sum(zeta[a] * dom.coords[a] for a in range(dom.n))
    a_tensor = linearize.assemble_A(gamma, cfg.p, ScalarField(dom, u0_vals))
    phi = _expr_field(dom, cfg.phi, "linearize.phi")
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
    passed = max_dev < _RESCALE_TOL
    return results, tables, passed


# the typed errors a run serializes with exit code 3, by defining module
_SOLVER_ERRORS = {
    "grid": ("InvalidWeight",),
    "psolve": ("NonConvergence", "ProfileNotResolved"),
    "criticalfree": ("BallEscape",),
    "linearize": ("DegenerateGradient", "SegmentDegenerate"),
    "recover": ("RecoveryError",),
}


def _solver_errors() -> tuple[type[Exception], ...]:
    """The typed errors of the plap modules loaded so far.

    A runner imports the modules it drives, and a module that was never
    imported cannot have raised, so an ``except`` clause (evaluated only when
    an exception reaches it) catches every typed error without importing the
    modules a run left out.
    """
    errors: list[type[Exception]] = [jets.JetError]
    for name, classes in _SOLVER_ERRORS.items():
        module = sys.modules.get(f"{__package__}.{name}")
        if module is not None:
            errors.extend(getattr(module, c) for c in classes)
    return tuple(errors)


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
    except _solver_errors() as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["pass"] = False
        exit_code = 3
    # made only now, so a value a runner refuses as a config error leaves no output
    os.makedirs(out_dir, exist_ok=True)
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
    import argparse

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
