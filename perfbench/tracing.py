"""Span tracing of plap's layers from outside the package.

The tracer replaces every public module-level function of the plap modules
listed in ``LAYERS`` with a timing wrapper, and ``scipy.sparse.linalg.splu``
with one that also wraps the returned factor's ``solve``.  Modules import
each other's functions by name (``recover`` holds its own ``jet_div``), so a
wrapper is put into every plap namespace that holds the original, not only
into the defining module.  ``uninstall`` puts the originals back, so
untraced passes run the unmodified program.

A span is ``(name, tag, start, end, parent, task, attrs)``: ``tag`` sorts
calls of one function into classes (jet shape ``n3o8``, induction order
``m4``), ``parent`` is the index of the enclosing span (-1 at top level) and
``attrs`` carries exact counts read from return values (Newton iterations,
LU fill, Picard iterations, condition numbers).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("grid", "psolve", "linearize", "criticalfree", "jets", "recover", "planecheck", "cli")

# Bookkeeping done by the tracer itself inside a traced call; recorded as a
# span so that it is excluded from the self time of the enclosing call.
OVERHEAD = "perfbench.fill"


@dataclass
class Span:
    name: str
    tag: str
    start: float
    end: float
    parent: int
    task: str
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _jet_tag(args, kwargs) -> str:
    jet = args[0] if args else None
    nvars, order = getattr(jet, "nvars", None), getattr(jet, "order", None)
    return f"n{nvars}o{order}" if nvars is not None else ""


def _order_tag(args, kwargs) -> str:
    m = args[2] if len(args) > 2 else kwargs.get("m")
    return f"m{m}"


def _iterations(result) -> dict:
    return {"iterations": int(result.iterations)}


def _cond_max(result) -> dict:
    return {"cond_max": max(result.conds) if result.conds else 0.0}


TAGS = {"recover.recover_order_m": _order_tag}
RESULT_ATTRS = {
    "psolve.solve_p_laplace": _iterations,
    "criticalfree.fixed_point_u0": _iterations,
    "recover.run_recovery": _cond_max,
}


class _Factor:
    """A SuperLU factor whose ``solve`` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records a span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task = ""
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, tag: str) -> Span:
        span = Span(name, tag, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tagger = TAGS.get(name, _jet_tag if name.startswith("jets.") else None)
        on_result = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, tagger(args, kwargs) if tagger else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                span.attrs = on_result(result)
            return result

        return traced

    def _splu(self, splu):
        @functools.wraps(splu)
        def traced(*args, **kwargs):
            span = self._open("splu", "")
            try:
                lu = splu(*args, **kwargs)
            finally:
                self._close(span)
            fill = self._open(OVERHEAD, "")
            span.attrs = {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}
            self._close(fill)
            return _Factor(lu, self.wrap("splu.solve", lu.solve))

        return traced

    # -- installing ------------------------------------------------------------

    def _set(self, namespace: dict, key: str, value):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"plap.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for key, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not key.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self.wrap(f"{layer}.{key}", fn)
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if m is not None and (name == "plap" or name.startswith("plap."))]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(ns, key, wrappers[value])
        spla = importlib.import_module("scipy.sparse.linalg")
        self._set(vars(spla), "splu", self._splu(spla.splu))

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


# -- reduction to per-layer metrics ---------------------------------------------------


def _tracer_time(spans: list[Span]) -> list[float]:
    """Per span, the time the tracer's own bookkeeping took inside it."""
    inside = [0.0] * len(spans)
    for s in spans:
        if s.name == OVERHEAD:
            parent = s.parent
            while parent >= 0:
                inside[parent] += s.duration
                parent = spans[parent].parent
    return inside


def _inclusive(spans: list[Span], pick, tracer_time: list[float]) -> float:
    """Time under the picked spans, counting a picked span nested in another once."""
    total = 0.0
    for i, s in enumerate(spans):
        if not pick(s):
            continue
        parent = s.parent
        while parent >= 0 and not pick(spans[parent]):
            parent = spans[parent].parent
        if parent < 0:
            total += s.duration - tracer_time[i]
    return total


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _solver_of(spans: list[Span], s: Span) -> str:
    """Name of the nearest enclosing forward or linear solve, or ''."""
    parent = s.parent
    while parent >= 0:
        name = spans[parent].name
        if name in ("psolve.solve_p_laplace", "linearize.solve_linear"):
            return name
        parent = spans[parent].parent
    return ""


# name -> unit; order is the order of the report
METRICS = {
    "jets.s": "s",
    "jets.mul_s.n3o8": "s",
    "jets.mul_calls.n3o8": "count",
    "jets.div_s.n3o8": "s",
    "jets.div_calls.n3o8": "count",
    "jets.mul_s.n2": "s",
    "jets.compose_linear_s": "s",
    "jets.series_s": "s",
    **{f"recover.order_s.m{m}": "s" for m in range(1, 7)},
    "recover.oracle_s": "s",
    "recover.synthesize_s": "s",
    "recover.rotate_s": "s",
    "recover.self_s": "s",
    "recover.cond_max": "ratio",
    "psolve.solve_calls": "count",
    "psolve.solve_s": "s",
    "psolve.newton_iters": "count",
    "psolve.factor_calls": "count",
    "psolve.factor_s": "s",
    "psolve.backsolve_s": "s",
    "psolve.fill_nnz": "count",
    "psolve.self_s": "s",
    "psolve.flux_s": "s",
    "grid.assemble_calls": "count",
    "grid.assemble_s": "s",
    "grid.diff_s": "s",
    "linearize.solve_linear_calls": "count",
    "linearize.solve_linear_s": "s",
    "linearize.factor_calls": "count",
    "linearize.factor_s": "s",
    "linearize.assemble_A_s": "s",
    "linearize.dn_linear_s": "s",
    "criticalfree.assemble_B_s": "s",
    "criticalfree.picard_iters": "count",
    "planecheck.s": "s",
    "cli.config_s": "s",
    "cli.report_write_s": "s",
}

# Counts that must repeat exactly for a fixed seed.
EXACT = (
    "jets.mul_calls.n3o8", "jets.div_calls.n3o8", "recover.cond_max",
    "psolve.solve_calls", "psolve.newton_iters", "psolve.factor_calls", "psolve.fill_nnz",
    "grid.assemble_calls", "linearize.solve_linear_calls", "linearize.factor_calls",
    "criticalfree.picard_iters",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass of a workload (see ``METRICS``)."""

    def named(*names):
        return lambda s: s.name in names

    def shaped(name, tag_prefix):
        return lambda s: s.name == name and s.tag.startswith(tag_prefix)

    def count(pick):
        return sum(1 for s in spans if pick(s))

    own = _self_times(spans)
    tracer_time = _tracer_time(spans)

    def incl(pick):
        return _inclusive(spans, pick, tracer_time)

    def self_time(pick):
        return sum(t for s, t in zip(spans, own) if pick(s))

    def attr_values(name, key):
        return [s.attrs[key] for s in spans if s.name == name and s.attrs]

    def under(name, solver):
        return lambda s: s.name == name and _solver_of(spans, s) == solver

    psolve_lu = under("splu", "psolve.solve_p_laplace")
    linear_lu = under("splu", "linearize.solve_linear")
    m = {
        "jets.s": incl(lambda s: s.name.startswith("jets.")),
        "jets.mul_s.n3o8": incl(shaped("jets.jet_mul", "n3o8")),
        "jets.mul_calls.n3o8": count(shaped("jets.jet_mul", "n3o8")),
        "jets.div_s.n3o8": incl(shaped("jets.jet_div", "n3o8")),
        "jets.div_calls.n3o8": count(shaped("jets.jet_div", "n3o8")),
        "jets.mul_s.n2": incl(shaped("jets.jet_mul", "n2o")),
        "jets.compose_linear_s": incl(named("jets.jet_compose_linear")),
        "jets.series_s": self_time(named("jets.jet_pow", "jets.jet_unary", "jets.jet_compose1")),
    }
    for k in range(1, 7):
        m[f"recover.order_s.m{k}"] = incl(shaped("recover.recover_order_m", f"m{k}"))
    m.update({
        "recover.oracle_s": incl(named("recover.oracle_tilted_profile")),
        "recover.synthesize_s": incl(named("recover.synthesize_measurements")),
        "recover.rotate_s": incl(named("recover.rotate_measurements")),
        "recover.self_s": self_time(lambda s: s.name.startswith("recover.")),
        "recover.cond_max": max(attr_values("recover.run_recovery", "cond_max"), default=0.0),
        "psolve.solve_calls": count(named("psolve.solve_p_laplace")),
        "psolve.solve_s": incl(named("psolve.solve_p_laplace")),
        "psolve.newton_iters": sum(attr_values("psolve.solve_p_laplace", "iterations")),
        "psolve.factor_calls": count(psolve_lu),
        "psolve.factor_s": incl(psolve_lu),
        "psolve.backsolve_s": incl(under("splu.solve", "psolve.solve_p_laplace")),
        "psolve.fill_nnz": sum(s.attrs["fill_nnz"] for s in spans if psolve_lu(s)),
        "psolve.self_s": self_time(named("psolve.solve_p_laplace")),
        "psolve.flux_s": incl(named("psolve.boundary_flux")),
        "grid.assemble_calls": count(named("grid.anisotropic_operator")),
        "grid.assemble_s": incl(named("grid.anisotropic_operator")),
        "grid.diff_s": incl(named("grid.gradient", "grid.divergence")),
        "linearize.solve_linear_calls": count(named("linearize.solve_linear")),
        "linearize.solve_linear_s": incl(named("linearize.solve_linear")),
        "linearize.factor_calls": count(linear_lu),
        "linearize.factor_s": incl(linear_lu),
        "linearize.assemble_A_s": incl(named("linearize.assemble_A")),
        "linearize.dn_linear_s": incl(named("linearize.dn_linear")),
        "criticalfree.assemble_B_s": incl(named("criticalfree.assemble_B")),
        "criticalfree.picard_iters": sum(attr_values("criticalfree.fixed_point_u0", "iterations")),
        "planecheck.s": incl(lambda s: s.name.startswith("planecheck.")),
        "cli.config_s": incl(named("cli.load_config", "cli.parse_config_text")),
        "cli.report_write_s": incl(named("cli.to_json", "cli.write_csv")),
    })
    return m


def write_spans(path: str, passes: list[list[Span]]):
    """One CSV line per span; ``parent`` indexes spans of the same pass."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pass,index,name,tag,start,end,parent,task\n")
        for k, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(f"{k},{i},{s.name},{s.tag},{s.start!r},{s.end!r},{s.parent},{s.task}\n")
