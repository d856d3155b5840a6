"""Seeded workload generation: each workload is a list of plap config files.

Seed 0 gives the nominal values, so the seven sample configs come out
byte-identical to ``scripts/configs/*.cfg``.  Any other seed jitters weight
amplitudes, tilt angles, p values and the recovery point inside narrow
ranges: wide enough to change every number in the reports, narrow enough
that p stays clear of 2, every verdict keeps passing and the cost of a
workload stays within a few percent of its seed-0 cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("recover_jets", "pde_solves")

TILT = "0.955336489125606 0.29552020666134"  # (cos 0.3, sin 0.3) as in dn.cfg
WAVY = "1 + {amp}*sin(3.14159265358979*x1)*sin(3.14159265358979*x2)"
WAVY_3D = WAVY + "*sin(3.14159265358979*x3)"


@dataclass(frozen=True)
class Task:
    """One ``plap <command> --config <name>.cfg`` invocation."""

    name: str
    command: str
    text: str


class _Draw:
    """Nominal value at seed 0, a uniform draw from [lo, hi] otherwise."""

    def __init__(self, seed: int):
        self.rng = None if seed == 0 else np.random.default_rng(seed)

    def num(self, nominal: str, lo: float, hi: float) -> str:
        if self.rng is None:
            return nominal
        return repr(round(float(self.rng.uniform(lo, hi)), 6))

    def coef(self, lo: float, hi: float) -> str:
        """A coefficient prefix ``"<c>*"``, left out (c = 1) at seed 0."""
        return "" if self.rng is None else self.num("", lo, hi) + "*"

    def tilt(self, nominal: str, angle: float, spread: float) -> str:
        """A unit 2D direction at ``angle`` radians, jittered by +-``spread``."""
        if self.rng is None:
            return nominal
        t = float(self.rng.uniform(angle - spread, angle + spread))
        return f"{math.cos(t)!r} {math.sin(t)!r}"


# -- the committed sample configs, with their drawn values as fields ----------

FORWARD = """\
# forward solve with a pseudo-1D manufactured solution: gamma depends on x1
# only and the data is the matching 1D profile, so the solver should land on
# it to discretization accuracy
[domain]
extents = 1 1
resolution = 65 65

[problem]
p = {p}
gamma = {gamma}
data = pseudo1d
c = 1.0

[solver]
tol = 1e-8
"""

DN = """\
# boundary flux of a tilted linear solve on a wavy weight
[domain]
resolution = {n} {n}

[problem]
p = {p}
gamma = {gamma}
data = linear
zeta = {zeta}
{extra}"""

CHECKS = """\
# plane-algebra suite plus a small energy/boundary pairing solve
[domain]
resolution = 33 33

[problem]
p = {p}
gamma = {gamma}
data = expr:x1

[checks]
n_samples = 1000

[run]
seed = {seed}
"""

FIXEDPOINT = """\
# remainder construction for a weight with a small slope along zeta
[domain]
resolution = {n} {n}

[problem]
p = {p}
gamma = 1 + {slope}*x1
zeta = 1 0
"""

LINEARIZE = """\
# difference quotients of the nonlinear DN map against the linearized one
[domain]
resolution = {n} {n}

[problem]
p = {p}
gamma = 1
data = expr:x1

[linearize]
phi = x2^2 - x2
eps_schedule = 0.1 0.03162277660168379 0.01 0.0031622776601683794 0.001
"""

RECOVER = """\
# layer-stripping round trip on tilted exponential profiles
[recover]
profile = exp({rate}*x1)
rc = 1.0
rzeta = 0.48 -0.6 0.64
z = {z}
order = 8
depths = 0.1 0.2 0.3
mode = A
p_list = {p_list}

[run]
seed = {seed}
"""

RESCALE = """\
# reduction of the axis-anisotropic linearized problem to an isotropic one
[domain]
resolution = 33 33

[problem]
p = {p}
gamma = 1 + {curv}x2^2
zeta = 1 0

[linearize]
phi = x2^2 - x2 + 0.2*x1
"""

# -- larger configs that exist only in the benchmark ----------------------------

FORWARD_3D = """\
# 3D forward solve: tilted linear data on a wavy weight
[domain]
extents = 1 1 1
resolution = 17 17 17
origin = 0 0 0

[problem]
p = {p}
gamma = {gamma}
data = linear
zeta = {zeta}
"""


def _sample_configs(d: _Draw, seed: int) -> dict[str, Task]:
    """The seven sample configs; at seed 0 equal to ``scripts/configs``."""
    return {
        "forward": Task("forward", "forward", FORWARD.format(
            p=d.num("3.0", 2.9, 3.1),
            gamma="1 + " + d.coef(0.9, 1.1) + "x1",
        )),
        "dn": Task("dn", "dn", DN.format(
            n=65,
            p=d.num("2.7", 2.6, 2.8),
            gamma=WAVY.format(amp=d.num("0.3", 0.25, 0.35)),
            zeta=d.tilt(TILT, 0.3, 0.05),
            extra="",
        )),
        "checks": Task("checks", "checks", CHECKS.format(
            p=d.num("2.5", 2.4, 2.6),
            gamma="1 + " + d.coef(0.8, 1.2) + "x2^2",
            seed=seed,
        )),
        "fixedpoint": Task("fixedpoint", "fixedpoint", FIXEDPOINT.format(
            n=33, p=d.num("1.5", 1.45, 1.55), slope=d.num("0.05", 0.045, 0.055),
        )),
        "linearize": Task("linearize", "linearize", LINEARIZE.format(
            n=33, p=d.num("3.0", 2.9, 3.1),
        )),
        "recover": Task("recover", "recover", RECOVER.format(
            rate=d.num("0.2", 0.17, 0.23),
            z=" ".join([
                d.num("0.1", 0.05, 0.15), d.num("-0.3", -0.35, -0.25), d.num("0.2", 0.15, 0.25),
            ]),
            p_list=" ".join([
                d.num("1.3", 1.25, 1.35), d.num("1.7", 1.65, 1.75), d.num("2.5", 2.4, 2.6),
                d.num("3", 2.9, 3.1), d.num("6", 5.8, 6.2),
            ]),
            seed=seed,
        )),
        "rescale": Task("rescale", "rescale", RESCALE.format(
            p=d.num("3.0", 2.9, 3.1), curv=d.coef(0.8, 1.2),
        )),
    }


def sample_configs(seed: int) -> dict[str, Task]:
    """The seven sample configs at ``seed``, by subcommand name."""
    return _sample_configs(_Draw(seed), seed)


def generate(workload: str, seed: int) -> list[Task]:
    """The tasks of ``workload`` at ``seed``, in the order a pass runs them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    d = _Draw(seed)
    samples = _sample_configs(d, seed)
    if workload == "recover_jets":
        return [samples["recover"]]
    # Newton solves with a new Jacobian LU per step first, then linear solves
    # that factor one unchanging operator again and again
    tasks = [samples["forward"], samples["dn"], samples["checks"]]
    for p_nom in ("1.5", "3.0", "6.0"):
        p0 = float(p_nom)
        tasks.append(Task(f"forward129_p{p_nom}", "forward", DN.format(
            n=129,
            p=d.num(p_nom, 0.99 * p0, 1.01 * p0),
            # below 0.3 the p = 6 solve takes one Newton step fewer
            gamma=WAVY.format(amp=d.num("0.3", 0.3, 0.33)),
            zeta=d.tilt(TILT, 0.3, 0.03),
            extra="",
        )))
    for p_nom in ("1.5", "3.0"):
        p0 = float(p_nom)
        zeta = d.tilt(TILT, 0.3, 0.03) + " 0.2"
        tasks.append(Task(f"forward17cubed_p{p_nom}", "forward", FORWARD_3D.format(
            p=d.num(p_nom, 0.99 * p0, 1.01 * p0),
            gamma=WAVY_3D.format(amp=d.num("0.3", 0.28, 0.32)),
            zeta=zeta,
        )))
    return tasks + [
        Task("dn_matrix33", "dn", DN.format(
            n=33,
            p=d.num("2.7", 2.6, 2.8),
            gamma=WAVY.format(amp=d.num("0.3", 0.25, 0.35)),
            zeta=d.tilt(TILT, 0.3, 0.05),
            extra="\n[dn]\ndn_matrix = true\n",
        )),
        Task("linearize65", "linearize", LINEARIZE.format(n=65, p=d.num("3.0", 2.9, 3.1))),
        # ranges inside the region where the Picard iteration takes 5 steps
        Task("fixedpoint129", "fixedpoint", FIXEDPOINT.format(
            n=129, p=d.num("1.5", 1.42, 1.48), slope=d.num("0.05", 0.052, 0.06),
        )),
        samples["linearize"],
        samples["rescale"],
    ]
