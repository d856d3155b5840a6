"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import math
import time

import numpy as np

from plap.grid import (
    ScalarField,
    build_domain,
    face_values_combine,
    face_values_max_abs,
)
from plap import cli, criticalfree, linearize, planecheck, psolve, recover
from plap.jets import eval_point, eval_jet, parse_expr

from oracles import convergence_orders, pseudo1d_fields


def _verdict(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} ({elapsed:.2f}s / budget {budget:.0f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_01_determinant_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = rng.uniform(1.0 + 1e-9, 10.0)
        while abs(p - 2.0) < 1e-9:
            p = rng.uniform(1.0 + 1e-9, 10.0)
        v = (np.cos(theta), np.sin(theta))
        worst = max(worst, abs(planecheck.det_identity_2d(v, p) - (p - 1.0)))
    _verdict(
        1,
        "2D determinant identity",
        worst < 1e-12,
        time.perf_counter() - t0,
        1.0,
        f"max |det - (p-1)| = {worst:.3e} over 1000 samples",
    )


def test_criterion_02_dj_spectrum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in (2, 3):
        count = 5000
        xi = rng.normal(size=(count, n))
        norms = np.linalg.norm(xi, axis=1)
        keep = norms > 1e-3
        xi, norms = xi[keep], norms[keep]
        ps = rng.uniform(1.05, 10.0, size=xi.shape[0])
        ps[np.abs(ps - 2.0) < 1e-6] = 2.5
        outer = xi[:, :, None] * xi[:, None, :] / (norms**2)[:, None, None]
        mats = np.eye(n) + (ps - 2.0)[:, None, None] * outer
        eigs = np.sort(np.linalg.eigvalsh(mats), axis=1)
        expected = np.sort(
            np.concatenate([np.ones((xi.shape[0], n - 1)), (ps - 1.0)[:, None]], axis=1),
            axis=1,
        )
        worst = max(worst, float(np.max(np.abs(eigs - expected))))
    _verdict(
        2,
        "flux derivative spectrum",
        worst < 1e-12,
        time.perf_counter() - t0,
        5.0,
        f"max eigenvalue deviation = {worst:.3e} over 10000 samples",
    )


def test_criterion_03_forward_manufactured_solutions():
    t0 = time.perf_counter()
    details = []
    ok = True
    # affine data reproduced within solver tolerance
    dom = build_domain((1.0, 1.0), (33, 33))
    zeta = np.array([np.cos(0.4), np.sin(0.4)])
    f = ScalarField(dom, zeta[0] * dom.coords[0] + zeta[1] * dom.coords[1])
    for p in (1.5, 3.0):
        sol = psolve.solve_p_laplace(ScalarField.constant(dom, 1.0), p, f)
        dev = float(np.max(np.abs(sol.u.values - f.values)))
        ok &= dev <= 1e-8
        details.append(f"affine p={p}: {dev:.1e}")
    # pseudo-1D quadrature solution at order >= 1.8
    for p in (1.5, 3.0):
        errs = []
        for res in (17, 33, 65):
            _, gam, data = pseudo1d_fields(lambda t: 1.0 + t, p, res)
            sol = psolve.solve_p_laplace(gam, p, data)
            errs.append(float(np.max(np.abs(sol.u.values - data.values))))
        orders = convergence_orders(errs)
        ok &= min(orders) >= 1.8
        details.append(f"pseudo-1D p={p}: orders {[f'{o:.2f}' for o in orders]}")
    _verdict(3, "forward manufactured solutions", ok, time.perf_counter() - t0, 120.0, "; ".join(details))


def test_criterion_04_energy_boundary_pairing():
    t0 = time.perf_counter()
    gaps = []
    for res in (17, 33, 65):
        dom = build_domain((1.0, 1.0), (res, res))
        gam = ScalarField.from_function(dom, lambda x, y: 1.0 + y**2)
        f = ScalarField.from_function(dom, lambda x, y: x + 0.2 * (y**2 - y))
        gaps.append(planecheck.energy_pairing_check(gam, 2.5, f).rel_gap)
    ok = gaps[-1] < 5e-3 and gaps[0] > gaps[1] > gaps[2]
    _verdict(
        4,
        "energy-boundary pairing",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"rel gaps at 17/33/65: {[f'{g:.2e}' for g in gaps]}",
    )


def _restrict_faces(fine: dict) -> dict:
    return {k: v[::2] for k, v in fine.items()}


def test_criterion_05_linearization_quotients():
    t0 = time.perf_counter()
    scenarios = [
        ("1", 3.0, "x1", "x2^2 - x2"),
        ("1 + 0.2*x2", 1.5, "x1 + 0.1*x2", "x2^2 - x2"),
        ("1 + 0.3*sin(3.14159265358979*x1)*sin(3.14159265358979*x2)", 2.7,
         "0.955336489125606*x1 + 0.29552020666134*x2", "x2^2 - x2 + 0.2*x1"),
    ]
    details = []
    ok = True
    for gamma_text, p, phi0_text, phi_text in scenarios:
        rep = None
        disc_err = None
        fine_flux = None
        for res in (33, 65):
            dom = build_domain((1.0, 1.0), (res, res))
            coords = dom.coords
            gam = ScalarField(dom, cli.jets.eval_numpy(gamma_text, coords) * np.ones(dom.shape))
            phi0 = ScalarField(dom, cli.jets.eval_numpy(phi0_text, coords) * np.ones(dom.shape))
            phi = ScalarField(dom, cli.jets.eval_numpy(phi_text, coords) * np.ones(dom.shape))
            if res == 33:
                rep = linearize.verify_linearization(
                    gam, p, phi0, phi, cli.ExperimentConfig().eps_schedule, tol=1e-11
                )
            else:
                sol = psolve.solve_p_laplace(gam, p, phi0, 1e-11)
                fine_flux = linearize.dn_linear(linearize.assemble_A(gam, p, sol.u), phi)
        disc_err = face_values_max_abs(
            face_values_combine(lambda a, b: a - b, rep.reference, _restrict_faces(fine_flux))
        )
        scen_ok = rep.passed and rep.floor_value < 10.0 * disc_err
        ok &= scen_ok
        details.append(
            f"p={p}: monotone={rep.passed}, floor={rep.floor_value:.2e}, disc_err={disc_err:.2e}"
        )
    _verdict(5, "linearization quotient convergence", ok, time.perf_counter() - t0, 300.0, "; ".join(details))


def test_criterion_06_fixed_point_certificates():
    t0 = time.perf_counter()
    dom = build_domain((1.0, 1.0), (33, 33))
    details = []
    ok = True
    for delta in (0.01, 0.05):
        for p in (1.5, 3.0):
            gam = ScalarField(dom, 1.0 + delta * dom.coords[0])
            rep = criticalfree.fixed_point_u0(gam, p, np.array([1.0, 0.0]))
            # fixed_point_u0 returns only on convergence, and raises otherwise
            good = (
                rep.sup_grad_R < 0.5
                and rep.min_grad_u0 > 0.5
                and rep.residual_norm < 1e-6
            )
            ok &= good
            details.append(
                f"delta={delta},p={p}: |gradR|={rep.sup_grad_R:.3f}, res={rep.residual_norm:.1e}"
            )
    _verdict(6, "fixed point certificates", ok, time.perf_counter() - t0, 120.0, "; ".join(details))


def test_criterion_07_theta_determinant_sweep():
    t0 = time.perf_counter()
    ps = np.concatenate([np.linspace(1.0 + 5e-3, 2.0 - 5e-3, 100), np.linspace(2.0 + 5e-3, 10.0, 100)])
    ratios = np.linspace(5e-3, 1.0, 200)
    min_direct = np.inf
    min_closed = np.inf
    for p in ps:
        kp2 = 1.0  # |grad| = 1 on the sweep, so the scale gamma^2 |grad|^(3p-8) is 1
        for r in ratios:
            grad = np.array([r, math.sqrt(max(1.0 - r * r, 0.0)), 0.0])
            det_d = recover.theta_det_direct(recover.theta_matrix(1.0, grad, p))
            det_p = recover.theta_det_closed_form(1.0, grad, p)
            min_direct = min(min_direct, abs(det_d))
            min_closed = min(min_closed, abs(det_p))
    canonical_direct = recover.theta_det_direct(recover.theta_matrix(1.0, np.array([1.0, 0.0, 0.0]), 3.0))
    canonical_closed = recover.theta_det_closed_form(1.0, np.array([1.0, 0.0, 0.0]), 3.0)
    ok = (
        min_direct > 1e-6
        and min_closed > 0.0
        and canonical_direct == 4.0
        and canonical_closed == 6.0
    )
    _verdict(
        7,
        "theta determinant sweep",
        ok,
        time.perf_counter() - t0,
        10.0,
        f"min |det| direct={min_direct:.3e}, closed-form={min_closed:.3e}, "
        f"canonical point: direct={canonical_direct:g} vs printed form={canonical_closed:g}",
    )


def test_criterion_08_recovery_round_trip():
    t0 = time.perf_counter()
    cases = [
        (1.3, "1 + 0.1*x1"),
        (1.7, "exp(0.2*x1)"),
        (2.5, "sqrt(1 + 0.3*x1)"),
        (3.0, "1/(1 + 0.2*x1)"),
        (6.0, "1 + 0.1*x1 + 0.03*x1^2"),
    ]
    zeta = np.array([0.6, 0.64, 0.48])
    z = np.array([0.0, 0.2, -0.1])
    order = 8
    details = []
    ok = True
    for p, profile in cases:
        sc = recover.Scenario(profile=profile, c=1.0, zeta=zeta, p=p, z=z, order=order)
        gj, uj = recover.oracle_tilted_profile(sc)
        bj = recover.synthesize_measurements(gj, uj, p)
        state = recover.run_recovery(bj)
        max_rel = 0.0
        for m in range(0, 7):
            truth = gj.coefficient((m, 0, 0))
            rec = state.gamma.coefficient((m, 0, 0))
            max_rel = max(max_rel, abs(rec - truth) / max(abs(truth), 1.0))
        for m in range(1, 8):
            truth = uj.coefficient((m, 0, 0))
            rec = state.u0.coefficient((m, 0, 0))
            max_rel = max(max_rel, abs(rec - truth) / max(abs(truth), 1.0))
        gauge = max(state.gauge_residuals)
        # analytic remainder bound for the depth-0.3 reconstruction
        s_depth = 0.3
        top = state.filled_order
        s0 = float(zeta @ z)
        seg = np.linspace(s0 - zeta[0] * s_depth, s0, 41)
        expr = parse_expr(profile)
        deriv_max = max(
            abs(eval_jet(expr, (s_val,), top + 1).coefficient((top + 1,))) * math.factorial(top + 1)
            for s_val in seg
        )
        bound = deriv_max * (zeta[0] * s_depth) ** (top + 1) / math.factorial(top + 1)
        recon = recover.taylor_reconstruct(state, np.array([s_depth]))[0]
        truth_val = eval_point(expr, (s0 - zeta[0] * s_depth,))
        recon_err = abs(recon - truth_val)
        good = max_rel < 1e-7 and gauge < 1e-8 and recon_err <= 10.0 * bound + 1e-13
        ok &= good
        details.append(f"p={p}: rel={max_rel:.1e}, gauge={gauge:.1e}, recon={recon_err:.1e}<=10x{bound:.1e}")
    _verdict(8, "boundary jet recovery round trip", ok, time.perf_counter() - t0, 60.0, "; ".join(details))


def test_criterion_09_theta_eta_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    ps = np.concatenate([np.linspace(1.05, 1.95, 20), np.linspace(2.05, 9.95, 20)])
    ok = all(planecheck.solve_theta_eta(1.0, p) == (1.0, 1.0) for p in ps)
    count = 0
    while count < 100:
        alpha = float(rng.uniform(0.05, 3.0))
        if abs(alpha - 1.0) < 1e-6:
            continue
        p = float(ps[count % len(ps)])
        ok &= planecheck.solve_theta_eta(alpha, p) is None
        count += 1
    _verdict(9, "theta/eta consistency solve", ok, time.perf_counter() - t0, 1.0,
             "alpha=1 gives (1,1); 100 random alpha != 1 inconsistent")


def test_criterion_10_no_critical_points_2d():
    t0 = time.perf_counter()
    dom = build_domain((1.0, 1.0), (65, 65))
    x, y = dom.coords
    weights = [
        1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y),
        1.5 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y),
        np.exp(0.3 * x * y),
    ]
    data = criticalfree.extremal_boundary_data_2d(dom)
    ok = data.certified
    mins = []
    for w in weights:
        sol = psolve.solve_p_laplace(ScalarField(dom, w), 2.7, data.phi)
        mins.append(sol.min_gradient)
        ok &= sol.min_gradient > 0.1
    _verdict(
        10,
        "2D critical point free solutions",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"min interior |grad u0| = {[f'{m:.3f}' for m in mins]}",
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    checks_cfg = tmp_path / "checks.cfg"
    checks_cfg.write_text("[domain]\nresolution = 9 9\n[problem]\np = 2.5\n")
    recover_cfg = tmp_path / "recover.cfg"
    recover_cfg.write_text(
        "[recover]\nprofile = exp(0.2*x1)\nrzeta = 0.48 -0.6 0.64\nz = 0.1 -0.3 0.2\n"
        "order = 6\np_list = 1.5 3.0\n"
    )
    ok = True
    for name, cfg_path in (("checks", checks_cfg), ("recover", recover_cfg)):
        blobs = []
        for run_idx in (1, 2):
            out = tmp_path / f"{name}{run_idx}"
            assert cli.main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
            blobs.append((out / "report.json").read_bytes())
        ok &= blobs[0] == blobs[1]
    _verdict(11, "byte-identical reports", ok, time.perf_counter() - t0, 60.0,
             "repeated checks and recover runs compared byte for byte")
