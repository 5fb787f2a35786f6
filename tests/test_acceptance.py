"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from helmstab.bounds import TheoremId, sharpness_case, sweep
from helmstab.eigenbasis import (
    BasisFamily,
    BoundaryOperator,
    Spectrum,
    project,
)
from helmstab.modal1d import (
    CUTOFF,
    EVANESCENT,
    PROPAGATING,
    Side,
    choose_lifting_family,
    energy_densities,
    gap_lower_bound,
    mode_table,
)
from helmstab.oracle import compare, fdm_solve
from helmstab.solver import (
    BoundaryConfig,
    energy_parseval,
    energy_quadrature,
    evaluate,
    solve_datum,
    solve_problem,
    superpose,
)

D, N, I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE
PI = math.pi


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {desc} {detail}", flush=True)
    assert ok, f"criterion {num}: {desc} {detail}"


def quad_norm_sq(f, panels=256, nodes=12):
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        h = 0.5 * (b - a)
        t = a + h * (xg + 1.0)
        total += h * float(np.sum(wg * np.abs(f(t)) ** 2))
    return total


def test_criterion_1_sharpness_equalities():
    t0 = time.time()
    worst = 0.0
    checks = 0
    vertical_ids = ("ex2.3-1", "ex2.3-2", "ex2.3-3", "ex2.5-neumann", "ex2.5-dirichlet")
    for case_id in vertical_ids:
        for family in (BasisFamily.SIN_INT, BasisFamily.COS_HALF):
            for n in range(1, 11):
                case = sharpness_case(case_id, n, family)
                sol = solve_datum(case.config, case.data_side, case.datum, case.k)
                worst = max(worst, case.verdict(energy_parseval(sol))[1])
                checks += 1
    for case_id in ("lift-nn", "lift-nd"):
        for family in (BasisFamily.SIN_INT, BasisFamily.COS_INT):
            for n in range(1, 11):
                case = sharpness_case(case_id, n, family)
                sol = solve_datum(case.config, case.data_side, case.datum, case.k)
                worst = max(worst, case.verdict(energy_parseval(sol))[1])
                checks += 1
    dt = time.time() - t0
    _report(1, "sharpness equalities", worst <= 1e-8 and dt < 5.0,
            f"({checks} cases, worst rel {worst:.2e}, {dt:.1f}s)")


def test_criterion_2_lifting_lower_bounds():
    t0 = time.time()
    ok = True
    worst_rel = 0.0
    for case_id in ("lift-dn", "lift-dd"):
        for family in (BasisFamily.SIN_INT, BasisFamily.COS_INT):
            for n in range(1, 11):
                case = sharpness_case(case_id, n, family)
                sol = solve_datum(case.config, case.data_side, case.datum, case.k)
                rep = energy_parseval(sol)
                worst_rel = max(worst_rel, case.verdict(rep)[1])
                ok = ok and rep.energy >= case.lower_bound
    dt = time.time() - t0
    _report(2, "lifting lower bounds", ok and worst_rel <= 1e-8 and dt < 5.0,
            f"(energy^2 worst rel {worst_rel:.2e}, {dt:.1f}s)")


def test_criterion_3_certificate_soundness():
    t0 = time.time()
    k_grid = np.geomspace(0.05, 200.0, 64)
    all_ok = True
    details = []
    for theorem in (TheoremId.T1_G4, TheoremId.T2_G2_IMP, TheoremId.T2_G2_NEU,
                    TheoremId.T2_G2_DIR, TheoremId.T3_LIFT_NEU, TheoremId.T3_LIFT_DIR):
        rep = sweep(theorem, k_grid, modes=64, trials=50, seed=2024)
        all_ok = all_ok and rep.all_passed
        details.append(f"{theorem.value}:{rep.max_ratio:.3f}")
    rep = sweep(TheoremId.TF_SOURCE, [0.5, 1.0, 5.0, 20.0], modes=12, trials=5, seed=2024)
    all_ok = all_ok and rep.all_passed and rep.certificates == 20
    details.append(f"TF_SOURCE:{rep.max_ratio:.3f}")
    dt = time.time() - t0
    _report(3, "certificate soundness", all_ok and dt < 120.0,
            f"(max ratios {' '.join(details)}, {dt:.1f}s)")


def test_criterion_4_proof_quantity_sweeps():
    t0 = time.time()
    ks = np.geomspace(0.05, 200.0, 64)
    slack = 1.0 + 1e-9
    bounds = {
        (I, Side.LEFT): (lambda k: 3 * max(k * k, 1.0), lambda k: 3.0),
        (N, Side.LEFT): (lambda k: 6 * max(k * k, 1.0), lambda k: 3.0),
        (D, Side.LEFT): (lambda k: 4 * max(k * k, 1.0), lambda k: 2.0),
        (N, Side.RIGHT): (lambda k: 10 * max(k**4, 1.0), lambda k: 10 * max(k * k, 1.0)),
    }
    ok = True
    for family in (BasisFamily.COS_INT, BasisFamily.COS_HALF):
        for (b2, side), (phi_cap, psi_cap) in bounds.items():
            for k in ks:
                k = float(k)
                # phi/psi of modes 0..256: the propagating and evanescent rows
                density, regime = energy_densities(range(257), k, b2, side, family)
                if np.any(density[regime == PROPAGATING] > phi_cap(k) * slack):
                    ok = False
                if np.any(density[regime == EVANESCENT] > psi_cap(k) * slack):
                    ok = False
    # cutoff energy densities match the stated constants
    fam = BasisFamily.SIN_INT
    for n in (1, 5):
        k = fam.eigenvalue(n)
        (theta,), (code,) = energy_densities([n], k, I, Side.LEFT, fam)
        ok = ok and code == CUTOFF
        ok = ok and abs(theta - (2 * k**2 + 9) / (3 * k**2 + 12)) < 1e-12 * theta
        (theta,), (code,) = energy_densities([n], k, N, Side.RIGHT, fam)
        ok = ok and code == CUTOFF
        ok = ok and abs(theta - ((2 / 3) * k**2 + 3)) < 1e-12 * theta
    dt = time.time() - t0
    _report(4, "proof-quantity sweeps", ok and dt < 30.0, f"({dt:.1f}s)")


def test_criterion_5_resonance_gap():
    t0 = time.time()
    ok = True
    min_margin = math.inf
    for same, ops in ((True, (N, N)), (False, (D, N))):
        for k in np.geomspace(0.05, 200.0, 256):
            ch = choose_lifting_family(float(k), *ops)
            for n in range(257):
                obs, bound = gap_lower_bound(float(k), ch.basis.eigenvalue(n), same)
                min_margin = min(min_margin, obs - bound)
                if obs < bound:
                    ok = False
    dt = time.time() - t0
    _report(5, "resonance-gap lower bound", ok and dt < 10.0,
            f"(min margin {min_margin:.3e}, {dt:.1f}s)")


def test_criterion_6_closed_form_vs_quadrature_norms():
    t0 = time.time()
    worst = 0.0
    x_cases = [(I, Side.LEFT), (I, Side.RIGHT), (N, Side.LEFT), (N, Side.RIGHT),
               (D, Side.LEFT), (D, Side.RIGHT)]

    def check(table):
        """Every row's closed-form norms against quadrature of the row."""
        nonlocal worst
        for i in range(len(table)):
            r0 = quad_norm_sq(lambda t: table.value_and_derivative(t)[0][i])
            r1 = quad_norm_sq(lambda t: table.value_and_derivative(t)[1][i])
            worst = max(worst, abs(table.norm_sq[i] - r0) / table.norm_sq[i],
                        abs(table.dnorm_sq[i] - r1) / table.dnorm_sq[i])

    for family in (BasisFamily.SIN_INT, BasisFamily.COS_HALF):
        ns = (1, 4, 11) if family is BasisFamily.SIN_INT else (0, 1, 4, 11)
        for b2, side in x_cases:
            for k in (0.3, 2.7, 9.4, 33.0):
                check(mode_table(ns, k, (I, b2), side, family))
    # near-cutoff gaps from both sides
    fam = BasisFamily.SIN_INT
    mu = fam.eigenvalue(3)
    for relgap in (1e-4, 1e-6):
        for sign in (+1, -1):
            k = mu * math.sqrt(1 + sign * relgap)
            for b2, side in x_cases:
                check(mode_table([3], k, (I, b2), side, fam))
    # lifting profiles
    for bb, bt in ((N, N), (N, D), (D, N), (D, D)):
        for k in (0.7, 9.1, 44.0):
            ch = choose_lifting_family(k, bb, bt)
            check(mode_table((0, 2, 9, 17), k, (bb, bt), Side.BOTTOM, ch.basis))
    dt = time.time() - t0
    _report(6, "closed-form vs quadrature norms", worst <= 1e-10 and dt < 30.0,
            f"(worst rel {worst:.2e}, {dt:.1f}s)")


def test_criterion_7_parseval_vs_grid_energy():
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    count = 0
    # mode content capped so a 65x65 Gauss grid resolves the integrand
    while count < 200:
        k = float(rng.uniform(0.3, 30.0))
        pair = [(D, D), (N, N), (D, N), (N, D)][int(rng.integers(0, 4))]
        lifted = count % 5 == 4
        if lifted:
            cfg = BoundaryConfig(pair[0], D, pair[1])
            fam = choose_lifting_family(k, *pair).basis
        else:
            b2 = [I, N, D][int(rng.integers(0, 3))]
            cfg = BoundaryConfig(pair[0], b2, pair[1])
            fam = cfg.vertical_family()
        start = 1 if fam is BasisFamily.SIN_INT else 0
        n_modes = int(rng.integers(1, 7))
        idx = sorted(rng.choice(np.arange(start, start + 12), size=n_modes, replace=False))
        coeffs = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        data = Spectrum.from_pairs(fam, list(zip((int(i) for i in idx), coeffs)))
        if lifted:
            side = Side.BOTTOM
        else:
            side = Side.LEFT if int(rng.integers(0, 2)) else Side.RIGHT
        u = solve_datum(cfg, side, data, k)
        ep = energy_parseval(u)
        eq = energy_quadrature(u, 65)
        worst = max(worst, abs(ep.energy - eq.energy) / (1.0 + ep.energy))
        count += 1
    dt = time.time() - t0
    _report(7, "parseval vs grid energy", worst <= 1e-6 and dt < 60.0,
            f"(200 solutions, worst scaled diff {worst:.2e}, {dt:.1f}s)")


def test_criterion_8_oracle_agreement():
    t0 = time.time()
    ok = True
    details = []
    # plane wave at k = 5
    k = 5.0
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    spectral = solve_datum(
        cfg, Side.LEFT, Spectrum.from_pairs(BasisFamily.COS_INT, [(0, -2j * k)]), k
    )
    errs = []
    for n in (65, 129, 257):
        gs = fdm_solve(cfg, {Side.LEFT: (lambda y: -2j * k)}, None, k, n)
        errs.append(compare(spectral, gs).rel_l2)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = ok and errs[-1] <= 1e-3 and all(1.8 <= o <= 2.2 for o in orders)
    details.append(f"plane-wave rel_l2 {errs[-1]:.2e} orders {orders[0]:.2f},{orders[1]:.2f}")

    # inhomogeneous-impedance example with Dirichlet right side, n = 1
    fam = BasisFamily.SIN_INT
    k2 = math.sqrt(fam.eigenvalue(1) ** 2 + PI**2)
    cfg2 = BoundaryConfig(bottom=D, right=D, top=D)
    g4 = Spectrum.from_pairs(fam, [(1, 1.0)])
    spectral2 = solve_datum(cfg2, Side.LEFT, g4, k2)
    errs2 = []
    for n in (65, 129, 257):
        gs2 = fdm_solve(cfg2, {Side.LEFT: g4}, None, k2, n)
        errs2.append(compare(spectral2, gs2).rel_l2)
    orders2 = [math.log2(errs2[i] / errs2[i + 1]) for i in range(2)]
    ok = ok and errs2[-1] <= 1e-3 and all(1.8 <= o <= 2.2 for o in orders2)
    details.append(f"case-3 rel_l2 {errs2[-1]:.2e} orders {orders2[0]:.2f},{orders2[1]:.2f}")
    dt = time.time() - t0
    _report(8, "oracle agreement", ok and dt < 120.0, f"({'; '.join(details)}, {dt:.1f}s)")


def test_criterion_9_lifting_round_trip():
    t0 = time.time()
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam_x = choose_lifting_family(k, N, D).basis
    fam_v = cfg.vertical_family()
    g1 = Spectrum.from_pairs(fam_x, [(0, 0.7), (2, -0.3 + 0.45j)])
    vert = Spectrum.from_pairs(fam_v, [(1, 0.4j), (3, 1.2 - 0.8j)])

    aux_star = solve_datum(cfg, Side.BOTTOM, g1, k)
    vert_star = solve_datum(cfg, Side.LEFT, vert, k)
    u_star = superpose([aux_star, vert_star])

    def right_trace(y):
        return evaluate(u_star, np.column_stack([np.ones_like(y), y]))[0]  # Dirichlet

    def left_trace(y):
        v, gx, _ = evaluate(u_star, np.column_stack([np.zeros_like(y), y]))
        return -gx - 1j * k * v

    depth = 48
    g2 = project(right_trace, fam_v, depth)
    g4 = project(left_trace, fam_v, depth)

    u_rec = solve_problem(cfg, {Side.BOTTOM: g1, Side.RIGHT: g2, Side.LEFT: g4}, k)

    pts = [(x, y) for x in np.linspace(0, 1, 33) for y in np.linspace(0, 1, 33)]
    a = evaluate(u_star, pts)
    b = evaluate(u_rec, pts)
    perr = float(np.max(np.abs(a[0] - b[0])))

    # boundary residuals of the reconstruction against the manufactured data
    ts = np.linspace(0.0, 1.0, 65)
    worst_bc = 0.0
    for side in Side:
        if side is Side.LEFT:
            pts_b = [(0.0, t) for t in ts]
        elif side is Side.RIGHT:
            pts_b = [(1.0, t) for t in ts]
        elif side is Side.BOTTOM:
            pts_b = [(t, 0.0) for t in ts]
        else:
            pts_b = [(t, 1.0) for t in ts]
        rec = evaluate(u_rec, pts_b)
        star = evaluate(u_star, pts_b)
        op = cfg.operator(side)
        for t, vr, gxr, gyr, vs, gxs, gys in zip(ts, *rec, *star):
            if side is Side.BOTTOM:
                br, bs = -gyr, -gys
            elif side is Side.TOP:
                br, bs = gyr, gys
            elif side is Side.LEFT:
                br, bs = -gxr - 1j * k * vr, -gxs - 1j * k * vs
            else:
                br, bs = gxr, gxs
            if op is D:
                br, bs = vr, vs
            # the manufactured data are the traces of u_star; g1 itself on BOTTOM
            if side is Side.BOTTOM:
                bs = complex(g1.expand(t))
            worst_bc = max(worst_bc, abs(br - bs))
    dt = time.time() - t0
    ok = perr <= 1e-6 and worst_bc <= 1e-6 * (1 + k) and dt < 30.0
    _report(9, "lifting round trip", ok,
            f"(pointwise {perr:.2e}, boundary {worst_bc:.2e}, {dt:.1f}s)")
