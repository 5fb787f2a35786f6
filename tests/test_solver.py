"""Series assembly, evaluation, energies, traces, sources, superposition."""

import cmath
import functools
import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import helmstab.cli as cli
import helmstab.solver as solver
from helmstab.cli import parse_run_config
from helmstab.eigenbasis import (
    BasisFamily,
    BoundaryOperator,
    Spectrum,
    basis_derivative,
    basis_value,
    project,
    _sample,
)
from helmstab.modal1d import (
    CUTOFF,
    EVANESCENT,
    PROPAGATING,
    ModeTable,
    Side,
    choose_lifting_family,
    mode_table,
    _apply,
)
from helmstab.oracle import fdm_solve
from helmstab.solver import (
    BoundaryConfig,
    ProjectionTail,
    SeriesSolution,
    SourceTable,
    TAIL_WARNING_LIMIT,
    default_projection_depth,
    default_truncation,
    energy_parseval,
    energy_quadrature,
    evaluate,
    evaluate_grid,
    lift,
    solve_datum,
    solve_problem,
    solve_source,
    superpose,
    _NODES,
    _SOURCE_CHUNK,
    _WEIGHTS,
    _gauss_grid,
    _grid_tables,
)

D, N, I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE
PI = math.pi

GRID = [(x, y) for x in np.linspace(0, 1, 9) for y in np.linspace(0, 1, 9)]


def plane_wave_problem(k):
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    data = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, -2j * k)])
    return cfg, data


def boundary_samples(m=65):
    return np.linspace(0.0, 1.0, m)


def side_residual(u, side, op, k, datum_fn):
    """Max |B(u) - datum| along one side."""
    ts = boundary_samples()
    if side is Side.LEFT:
        pts = [(0.0, t) for t in ts]
    elif side is Side.RIGHT:
        pts = [(1.0, t) for t in ts]
    elif side is Side.BOTTOM:
        pts = [(t, 0.0) for t in ts]
    else:
        pts = [(t, 1.0) for t in ts]
    out = evaluate(u, pts)
    worst = 0.0
    for t, v, gx, gy in zip(ts, *out):
        if side is Side.LEFT:
            nrm = -gx
        elif side is Side.RIGHT:
            nrm = gx
        elif side is Side.BOTTOM:
            nrm = -gy
        else:
            nrm = gy
        if op is D:
            b = v
        elif op is N:
            b = nrm
        else:
            b = nrm - 1j * k * v
        worst = max(worst, abs(b - datum_fn(t)))
    return worst


# --------------------------------------------------------------------------
# configuration validation
# --------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        BoundaryConfig(bottom=I, right=D, top=D)
    with pytest.raises(ValueError):
        BoundaryConfig(bottom=D, right=D, top=D, left=D)
    cfg = BoundaryConfig(bottom=D, right=I, top=N)
    assert cfg.vertical_family() is BasisFamily.SIN_HALF


def test_config_operators_given_by_value_solve_the_same_problem():
    """An operator given by its value is that operator, on every side: a
    "dirichlet" right side is solved as Dirichlet, not as impedance."""
    by_value = BoundaryConfig("neumann", "dirichlet", "dirichlet", "impedance")
    assert by_value == BoundaryConfig(N, D, D)
    assert all(isinstance(by_value.operator(side), BoundaryOperator) for side in Side)
    g = Spectrum.from_pairs(BasisFamily.COS_HALF, [(0, 1.0)])
    energy = energy_parseval(solve_datum(by_value, Side.LEFT, g, 4.0)).energy
    assert energy == energy_parseval(solve_datum(BoundaryConfig(N, D, D), Side.LEFT, g, 4.0)).energy
    assert energy != energy_parseval(solve_datum(BoundaryConfig(N, I, D), Side.LEFT, g, 4.0)).energy


@pytest.mark.parametrize("side,args", [("bottom", ("Neumann", D, D)),
                                       ("right", (N, "dirichlet ", D)),
                                       ("top", (N, D, 1)),
                                       ("left", (N, D, D, None))])
def test_config_refuses_what_is_no_operator_by_side(side, args):
    with pytest.raises(ValueError, match=f"^the {side} operator must be one of "):
        BoundaryConfig(*args)


# --------------------------------------------------------------------------
# vertical solves
# --------------------------------------------------------------------------


def test_plane_wave_solution():
    k = 3 * PI
    cfg, data = plane_wave_problem(k)
    u = solve_datum(cfg, Side.LEFT, data, k)
    pts = np.array([(x, y) for x in np.linspace(0, 1, 33) for y in np.linspace(0, 1, 33)])
    values, _, _ = evaluate(u, pts)
    assert np.max(np.abs(values - np.exp(1j * k * pts[:, 0]))) <= 1e-10


def test_empty_data_zero_solution():
    cfg, _ = plane_wave_problem(2.0)
    u = solve_datum(cfg, Side.LEFT, Spectrum.zero(BasisFamily.COS_INT), 2.0)
    assert len(u.modes) == 0
    assert energy_parseval(u).energy == 0.0
    assert all(np.all(f == 0) for f in evaluate(u, GRID))
    t = np.linspace(0.0, 1.0, 5)
    assert all(np.array_equal(f, np.zeros((5, 5))) for f in evaluate_grid(u, t, t))


def test_example_dirichlet_case_profile():
    """Datum on the left with a Dirichlet right side gives -sin(pi x)/pi."""
    fam = BasisFamily.SIN_INT
    n = 2
    mu = fam.eigenvalue(n)
    k = math.sqrt(mu * mu + PI * PI)
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    u = solve_datum(cfg, Side.LEFT, Spectrum.from_pairs(fam, [(n, 1.0)]), k)
    for x, y in GRID:
        expect = -math.sin(PI * x) / PI * basis_value(fam, n, y)
        got = evaluate(u, [(x, y)])[0][0]
        assert abs(got - expect) < 1e-12


def test_family_mismatch_rejected():
    cfg, _ = plane_wave_problem(2.0)
    with pytest.raises(ValueError):
        solve_datum(cfg, Side.LEFT, Spectrum.from_pairs(BasisFamily.SIN_INT, [(1, 1)]), 2.0)


def test_truncation_monotonicity_bit_identical():
    cfg = BoundaryConfig(bottom=D, right=N, top=N)
    fam = cfg.vertical_family()
    data = Spectrum.from_pairs(fam, [(0, 1.0), (3, 2.0 - 1j)])
    k = 4.4
    u1 = solve_datum(cfg, Side.LEFT, data, k, truncation=3)
    u2 = solve_datum(cfg, Side.LEFT, data, k, truncation=50)
    pts = GRID
    a = evaluate(u1, pts)
    b = evaluate(u2, pts)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_solves_reject_datum_modes_above_truncation():
    """An explicit truncation below a nonzero datum mode, or below any source
    mode, raises instead of dropping that mode from the series."""
    k = 4.4
    cfg = BoundaryConfig(bottom=D, right=N, top=N)
    fam = cfg.vertical_family()
    with pytest.raises(ValueError, match="mode 40 lies above truncation 10"):
        solve_datum(cfg, Side.LEFT, Spectrum.from_pairs(fam, [(0, 1.0), (40, 1.0)]),
                    k, truncation=10)
    zero_tail = Spectrum.from_pairs(fam, [(0, 1.0), (40, 0.0)])
    assert solve_datum(cfg, Side.LEFT, zero_tail, k, 10).modes.tolist() == [0]

    lifted = BoundaryConfig(bottom=N, right=D, top=D)
    hfam = choose_lifting_family(k, N, D).basis
    with pytest.raises(ValueError, match="mode 12 lies above truncation 3"):
        solve_datum(lifted, Side.TOP, Spectrum.from_pairs(hfam, [(1, 1.0), (12, 1.0)]), k,
                    truncation=3)

    source_cfg = BoundaryConfig(bottom=D, right=D, top=D)
    with pytest.raises(ValueError, match="mode 9 lies above truncation 4"):
        solve_source([(1, np.cos), (9, np.cos)], source_cfg, k, truncation=4)
    assert solve_source([(1, np.cos)], source_cfg, k, truncation=4).modes.tolist() == [1]


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    beta=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_solve_linearity(alpha, beta):
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam = cfg.vertical_family()
    k = 5.3
    g = Spectrum.from_pairs(fam, [(1, 1.0), (4, -0.5j)])
    h = Spectrum.from_pairs(fam, [(1, 0.25), (2, 2.0)])
    combo = Spectrum.from_pairs(
        fam,
        {n: alpha * dict(g).get(n, 0) + beta * dict(h).get(n, 0) for n in (1, 2, 4)}.items(),
    )
    pts = [(0.3, 0.2), (0.8, 0.9), (0.0, 0.5), (1.0, 0.1)]
    vc = evaluate(solve_datum(cfg, Side.RIGHT, combo, k), pts)[0]
    vg = evaluate(solve_datum(cfg, Side.RIGHT, g, k), pts)[0]
    vh = evaluate(solve_datum(cfg, Side.RIGHT, h, k), pts)[0]
    scale = 1.0 + np.max(np.abs(vg)) + np.max(np.abs(vh))
    assert (np.max(np.abs(vc - (alpha * vg + beta * vh)))
            <= 1e-12 * scale * (abs(alpha) + abs(beta) + 1))


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def test_evaluate_examples():
    k = 2 * PI
    cfg, data = plane_wave_problem(k)
    u = solve_datum(cfg, Side.LEFT, data, k)
    v = evaluate(u, [(0.5, 0.25)])[0][0]
    assert abs(v - cmath.exp(1j * k / 2)) < 1e-10

    single = SeriesSolution(cfg, k, 3, u.blocks)
    block = u.blocks[0]
    x, y = 0.37, 0.81
    expect = (block.c[0] * profile_at(block.profiles, 0, x)[0]
              * member_at(block.basis, int(block.n[0]), y)[0])
    assert abs(evaluate(single, [(x, y)])[0][0] - expect) < 1e-14


def test_evaluate_rejects_outside_domain():
    cfg, data = plane_wave_problem(1.0)
    u = solve_datum(cfg, Side.LEFT, data, 1.0)
    with pytest.raises(ValueError):
        evaluate(u, [(1.2, 0.5)])
    with pytest.raises(ValueError):
        evaluate(u, [(0.5, -0.01)])
    for points in ([(0.5, 0.5, 0.5)], [0.5, 0.5, 0.5], [[0.5], [0.5]]):
        with pytest.raises(ValueError, match=r"points must be \(x, y\) pairs"):
            evaluate(u, points)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            evaluate(u, [(bad, 0.5)])
        with pytest.raises(ValueError):
            evaluate(u, [(0.25, 0.25), (0.5, bad)])
    for tx, ty in (([1.2], [0.5]), ([0.5], [0.0, -0.01]), ([math.nan], [0.5]),
                   ([0.5], [math.inf]), ([[0.5]], [0.5])):
        with pytest.raises(ValueError):
            evaluate_grid(u, tx, ty)


def profile_at(profiles, i, t):
    """Profile i of a block and its derivative at the scalar t, from the
    closed form of its table row (or the SourceTable itself)."""
    if not isinstance(profiles, ModeTable):
        value, derivative = profiles.value_and_derivative([t])
        return complex(value[i, 0]), complex(derivative[i, 0])
    # A e^{st} + B e^s sinh(st)/s, which is A + B t at the cutoff s = 0
    s = complex(profiles.sigma[i])
    a, b = complex(profiles.A[i]), complex(profiles.B[i])
    if s == 0:
        return a + b * t, b
    ef, es = cmath.exp(s * t), cmath.exp(s)
    return a * ef + b * es * cmath.sinh(s * t) / s, s * a * ef + b * es * cmath.cosh(s * t)


def member_at(family, n, t):
    """Basis member n and its derivative at the scalar t, by the calculus
    formulas for sqrt(2) sin(mu t) and sqrt(2) cos(mu t)."""
    mu = family.eigenvalue(n)
    scale = 1.0 if family is BasisFamily.COS_INT and n == 0 else math.sqrt(2.0)
    if family in (BasisFamily.SIN_INT, BasisFamily.SIN_HALF):
        return scale * math.sin(mu * t), scale * mu * math.cos(mu * t)
    return scale * math.cos(mu * t), -scale * mu * math.sin(mu * t)


def pointwise_reference(u, pts):
    """One point at a time, one term at a time, scalar closed forms: the
    reference that the tabulated evaluation must reproduce."""
    rows = sorted(((int(b.n[i]), b, i) for b in u.blocks for i in range(len(b.n))),
                  key=lambda row: row[0])
    out = []
    for x, y in pts:
        v = gx = gy = 0.0 + 0.0j
        for n, block, i in rows:
            y_profile = block.part in (Side.BOTTOM, Side.TOP)
            p = profile_at(block.profiles, i, y if y_profile else x)
            m = member_at(block.basis, n, x if y_profile else y)
            (xv, xd), (yv, yd) = (m, p) if y_profile else (p, m)
            c = complex(block.c[i])
            v += c * xv * yv
            gx += c * xd * yv
            gy += c * xv * yd
        out.append((v, gx, gy))
    return np.array(out)


def reference_cases():
    k_cut = 2 * PI  # COS_INT mode 2 sits exactly at the cutoff
    cfg_cut = BoundaryConfig(bottom=N, right=N, top=N)
    cut = solve_datum(
        cfg_cut, Side.LEFT,
        Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0), (2, 0.5 - 1j), (5, 0.25j)]), k_cut,
    )
    assert np.any(cut.blocks[0].profiles.regime == CUTOFF)

    k = 9.1
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam_x = choose_lifting_family(k, N, D).basis
    aux = solve_datum(cfg, Side.BOTTOM, Spectrum.from_pairs(fam_x, [(0, 1.0), (3, -0.5j)]), k)
    vert = solve_datum(
        cfg, Side.LEFT, Spectrum.from_pairs(cfg.vertical_family(), [(0, 0.3), (4, 1j)]), k
    )
    superposed = superpose([aux, vert])

    k_src = 4.2
    cfg_src = BoundaryConfig(bottom=D, right=D, top=D)
    _, fhat = manufactured_source(k_src, cfg_src, n=1)
    source = solve_source([(1, fhat), (3, lambda x: np.cos(2.0 * np.asarray(x)))], cfg_src, k_src)
    return {"cutoff": cut, "superposed": superposed, "source": source}


@pytest.mark.parametrize("case", ["cutoff", "superposed", "source"])
def test_evaluate_matches_pointwise_reference(case):
    u = reference_cases()[case]

    def check(got, pts):
        want = pointwise_reference(u, pts)
        for col in range(3):
            scale = np.max(np.abs(want[:, col]))
            assert scale > 0
            assert np.max(np.abs(got[:, col] - want[:, col])) <= 1e-13 * scale

    t = np.linspace(0.0, 1.0, 11)
    X, Y = np.meshgrid(t, t[::2], indexing="ij")
    grid = np.column_stack([X.ravel(), Y.ravel()])
    rng = np.random.default_rng(11)
    scattered = rng.uniform(0.0, 1.0, size=(40, 2))
    duplicated = np.vstack([scattered[:5], grid[:7], scattered[:5], [[0.3, 0.7]] * 3])
    for pts in (grid, scattered, duplicated):
        check(np.column_stack(evaluate(u, pts)), pts)
    # tensor grids: nx != ny with both ends, 1 x n and n x 1
    for tx, ty in ((t, t[::2]), (t[4:5], t), (t, t[7:8])):
        fields = evaluate_grid(u, tx, ty)
        assert all(f.shape == (len(tx), len(ty)) for f in fields)
        X, Y = np.meshgrid(tx, ty, indexing="ij")
        check(np.column_stack([f.ravel() for f in fields]), np.column_stack([X.ravel(), Y.ravel()]))
    # a repeated point gets the same value each time
    out = evaluate(u, [(0.3, 0.7)] * 3)
    assert all(f[0] == f[1] == f[2] for f in out)


def test_grid_tables_hold_real_y_factors():
    """The y factors of every block are float64: the lifted blocks'
    profiles with their imaginary roundoff dropped, the residual and source
    blocks' basis members.  The x factors stay complex, and a left datum's
    impedance profiles keep their imaginary part."""
    run = parse_run_config({
        "k": 7.3, "boundary": {"bottom": "dirichlet", "right": "dirichlet", "top": "neumann"},
        "data": {"left": "constant:1,0.5", "right": [[1, 1.0, 0.0], [3, 0.2, -0.4]],
                 "bottom": [[0, 0.7, 0.0], [2, 0.3, -0.1]], "top": "constant:0.4"},
        "source": "mode:3"})
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
        assert [b.part for b in u.blocks] == [Side.BOTTOM, Side.TOP, Side.RIGHT, Side.LEFT, None]
        assert isinstance(u.blocks[-1].profiles, SourceTable)
        tx, ty = np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 9)
        for part in [SeriesSolution(u.config, u.k, u.truncation, (b,)) for b in u.blocks] + [u]:
            cx, cdx, y, dy = _grid_tables(part, tx, ty)
            assert cx.dtype == cdx.dtype == complex and y.dtype == dy.dtype == np.float64
    left = u.blocks[3]  # the left residual solve
    cx, cdx, _, _ = _grid_tables(SeriesSolution(u.config, u.k, u.truncation, (left,)), tx, ty)
    assert np.max(np.abs(cx.imag)) > 0.1 * np.max(np.abs(cx))
    assert np.max(np.abs(cdx.imag)) > 0.1 * np.max(np.abs(cdx))


def _cutoff_band():
    """Wavenumbers at, and just off, eigenvalues of both lifting lattices,
    where the mixed pairs' lattice has a CUTOFF row or one beside it."""
    mus = [PI, 2.5 * PI, 30.0 * PI, 79.5 * PI]
    return [mu * (1.0 + d) for mu in mus for d in (0.0, 1e-9, -1e-9, 4e-9, -4e-9, 1e-8, -1e-8,
                                                   1e-7, -1e-7, 1e-5, -1e-5)]


@pytest.mark.parametrize("b_bottom,b_top", [(D, D), (N, N), (D, N), (N, D)])
def test_lifting_profiles_are_real_up_to_roundoff(b_bottom, b_top):
    """A lifting profile solves a real problem, so the imaginary part that
    the tables drop is roundoff: per row, max|Im Y| and max|Im Y'| stay
    below 1e-11 of max|Y| and max|Y'|, for either datum side, on the rows
    of every projection depth, at geometric k in [0.05, 250] and in the
    cutoff band."""
    t = np.linspace(0.0, 1.0, 257)
    cutoff_rows = 0
    for k in [*np.geomspace(0.05, 250.0, 41), *_cutoff_band()]:
        family = choose_lifting_family(k, b_bottom, b_top).basis
        ns = np.arange(default_projection_depth(k) + 1)
        for side in (Side.BOTTOM, Side.TOP):
            table = mode_table(ns, k, (b_bottom, b_top), side, family)
            cutoff_rows += np.count_nonzero(table.regime == CUTOFF)
            for f in table.value_and_derivative(t):
                peak = np.max(np.abs(f), axis=1)  # 0 for Y' = 0 at a Neumann cutoff
                assert np.all(np.max(np.abs(f.imag), axis=1) <= 1e-11 * peak), (k, side)
    assert (cutoff_rows > 0) == (b_bottom is not b_top)


# --------------------------------------------------------------------------
# energies
# --------------------------------------------------------------------------


def test_energy_parseval_plane_wave():
    k = 3 * PI
    cfg, data = plane_wave_problem(k)
    u = solve_datum(cfg, Side.LEFT, data, k)
    rep = energy_parseval(u)
    assert rep.grad_norm == pytest.approx(k, rel=1e-12)
    assert rep.l2_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.energy == pytest.approx(2 * k, rel=1e-12)


def test_energy_single_mode_equals_density():
    cfg = BoundaryConfig(bottom=D, right=N, top=N)
    fam = cfg.vertical_family()
    k, n = 6.6, 4
    u = solve_datum(cfg, Side.LEFT, Spectrum.from_pairs(fam, [(n, 1.0)]), k)
    rep = energy_parseval(u)
    table = u.blocks[0].profiles
    density = table.dnorm_sq[0] + (fam.eigenvalue(n) ** 2 + k * k) * table.norm_sq[0]
    assert rep.grad_norm**2 + k * k * rep.l2_norm**2 == pytest.approx(density, rel=1e-12)


def test_energy_quadrature_plane_wave_and_example():
    k = 3 * PI
    cfg, data = plane_wave_problem(k)
    u = solve_datum(cfg, Side.LEFT, data, k)
    rep = energy_quadrature(u, 33)
    assert rep.energy == pytest.approx(2 * k, rel=1e-8)
    with pytest.raises(ValueError):
        energy_quadrature(u, 9)

    # Neumann right-side example: energy (2 sqrt2 / pi) k
    fam = BasisFamily.SIN_INT
    n = 2
    k2 = math.sqrt(fam.eigenvalue(n) ** 2 + PI * PI / 4)
    cfg2 = BoundaryConfig(bottom=D, right=N, top=D)
    u2 = solve_datum(cfg2, Side.LEFT, Spectrum.from_pairs(fam, [(n, 1.0)]), k2)
    assert energy_quadrature(u2, 33).energy == pytest.approx(
        2 * math.sqrt(2) / PI * k2, rel=1e-8
    )


def test_parseval_vs_quadrature_mixed_regimes():
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam = cfg.vertical_family()
    k = 11.0
    data = Spectrum.from_pairs(fam, [(0, 1.0), (2, -1j), (5, 0.3), (9, 0.1j)])
    u = solve_datum(cfg, Side.LEFT, data, k)
    p = energy_parseval(u)
    q = energy_quadrature(u, 65)
    assert abs(p.energy - q.energy) <= 1e-6 * (1 + p.energy)


# --------------------------------------------------------------------------
# superposition
# --------------------------------------------------------------------------


def test_superpose_identity_and_cancellation():
    k = 4.0
    cfg, data = plane_wave_problem(k)
    u = solve_datum(cfg, Side.LEFT, data, k)
    s1 = superpose([u])
    a = evaluate(u, GRID)
    b = evaluate(s1, GRID)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))

    negated = solve_datum(cfg, Side.LEFT, Spectrum(data.family, data.n, -data.c), k)
    zero = superpose([u, negated])
    assert np.max(np.abs(evaluate(zero, GRID)[0])) < 1e-12


def test_superpose_rejects_mismatch():
    cfg, data = plane_wave_problem(2.0)
    u1 = solve_datum(cfg, Side.LEFT, data, 2.0)
    u2 = solve_datum(cfg, Side.LEFT, data, 3.0)
    with pytest.raises(ValueError):
        superpose([u1, u2])
    cfg2 = BoundaryConfig(bottom=D, right=I, top=D)
    u3 = solve_datum(cfg2, Side.LEFT, Spectrum.from_pairs(BasisFamily.SIN_INT, [(1, 1)]), 2.0)
    with pytest.raises(ValueError):
        superpose([u1, u3])
    with pytest.raises(ValueError):
        superpose([])
    with pytest.raises(ValueError):
        energy_parseval(superpose([u1, u1]))


def test_superpose_keeps_every_parts_tails_in_part_order():
    """The parts' tails in part order, and so their warnings: one per tail
    above TAIL_WARNING_LIMIT."""
    cfg, data = plane_wave_problem(2.0)
    u = solve_datum(cfg, Side.LEFT, data, 2.0)
    a = (ProjectionTail(Side.RIGHT, 40, 0.0), ProjectionTail(Side.LEFT, 40, 1e-3))
    b = (ProjectionTail(Side.RIGHT, 24, TAIL_WARNING_LIMIT), ProjectionTail(Side.LEFT, 24, 0.5))
    parts = [SeriesSolution(cfg, 2.0, 24, u.blocks, a), u, SeriesSolution(cfg, 2.0, 40, (), b)]
    assert u.tails == () and u.warnings == []
    assert superpose(parts).tails == a + b
    assert superpose(parts[::-1]).tails == b + a
    assert superpose(parts).warnings == [
        "trace projection on the left side left 1.00e-03 of its energy beyond mode 40",
        "trace projection on the left side left 5.00e-01 of its energy beyond mode 24"]
    assert superpose(parts[::-1]).warnings == superpose(parts).warnings[::-1]


def test_superpose_keeps_every_parts_blocks_in_part_order():
    """Each block names the part it solves, the side of its datum or None
    for the source, and superpose keeps the parts' blocks in part order."""
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    vertical, lattice = cfg.vertical_family(), choose_lifting_family(k, N, D).basis
    parts = [solve_datum(cfg, Side.TOP, Spectrum.from_pairs(lattice, [(1, 1.0)]), k),
             solve_source([(1, np.cos)], cfg, k),
             solve_datum(cfg, Side.LEFT, Spectrum.from_pairs(vertical, [(2, 1.0)]), k),
             solve_datum(cfg, Side.RIGHT, Spectrum.from_pairs(vertical, [(0, 1j)]), k)]
    blocks = [b for p in parts for b in p.blocks]
    assert [b.part for b in blocks] == [Side.TOP, None, Side.LEFT, Side.RIGHT]
    for order in (parts, parts[::-1]):
        expected, kept = [b for p in order for b in p.blocks], superpose(order).blocks
        assert len(kept) == len(expected) and all(a is b for a, b in zip(kept, expected))


# --------------------------------------------------------------------------
# lifting and residual traces
# --------------------------------------------------------------------------


def test_lift_family_admissibility():
    k = PI  # half-integer family for equal operators
    cfg = BoundaryConfig(bottom=N, right=D, top=N)
    with pytest.raises(ValueError):
        solve_datum(cfg, Side.BOTTOM, Spectrum.from_pairs(BasisFamily.COS_INT, [(1, 1)]), k)
    aux = solve_datum(cfg, Side.BOTTOM, Spectrum.from_pairs(BasisFamily.COS_HALF, [(1, 1)]), k)
    assert [block.part for block in aux.blocks] == [Side.BOTTOM]
    # Right and left data expand in the vertical family, cos-int here.
    with pytest.raises(ValueError, match="vertical data must be in the vertical eigenbasis"):
        lift(cfg, {Side.RIGHT: Spectrum.from_pairs(BasisFamily.SIN_INT, [(1, 1)])}, k)


def test_lift_zero_datum():
    cfg = BoundaryConfig(bottom=N, right=D, top=N)
    aux = solve_datum(cfg, Side.BOTTOM, Spectrum.zero(BasisFamily.COS_HALF), PI)
    assert len(aux.modes) == 0
    assert energy_parseval(aux).energy == 0.0


def test_lift_termwise_pde_residual():
    """Each lifted term satisfies the field equation."""
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam = choose_lifting_family(k, N, D).basis
    g = Spectrum.from_pairs(fam, [(0, 1.0), (3, 0.5j)])
    aux = solve_datum(cfg, Side.BOTTOM, g, k)
    h = 1e-3
    for x, y in [(0.3, 0.4), (0.7, 0.6), (0.5, 0.5)]:
        def val(px, py):
            return evaluate(aux, [(px, py)])[0][0]
        lap = (
            val(x - h, y) + val(x + h, y) + val(x, y - h) + val(x, y + h) - 4 * val(x, y)
        ) / (h * h)
        resid = lap + k * k * val(x, y)
        assert abs(resid) < 1e-5 * (1 + k * k) * max(abs(val(x, y)), 1.0)


def test_lift_at_dirichlet_cutoff_reproduces_datum():
    """At k = pi the lattice chosen for a Dirichlet bottom and a Neumann top
    is the integer one, whose mode 1 sits exactly at the cutoff; its
    polynomial row keeps the lifted field on the bottom datum."""
    k = PI
    cfg = BoundaryConfig(bottom=D, right=D, top=N)
    assert choose_lifting_family(k, D, N).basis is BasisFamily.COS_INT
    g = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0), (1, 0.5 - 0.25j), (3, 0.2j)])
    aux = solve_datum(cfg, Side.BOTTOM, g, k)
    assert aux.blocks[0].profiles.regime.tolist() == [PROPAGATING, CUTOFF, EVANESCENT]
    assert side_residual(aux, Side.BOTTOM, D, k, g.expand) < 1e-12
    assert side_residual(aux, Side.TOP, N, k, lambda t: 0.0) < 1e-12


def test_residual_traces_zero_aux():
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam_v = cfg.vertical_family()
    g2 = Spectrum.from_pairs(fam_v, [(1, 2.0), (3, -1j)])
    g4 = Spectrum.from_pairs(fam_v, [(0, 1.0)])
    zero = Spectrum.zero(BasisFamily.COS_INT)
    lifted, r2, r4 = lift(cfg, {Side.BOTTOM: zero, Side.RIGHT: g2, Side.LEFT: g4}, k)
    assert r2 == g2 and r4 == g4
    assert [t.fraction for t in lifted.tails] == [0.0, 0.0]


def test_lift_without_horizontal_data_has_no_tails():
    """No bottom or top datum: nothing is projected and there are no tails,
    also in the whole solve."""
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    g4 = Spectrum.from_pairs(cfg.vertical_family(), [(0, 1.0), (2, 0.5j)])
    lifted, r2, r4 = lift(cfg, {Side.LEFT: g4}, k)
    assert lifted.tails == () and lifted.blocks == ()
    assert len(r2) == 0 and r4 == g4
    assert solve_problem(cfg, {Side.LEFT: g4}, k).tails == ()


def test_residual_traces_single_mode_analytic():
    """Right-side Dirichlet residual of a single lifted mode matches the
    analytic trigonometric projection integrals."""
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam_x = BasisFamily.COS_INT
    assert choose_lifting_family(k, N, D).basis is fam_x
    fam_v = cfg.vertical_family()
    n = 2
    g1 = Spectrum.from_pairs(fam_x, [(n, 1.0)])
    aux, r2, r4 = lift(cfg, {Side.BOTTOM: g1}, k)
    # analytic: residual_2[m] = -X~_n(1) * int Y~_n(y) Y_m(y) dy
    block = aux.blocks[0]
    xn_at_1 = member_at(fam_x, n, 1.0)[0]

    def yfun(y):
        return profile_at(block.profiles, 0, y)[0]

    for m in (0, 1, 5):
        integrand_re = lambda y: (yfun(y) * basis_value(fam_v, m, y)).real
        integrand_im = lambda y: (yfun(y) * basis_value(fam_v, m, y)).imag
        cm = complex(quad(integrand_re, 0, 1, epsabs=1e-13)[0],
                     quad(integrand_im, 0, 1, epsabs=1e-13)[0])
        assert abs(dict(r2).get(m, 0) - (-(xn_at_1) * cm)) < 1e-10


@pytest.mark.parametrize("right", [D, N, I])
@pytest.mark.parametrize("family", list(BasisFamily))
def test_right_trace_is_zero_iff_the_operator_annihilates_the_family(family, right):
    """A lift's right trace is exactly 0 (the residual is the datum, the
    tail 0) when the right operator is the homogeneous condition its x
    factors meet at x = 1: Dirichlet for SIN_INT and COS_HALF, Neumann for
    COS_INT and SIN_HALF.  The operator on the members there is roundoff
    in exactly those cases; otherwise the trace is far above roundoff."""
    # Dirichlet bottom and top lift on the half-integer lattice at k = 2 pi
    # and on the integer one at k = sqrt(4.5) pi.
    k = 2 * PI if family.half_integer else math.sqrt(4.5) * PI
    assert choose_lifting_family(k, D, D).basis.half_integer == family.half_integer
    cfg = BoundaryConfig(bottom=D, right=right, top=D)
    data = {Side.BOTTOM: Spectrum.from_pairs(family, [(1, 1.0), (3, 0.5j)]),
            Side.RIGHT: Spectrum.from_pairs(cfg.vertical_family(), [(2, 0.25)])}
    datum = data[Side.RIGHT]
    lifted, residual, _ = lift(cfg, data, k)
    tails = lifted.tails
    annihilates = (family, right) in {(BasisFamily.SIN_INT, D), (BasisFamily.COS_HALF, D),
                                      (BasisFamily.COS_INT, N), (BasisFamily.SIN_HALF, N)}
    n = np.array([1, 3])
    on_members = _apply(right, basis_value(family, n, 1.0), basis_derivative(family, n, 1.0), k)
    assert bool(np.all(np.abs(on_members) < 1e-12)) == annihilates
    assert [t.side for t in tails] == [Side.RIGHT, Side.LEFT]
    if annihilates:
        assert residual == datum and tails[0].fraction == 0.0
    else:
        assert np.max(np.abs(residual.minus(datum).c)) > 1e-3


@functools.cache
def _script(relative: str, name: str):
    """The script at `relative` in the repository as the module `name`:
    bench/workloads.py builds the benchmark's configs, and
    tools/same_results.py holds the lifting configs."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


#: The lifting and pipeline configs of tools/same_results.py.
_LIFTING = _script("tools/same_results.py", "same_results").LIFTING
_PIPELINE = _script("tools/same_results.py", "same_results").PIPELINE


@pytest.mark.parametrize("truncation", [None, 40])
@pytest.mark.parametrize("name", [*_PIPELINE, *_LIFTING])
def test_residual_blocks_hold_lifts_residuals(name, truncation):
    """Each vertical side's residual is read off solve_problem's result: the
    (n, c) of the block whose part is that side are lift's nonzero residual
    coefficients, bit for bit, and a zero residual has no block."""
    run = parse_run_config({**{**_PIPELINE, **_LIFTING}[name], "truncation": truncation})
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    _, right, left = lift(run.config, run.data, run.k, run.truncation)
    for side, residual in ((Side.RIGHT, right), (Side.LEFT, left)):
        blocks = [b for b in u.blocks if b.part is side]
        kept = residual.c != 0
        if not np.count_nonzero(kept):
            assert blocks == []
            continue
        (block,) = blocks
        assert block.n.tobytes() == residual.n[kept].tobytes()
        assert block.c.tobytes() == residual.c[kept].tobytes()


#: The quadrature (grad, l2, energy) of the field solves, seeds 0-3, when the
#: right trace was projected and solved numerically (152 terms).
_FIELD_ENERGIES_WITH_ROUNDOFF_RIGHT_SOLVE = [
    (158.9818666453413, 2.6559102733074003, 318.33648304378534),
    (180.40175516450356, 3.005636767304963, 360.73996120280134),
    (197.49604897770527, 3.2988008222853478, 395.4240983148261),
    (361.0337884542618, 6.017228178937646, 722.0674791905205),
]


@pytest.mark.parametrize("seed", range(4))
def test_field_solve_skips_the_zero_right_trace(seed):
    """On the benchmark's field configs (Dirichlet right side, COS_HALF
    lifts) the right trace is 0: 6 lift terms plus 73 left residual terms,
    no warning names the right side, and the energies are those of the
    152-term solve that carried the right trace's roundoff, to 1e-12."""
    workloads = _script("bench/workloads.py", "bench_workloads")
    run = parse_run_config(workloads.field_config(seed, 129))
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    assert not [text for text in u.warnings if "right side" in text]
    assert len(u.modes) == 79
    assert [t.side for t in u.tails] == [Side.RIGHT, Side.LEFT] and u.tails[0].fraction == 0.0
    rep = energy_quadrature(u, 129)
    got = (rep.grad_norm, rep.l2_norm, rep.energy)
    for value, parent in zip(got, _FIELD_ENERGIES_WITH_ROUNDOFF_RIGHT_SOLVE[seed]):
        assert abs(value - parent) <= 1e-12 * parent


@pytest.mark.parametrize("entry", ["lift", "solve_problem"])
def test_two_sided_lift_projects_each_side_once(entry, monkeypatch):
    """A bottom and a top datum are lifted as one field: its traces are
    projected once, on both lifted blocks, and the tails are one per
    vertical side, right then left."""
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=I, top=D)
    lattice = choose_lifting_family(k, N, D).basis
    data = {Side.BOTTOM: Spectrum.from_pairs(lattice, [(0, 0.7), (2, 0.3 - 0.1j)]),
            Side.TOP: Spectrum.from_pairs(lattice, [(1, 0.4j)]),
            Side.LEFT: Spectrum.from_pairs(cfg.vertical_family(), [(1, 1.0)])}
    calls = []

    original = solver._residual_traces

    def counted(aux, *args):
        calls.append(len(aux.blocks))
        return original(aux, *args)

    monkeypatch.setattr(solver, "_residual_traces", counted)
    u = getattr(solver, entry)(cfg, data, k)
    u = u[0] if entry == "lift" else u
    assert calls == [2]
    assert [t.side for t in u.tails] == [Side.RIGHT, Side.LEFT]


@pytest.mark.parametrize("command", ["solve", "lift", "oracle"])
@pytest.mark.parametrize("name", ["field", "3.2-neumann-dirichlet"])
def test_reports_carry_the_solutions_tails(tmp_path, name, command):
    """The projection tails in the solve, lift and oracle reports are the
    run's, those of the solution the pipeline returns: on the benchmark's
    field config (seed 0, a coarse grid) and on a lifting config."""
    workloads = _script("bench/workloads.py", "bench_workloads")
    doc = workloads.field_config(0, 17) if name == "field" else _LIFTING[name]
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    run = parse_run_config(doc)
    flags = ["--n", "17"] if command == "oracle" else []
    assert cli.run([command, "--config", str(config), "--report", str(report), *flags]) == 0
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    lifted = lift(run.config, run.data, run.k, run.truncation)[0]
    assert u.tails == lifted.tails
    reported = json.loads(report.read_text())["diagnostics"]["projection_tail"]
    assert [(t["side"], t["depth"], t["tail"]) for t in reported] == [
        (t.side.value, t.depth, t.fraction) for t in u.tails]
    assert len(u.tails) == 2


#: The warnings of the benchmark's field workload at seed 0: solve and lift
#: on the k = 60 field config, and the oracle on its k = 6.5 config.
_FIELD_WARNINGS_SEED_0 = {
    "solve": ["trace projection on the left side left 2.94e-03 of its energy beyond mode 72"],
    "lift": ["trace projection on the left side left 2.94e-03 of its energy beyond mode 72"],
    "oracle": ["trace projection on the right side left 5.11e-07 of its energy beyond mode 38",
               "trace projection on the left side left 9.79e-07 of its energy beyond mode 38"],
}


@pytest.mark.parametrize("seed", [0, 5])
def test_field_workload_reports_print_their_warnings(tmp_path, capsys, seed):
    """Through cli.run on the benchmark's field workload configs (coarse
    grids), solve, lift and oracle raise no Python warning: each report's
    diagnostics.warnings are its solution's warnings and its stderr's
    `helmstab: warning:` lines, in order."""
    workloads = _script("bench/workloads.py", "bench_workloads")
    docs = {"solve": workloads.field_config(seed, 17), "lift": workloads.field_config(seed, 17),
            "oracle": workloads.oracle_config(seed)}
    said = {}
    for command, doc in docs.items():
        config, report = tmp_path / f"{command}.json", tmp_path / f"{command}-report.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        flags = ["--n", "17"] if command == "oracle" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run([command, "--config", str(config), "--report", str(report),
                            *flags]) == 0
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert all(line.startswith("helmstab: warning: ") for line in lines)
        said[command] = [line[len("helmstab: warning: "):] for line in lines]
        assert json.loads(report.read_text())["diagnostics"]["warnings"] == said[command]
        run = parse_run_config(doc)
        u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
        assert u.warnings == said[command]
    if seed == 0:
        assert said == _FIELD_WARNINGS_SEED_0


@pytest.mark.parametrize("name", list(_LIFTING))
def test_lift_residuals_are_linear_in_the_lifted_data(name):
    """On each lifting config, the residuals of the two-sided lift are the
    data minus the projected traces of the bottom lift alone and of the top
    lift alone, to 1e-13 of the largest coefficient."""
    run = parse_run_config(_LIFTING[name])
    zero = Spectrum.zero(run.config.vertical_family())
    data = [run.data.get(side, zero) for side in (Side.RIGHT, Side.LEFT)]
    residuals, tails = {}, []
    for lifted in ((Side.BOTTOM,), (Side.TOP,), (Side.BOTTOM, Side.TOP)):
        kept = {side: g for side, g in run.data.items() if side in lifted or side is Side.LEFT}
        field, *residuals[lifted] = lift(run.config, kept, run.k, run.truncation)
        tails += field.tails
    assert len({t.depth for t in tails}) == 1
    bottom, top, both = residuals.values()
    for datum, r_bottom, r_top, r_both in zip(data, bottom, top, both):
        scale = max(np.max(np.abs(r.c), initial=0.0) for r in (r_bottom, r_top, r_both))
        gap = r_both.minus(r_bottom.minus(datum)).minus(r_top)
        assert np.max(np.abs(gap.c), initial=0.0) <= 1e-13 * scale


def test_zero_solution_keeps_the_truncation():
    """No data and no source: the zero solution carries the requested
    truncation, or the default rule's without one."""
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    assert solve_problem(cfg, {}, 5.0, truncation=24).truncation == 24
    assert solve_problem(cfg, {}, 5.0).truncation == default_truncation(5.0, 0) == 18
    empty = {Side.LEFT: Spectrum.zero(cfg.vertical_family())}
    assert solve_problem(cfg, empty, 5.0, truncation=7).truncation == 7


def test_residual_traces_warns_on_shallow_depth():
    k = 7.3
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    fam_x = choose_lifting_family(k, D, D).basis
    lifted = lift(cfg, {Side.BOTTOM: Spectrum.from_pairs(fam_x, [(1, 1.0)])}, k, truncation=3)[0]
    assert lifted.warnings == [
        f"trace projection on the {side} side left 1.46e-02 of its energy beyond mode 3"
        for side in ("right", "left")]


def lifted_round_trip(k, cfg, g1, vert_spec):
    """Manufacture aux + vertical solution, run the full pipeline."""
    fam_v = cfg.vertical_family()
    aux_star = solve_datum(cfg, Side.BOTTOM, g1, k)
    vert_star = solve_datum(cfg, Side.LEFT, vert_spec, k)
    u_star = superpose([aux_star, vert_star])

    def right_trace(y):
        v, gx, _ = evaluate(u_star, np.column_stack([np.ones_like(y), y]))
        if cfg.right is D:
            return v
        if cfg.right is N:
            return gx
        return gx - 1j * k * v

    def left_trace(y):
        v, gx, _ = evaluate(u_star, np.column_stack([np.zeros_like(y), y]))
        return -gx - 1j * k * v

    depth = 48
    g2 = project(right_trace, fam_v, depth)
    g4 = project(left_trace, fam_v, depth)
    return u_star, solve_problem(cfg, {Side.BOTTOM: g1, Side.RIGHT: g2, Side.LEFT: g4}, k)


def test_full_round_trip_reproduces_manufactured_solution():
    k = 7.3
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    fam_x = choose_lifting_family(k, N, D).basis
    g1 = Spectrum.from_pairs(fam_x, [(0, 0.7), (2, -0.3 + 0.45j)])
    vert = Spectrum.from_pairs(cfg.vertical_family(), [(3, 1.2 - 0.8j)])
    u_star, u_rec = lifted_round_trip(k, cfg, g1, vert)
    pts = [(x, y) for x in np.linspace(0, 1, 33) for y in np.linspace(0, 1, 33)]
    a = evaluate(u_star, pts)
    b = evaluate(u_rec, pts)
    assert np.max(np.abs(a[0] - b[0])) < 1e-6


# --------------------------------------------------------------------------
# volumetric sources
# --------------------------------------------------------------------------


def manufactured_source(k, cfg, n=1):
    """Profile (1-x)(1+(1-ik)x) on mode n; satisfies both homogeneous ops."""
    fam = cfg.vertical_family()
    mu = fam.eigenvalue(n)

    def xstar(x):
        x = np.asarray(x)
        return (1 - x) * (1 + (1 - 1j * k) * x)

    def fhat(x):
        return 2 * (1 - 1j * k) - (k * k - mu * mu) * xstar(x)

    return xstar, fhat


def test_solve_source_zero():
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    u = solve_source([], cfg, 3.0)
    assert len(u.modes) == 0
    assert energy_parseval(u).energy == 0.0


def test_solve_source_manufactured():
    k = 4.2
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    fam = cfg.vertical_family()
    xstar, fhat = manufactured_source(k, cfg, n=1)
    u = solve_source([(1, fhat)], cfg, k)
    num = 0.0
    den = 0.0
    for x, y in GRID:
        got = evaluate(u, [(x, y)])[0][0]
        want = complex(xstar(x)) * basis_value(fam, 1, y)
        num += abs(got - want) ** 2
        den += abs(want) ** 2
    assert math.sqrt(num / den) < 1e-6


def test_solve_source_requires_dirichlet_right():
    cfg = BoundaryConfig(bottom=D, right=N, top=D)
    with pytest.raises(ValueError):
        solve_source([], cfg, 2.0)


def test_solve_source_refuses_the_zero_member():
    """Mode 0 of sin-int is the zero function: a source there is refused,
    not dropped, in the solve and in the oracle."""
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    for call in (lambda: solve_source([(0, np.cos)], cfg, 2.0),
                 lambda: solve_source([(2, np.sin), (0, np.cos)], cfg, 2.0),
                 lambda: fdm_solve(cfg, f=[(0, np.cos)], k=2.0, n=17)):
        with pytest.raises(ValueError, match="mode 0 of sin-int is the zero function"):
            call()


def _sin120(x):
    return np.sin(120.0 * np.asarray(x))


def _kink(x):
    return np.abs(np.asarray(x) - 0.37)


@pytest.mark.parametrize("n,fx,k", [
    pytest.param(2, None, 3.3, id="manufactured-3.3"),
    pytest.param(1, _sin120, 5.0, id="sin120x-5"),
    pytest.param(1, _sin120, 60.0, id="sin120x-60"),
    pytest.param(1, _kink, 5.0, id="kink-5"),
    pytest.param(1, _kink, 60.0, id="kink-60"),
])
def test_solve_source_callable_matches_modal(n, fx, k):
    """A callable f(x, y) = fx(x) Z_n(y) solves as the listed source
    [(n, fx)] however rough fx is: both sample fx on the same panel nodes,
    so their energies agree to 1e-13.  Without fx it is the manufactured
    profile, and f takes scalars only."""
    cfg = BoundaryConfig(bottom=N, right=D, top=N)
    fam = cfg.vertical_family()
    if fx is None:
        fx = manufactured_source(k, cfg, n=n)[1]

        def f2d(x, y):
            return complex(fx(x)) * float(basis_value(fam, n, y))
    else:
        def f2d(x, y):
            return fx(x) * basis_value(fam, n, y)

    u_modal = solve_source([(n, fx)], cfg, k)
    u_callable = solve_source(f2d, cfg, k, truncation=6)
    pts = [(0.21, 0.13), (0.5, 0.5), (0.83, 0.92)]
    a = evaluate(u_modal, pts)
    b = evaluate(u_callable, pts)
    assert np.max(np.abs(a[0] - b[0])) < 1e-8
    want = energy_parseval(u_modal).energy
    assert abs(energy_parseval(u_callable).energy - want) <= 1e-13 * want


@pytest.mark.parametrize("k", [5.0, 60.0])
def test_callable_source_drops_roundoff_modes(k, monkeypatch):
    """f = sin(120x) Z_1(y) projects to mode 1 plus roundoff in every other
    mode up to the truncation (18 rows at k = 5, 36 at k = 60, each with
    sqrt(f_norm_sq) at most 1.6e-16 against 0.706): only mode 1 is kept,
    and the dropped rows hold below 1e-28 of ||f||^2."""
    cfg = BoundaryConfig(bottom=N, right=D, top=N)
    fam = cfg.vertical_family()

    def f(x, y):
        return _sin120(x) * basis_value(fam, 1, y)

    assert solve_source(f, cfg, k).modes.tolist() == [1]
    monkeypatch.setattr(solver, "CALLABLE_SOURCE_FLOOR", 0.0)
    every = solve_source(f, cfg, k)
    norms = every.blocks[0].profiles.f_norm_sq
    assert len(every.modes) > 1
    assert math.fsum(norms[every.modes != 1]) < 1e-28 * math.fsum(norms)


def test_source_energy_bound_random():
    rng = np.random.default_rng(5)
    for k in (0.5, 1.0, 5.0, 20.0):
        cfg = BoundaryConfig(bottom=D, right=D, top=D)
        source = []
        for n in (1, 2, 4):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            source.append((n, lambda x, c=c: c[0] + c[1] * np.cos(2.1 * np.asarray(x))))
        u = solve_source(source, cfg, k)
        lhs = energy_parseval(u).energy
        fnorm = math.sqrt(math.fsum(u.blocks[0].profiles.f_norm_sq))
        assert lhs <= math.sqrt(30) * max(k * k, 1.0) * fnorm


def source_table(fx, k, mu):
    """The one-row SourceTable of the profile fx, sampled on the panel nodes."""
    return SourceTable(k, [mu], _sample(fx, _NODES.ravel()))


def test_source_norms_batched_equal_scalar_wrapped():
    """A source fx evaluated on whole node arrays gives the same norms as the
    same function called one scalar at a time through the wrapper."""
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    _, fhat = manufactured_source(4.2, cfg, n=1)

    def scalar_only(x):
        return complex(fhat(float(x)))

    with pytest.raises(TypeError):
        scalar_only(np.array([0.25, 0.75]))
    batched, wrapped = (
        math.sqrt(math.fsum(solve_source(f, cfg, 4.2).blocks[0].profiles.f_norm_sq))
        for f in ([(1, fhat), (2, np.cos)], [(1, scalar_only), (2, math.cos)]))
    assert abs(batched - wrapped) <= 1e-14 * batched
    for k in (4.2, 3 * PI, 40.0):
        for mu in (PI, 3 * PI, 20 * PI):
            a, b = source_table(fhat, k, mu), source_table(scalar_only, k, mu)
            assert abs(a.norm_sq[0] - b.norm_sq[0]) <= 1e-14 * a.norm_sq[0]
            assert abs(a.dnorm_sq[0] - b.dnorm_sq[0]) <= 1e-14 * a.dnorm_sq[0]


def smooth_source(x):
    x = np.asarray(x)
    return (1.0 + 2.0j) + np.sin(4.1 * x) - 0.7j * x**2


#: (k, mu) in every regime of a source row, and across the cutoff band.
SOURCE_REGIMES = [
    (5.0, PI),                      # propagating
    (3 * PI, 3 * PI),               # cutoff
    (4.2, 3 * PI),                  # evanescent
    (3 * PI * (1 + 1e-6), 3 * PI),  # propagating, relative gap 1e-6
    (3 * PI * (1 - 1e-6), 3 * PI),  # evanescent, relative gap 1e-6
    (4.2, 20 * PI),
    (0.05, PI / 2),
]


@pytest.mark.parametrize("k,mu", SOURCE_REGIMES)
def test_source_kernel_norms_match_pointwise_path(k, mu):
    """The norms from the fixed per-panel kernels equal a panel quadrature of
    value_and_derivative, whose local integrals are sub-rules built for
    each point."""
    table = source_table(smooth_source, k, mu)
    val, der = table.value_and_derivative(_NODES.ravel())
    norm_sq = math.fsum((_WEIGHTS * np.abs(val[0]) ** 2).tolist())
    dnorm_sq = math.fsum((_WEIGHTS * np.abs(der[0]) ** 2).tolist())
    assert abs(table.norm_sq[0] - norm_sq) <= 1e-13 * norm_sq
    assert abs(table.dnorm_sq[0] - dnorm_sq) <= 1e-13 * dnorm_sq


def test_source_profile_samples_fx_once():
    """A solve calls fx once, on the 48 x 16 panel nodes, with no probe;
    the kernel tables, the norms and every later evaluation share those
    samples."""
    calls = []

    def fx(t):
        calls.append(np.size(t))
        return smooth_source(t)

    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    for k in (5.0, 3 * PI, 4.2):
        calls.clear()
        u = solve_source([(1, fx)], cfg, k)
        assert calls == [48 * 16]
        evaluate(u, [(0.3, 0.4), (1.0, 0.5)])
        assert calls == [48 * 16]


def test_source_table_rows_are_independent():
    """An eleven-row table at k = 60, more rows than are built at once,
    equals eleven one-row tables bit for bit, in its norms and on any
    nodes."""
    k = 60.0
    mu = np.array([0.0, 3 * PI, 19 * PI, k, 20 * PI, 150 * PI, PI / 2, 5 * PI, 18.5 * PI,
                   2 * PI, 40 * PI])
    assert len(mu) > _SOURCE_CHUNK
    x = _NODES.ravel()
    f = np.stack([smooth_source(x) * (1.0 + 0.3j * r) + np.cos(r * x) for r in range(len(mu))])
    table = SourceTable(k, mu, f)
    t = np.array([0.0, 0.013, 0.5, 0.77, 1.0])
    value, derivative = table.value_and_derivative(t)
    for r in range(len(mu)):
        row = SourceTable(k, mu[r:r + 1], f[r:r + 1])
        assert row.norm_sq[0] == table.norm_sq[r] and row.dnorm_sq[0] == table.dnorm_sq[r]
        assert row.f_norm_sq[0] == table.f_norm_sq[r]
        v, d = row.value_and_derivative(t)
        assert v[0].tobytes() == value[r].tobytes() and d[0].tobytes() == derivative[r].tobytes()


def test_source_rows_are_smooth_across_the_cutoff_band():
    """Rows at relative gaps 0, +-1e-9 (inside the cutoff band, sigma = 0),
    +-1e-7 and +-1e-6 (outside) of one eigenvalue differ from the cutoff
    row by at most the size of k^2 - mu^2, in norms and values: no regime
    fork."""
    mu = 3 * PI
    gaps = np.array([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6])
    k = mu * np.sqrt(1.0 + gaps)
    t = np.linspace(0.0, 1.0, 17)
    cutoff = source_table(smooth_source, k[0], mu)
    v0, d0 = cutoff.value_and_derivative(t)
    for kk, gap in zip(k[1:], gaps[1:]):
        row = source_table(smooth_source, kk, mu)
        v, d = row.value_and_derivative(t)
        size = abs(kk * kk - mu * mu) + 1e-14
        assert abs(row.norm_sq[0] - cutoff.norm_sq[0]) <= size * cutoff.norm_sq[0]
        assert abs(row.dnorm_sq[0] - cutoff.dnorm_sq[0]) <= size * cutoff.dnorm_sq[0]
        assert np.max(np.abs(v - v0)) <= size * np.max(np.abs(v0))
        assert np.max(np.abs(d - d0)) <= size * np.max(np.abs(d0))


def test_source_certificate_samples_each_fx_once():
    """A TF certificate (solve, source norm and Parseval energy) calls each
    mode's fx exactly once, on the 768 panel nodes."""
    from helmstab.bounds import TheoremId, certify

    calls = {1: [], 3: []}

    def counted(n):
        def fx(t):
            calls[n].append(np.size(t))
            return smooth_source(t) * n
        return fx

    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    for k in (5.0, 60.0):
        for n in calls:
            calls[n].clear()
        cert = certify(TheoremId.TF_SOURCE, cfg, [(n, counted(n)) for n in calls], k)
        assert cert.passed
        assert calls == {1: [48 * 16], 3: [48 * 16]}


def test_callable_source_is_sampled_in_one_array_call():
    """An array-capable f(x, y) is called once on the whole panel-node by
    projection-node grid; a scalar-only f gives the same solution."""
    cfg = BoundaryConfig(bottom=N, right=D, top=D)
    calls = []

    def f(x, y):
        calls.append(np.shape(np.broadcast(x, y)))
        return np.exp(-20.0 * ((x - 0.4) ** 2 + (y - 0.6) ** 2)) * (1.0 + 1j * x)

    def scalar_only(x, y):
        if np.ndim(x) or np.ndim(y):
            raise TypeError("scalars only")
        return f(x, y)

    u = solve_source(f, cfg, 20.0)
    assert len(calls) == 1 and calls[0][0] == _NODES.size
    v = solve_source(scalar_only, cfg, 20.0)
    assert u.modes.tolist() == v.modes.tolist()
    a, b = energy_parseval(u).energy, energy_parseval(v).energy
    assert abs(a - b) <= 1e-13 * a


def test_memoized_energy_rule_is_read_only():
    """The memoized Gauss-Legendre arrays of energy_quadrature cannot be
    written, so no caller can alter a later quadrature."""
    cfg, data = plane_wave_problem(3.0)
    u = solve_datum(cfg, Side.LEFT, data, 3.0)
    before = energy_quadrature(u, 25)
    t, W = _gauss_grid(25)
    assert _gauss_grid(25)[0] is t
    with pytest.raises(ValueError):
        t[0] = 0.5
    with pytest.raises(ValueError):
        W[0, 0] = 0.0
    with pytest.raises(ValueError):
        t *= 2.0
    assert energy_quadrature(u, 25) == before


def test_source_fx_errors_propagate():
    """Only the TypeError/ValueError of a scalar-only callable selects the
    elementwise wrapper; other errors from fx are not swallowed."""
    cfg = BoundaryConfig(bottom=D, right=D, top=D)

    def broken(x):
        if np.ndim(x):
            raise ZeroDivisionError("broken on arrays")
        return 1.0

    with pytest.raises(ZeroDivisionError):
        solve_source([(1, broken)], cfg, 3.0)
    with pytest.raises(ZeroDivisionError):
        fdm_solve(cfg, f=[(1, broken)], k=3.0, n=17)

    def truthy(x):  # ValueError on arrays: the scalar-only case
        return 1.0 if x < 0.5 else 2.0

    u = solve_source([(1, truthy)], cfg, 3.0)
    assert energy_parseval(u).energy > 0


def test_source_boundary_and_interior_residuals():
    k = 4.2
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    fam = cfg.vertical_family()
    _, fhat = manufactured_source(k, cfg, n=1)
    u = solve_source([(1, fhat)], cfg, k)
    # boundary residuals (all homogeneous)
    for side, op in ((Side.LEFT, I), (Side.RIGHT, D), (Side.BOTTOM, D), (Side.TOP, D)):
        assert side_residual(u, side, op, k, lambda t: 0.0) < 1e-8 * (1 + k)
    # interior equation residual against the source
    h = 1e-3
    for x, y in [(0.3, 0.4), (0.62, 0.55)]:
        def val(px, py):
            return evaluate(u, [(px, py)])[0][0]
        lap = (
            val(x - h, y) + val(x + h, y) + val(x, y - h) + val(x, y + h) - 4 * val(x, y)
        ) / (h * h)
        f_here = complex(fhat(x)) * float(basis_value(fam, 1, y))
        resid = lap + k * k * val(x, y) + f_here
        assert abs(resid) < 1e-4 * (1 + k * k) * max(abs(val(x, y)), 1.0)


# --------------------------------------------------------------------------
# boundary residual invariant for data solves
# --------------------------------------------------------------------------


@pytest.mark.parametrize("b2,side", [(I, Side.LEFT), (N, Side.RIGHT), (D, Side.RIGHT)])
def test_boundary_residuals_match_data(b2, side):
    cfg = BoundaryConfig(bottom=N, right=b2, top=D)
    fam = cfg.vertical_family()
    k = 6.7
    data = Spectrum.from_pairs(fam, [(0, 1.0), (2, 0.5 - 0.25j)])
    u = solve_datum(cfg, side, data, k)
    norm = math.sqrt(sum(abs(c) ** 2 for _, c in data))
    datum = lambda t: complex(data.expand(t))
    zero = lambda t: 0.0
    for s, op in ((Side.LEFT, I), (Side.RIGHT, b2), (Side.BOTTOM, N), (Side.TOP, D)):
        want = datum if s is side else zero
        assert side_residual(u, s, op, k, want) <= 1e-6 * (1 + k) * max(norm, 1.0)


def test_evaluate_gets_source_value_and_derivative_from_one_pass():
    """Evaluation integrates the samples taken by the solve: fx is never
    called again, for any number of points or modes."""
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    calls = []

    def fx(t):
        calls.append(np.size(t))
        return np.cos(3.0 * np.asarray(t))

    u = solve_source([(1, fx), (2, fx)], cfg, 5.0)
    calls.clear()
    evaluate(u, [(0.3, 0.4), (0.7, 0.4), (0.3, 0.9)])
    assert calls == []
