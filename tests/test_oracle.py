"""Finite-difference oracle: convergence order, spectral agreement, and the
fast-diagonalization solve against a dense solve of the stencil's matrix."""

import itertools
import math

import numpy as np
import pytest

from helmstab.eigenbasis import BasisFamily, BoundaryOperator, Spectrum, basis_value
from helmstab.modal1d import Side
from helmstab.oracle import _solve_tridiagonal, compare, fdm_energy, fdm_solve
from helmstab.solver import (
    BoundaryConfig,
    energy_parseval,
    solve_datum,
    solve_source,
)

D, N, I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE
PI = math.pi


def plane_wave_setup(k):
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    data = {Side.LEFT: (lambda y: -2j * k)}
    return cfg, data


def test_plane_wave_second_order():
    k = 5.0
    cfg, data = plane_wave_setup(k)
    errors = []
    for n in (33, 65, 129):
        gs = fdm_solve(cfg, data, None, k, n)
        t = np.arange(n) * gs.h
        exact = np.exp(1j * k * t)[:, None] * np.ones(n)[None, :]
        errors.append(float(np.max(np.abs(gs.values - exact))))
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5


def test_zero_problem_zero_grid():
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    gs = fdm_solve(cfg, {}, None, 3.0, 33)
    assert np.max(np.abs(gs.values)) == 0.0
    assert fdm_energy(gs).energy == 0.0


def test_grid_validation():
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    with pytest.raises(ValueError):
        fdm_solve(cfg, {}, None, 3.0, 9)
    with pytest.raises(ValueError):
        fdm_solve(cfg, {}, None, -1.0, 33)


def test_plane_wave_energy_and_compare():
    k = 5.0
    cfg, data = plane_wave_setup(k)
    gs = fdm_solve(cfg, data, None, k, 129)
    rep = fdm_energy(gs)
    assert rep.energy == pytest.approx(2 * k, rel=2e-4)
    spectral = solve_datum(
        cfg, Side.LEFT, Spectrum.from_pairs(BasisFamily.COS_INT, [(0, -2j * k)]), k
    )
    cr = compare(spectral, gs)
    assert cr.rel_l2 <= 1e-3
    assert cr.max_abs < 5e-3


def test_compare_identical_grid():
    k = 2.0
    cfg, data = plane_wave_setup(k)
    gs = fdm_solve(cfg, data, None, k, 33)
    same = compare(
        solve_datum(
            cfg, Side.LEFT, Spectrum.from_pairs(BasisFamily.COS_INT, [(0, -2j * k)]), k
        ),
        gs,
    )
    # comparing a grid against itself must report zero
    self_diff = np.max(np.abs(gs.values - gs.values))
    assert self_diff == 0.0
    assert same.rel_l2 < 1e-2  # spectral vs its own coarse FDM stays small
    # A grid of another problem is refused, not compared.
    with pytest.raises(ValueError, match="different wavenumbers"):
        compare(solve_datum(cfg, Side.LEFT, Spectrum.from_pairs(BasisFamily.COS_INT,
                                                                [(0, 1.0)]), 2.5), gs)
    other = BoundaryConfig(bottom=N, right=D, top=N)
    with pytest.raises(ValueError, match="different boundary configurations"):
        compare(solve_datum(other, Side.LEFT, Spectrum.from_pairs(BasisFamily.COS_INT,
                                                                  [(0, 1.0)]), k), gs)


def test_mixed_boundary_case_convergence_order():
    fam = BasisFamily.SIN_INT
    n_mode = 1
    k = math.sqrt(fam.eigenvalue(n_mode) ** 2 + PI**2)
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    g4 = Spectrum.from_pairs(fam, [(n_mode, 1.0)])
    spectral = solve_datum(cfg, Side.LEFT, g4, k)
    errs = []
    for n in (33, 65, 129):
        gs = fdm_solve(cfg, {Side.LEFT: g4}, None, k, n)
        errs.append(compare(spectral, gs).rel_l2)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_fdm_energy_matches_parseval_for_single_mode():
    fam = BasisFamily.COS_HALF
    k = 4.0
    cfg = BoundaryConfig(bottom=N, right=N, top=D)
    g4 = Spectrum.from_pairs(fam, [(1, 1.0)])
    spectral = solve_datum(cfg, Side.LEFT, g4, k)
    gs = fdm_solve(cfg, {Side.LEFT: g4}, None, k, 129)
    e_p = energy_parseval(spectral).energy
    e_f = fdm_energy(gs).energy
    assert abs(e_f - e_p) <= 5e-3 * e_p


SOURCE_K = 4.2


def fhat(x):
    """The x profile of the mode-1 source on D/D/D at SOURCE_K whose solution
    is (1 - x)(1 + (1 - ik)x) Z_1(y)."""
    k, mu = SOURCE_K, BasisFamily.SIN_INT.eigenvalue(1)
    return 2 * (1 - 1j * k) - (k * k - mu * mu) * ((1 - x) * (1 + (1 - 1j * k) * x))


def test_fdm_with_source_term():
    """FDM agrees with the kernel-built source solve of the same listed source."""
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    spectral = solve_source([(1, fhat)], cfg, SOURCE_K)
    gs = fdm_solve(cfg, {}, [(1, fhat)], SOURCE_K, 129)
    cr = compare(spectral, gs)
    assert cr.rel_l2 <= 2e-3


def test_fdm_takes_a_listed_source_as_solve_source_does():
    """A (mode, profile) list is the callable sum of fx(x) Z_n(y) over its
    modes in ascending order, to the byte, and the oracle refuses a
    repeated mode and the zero member with solve_source's messages."""
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    fam = cfg.vertical_family()
    listed = [(3, np.cos), (1, fhat), (2, np.exp)]

    def summed(x, y):
        return sum(np.asarray(fx(x), dtype=complex) * basis_value(fam, n, y)
                   for n, fx in sorted(listed, key=lambda pair: pair[0]))

    grid = fdm_solve(cfg, {}, listed, SOURCE_K, 65).values
    assert grid.tobytes() == fdm_solve(cfg, {}, summed, SOURCE_K, 65).values.tobytes()
    assert np.max(np.abs(grid)) > 0
    for bad, message in (([(1, fhat), (1, np.cos)], "duplicate source mode"),
                         ([(0, np.cos)], "mode 0 of sin-int is the zero function")):
        with pytest.raises(ValueError, match=message):
            solve_source(bad, cfg, SOURCE_K)
        with pytest.raises(ValueError, match=message):
            fdm_solve(cfg, {}, bad, SOURCE_K, 33)


def test_impedance_both_vertical_sides():
    """Oscillatory datum through the right impedance operator."""
    fam = BasisFamily.COS_INT
    k = 6.0
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    g2 = Spectrum.from_pairs(fam, [(1, 1.0)])
    spectral = solve_datum(cfg, Side.RIGHT, g2, k)
    errs = []
    for n in (65, 129):
        gs = fdm_solve(cfg, {Side.RIGHT: g2}, None, k, n)
        errs.append(compare(spectral, gs).rel_l2)
    assert errs[-1] <= 1e-3
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2


def reference_system(config, data, f, k, n):
    """The stencil's matrix and right-hand side, assembled node by node.

    Unknown i*n + j is u(i*h, j*h).  A node on a Dirichlet side gets an
    identity row and that side's datum, the horizontal side's when two
    Dirichlet sides meet.  Every other node gets the 5-point row of
    Laplacian plus k^2, with the ghost value of each Neumann or impedance
    side it lies on eliminated: the mirror node's coefficient doubles, -2g/h
    goes to the right-hand side, and an impedance side adds 2ik/h to the
    diagonal.
    """
    h = 1.0 / (n - 1)
    inv_h2 = 1.0 / (h * h)
    idx = lambda i, j: i * n + j
    matrix = np.zeros((n * n, n * n), dtype=complex)
    rhs = np.zeros(n * n, dtype=complex)
    g = {side: data.get(side, lambda t: 0.0) for side in Side}
    for i, j in itertools.product(range(n), repeat=2):
        r, x, y = idx(i, j), i * h, j * h
        on = [side for side, hit in ((Side.LEFT, i == 0), (Side.RIGHT, i == n - 1),
                                     (Side.BOTTOM, j == 0), (Side.TOP, j == n - 1)) if hit]
        dirichlet = [side for side in on if config.operator(side) is D]
        if dirichlet:
            side = next((s for s in dirichlet if s in (Side.BOTTOM, Side.TOP)), dirichlet[0])
            matrix[r, r] = 1.0
            rhs[r] = g[side](y if side in (Side.LEFT, Side.RIGHT) else x)
            continue
        matrix[r, r] = -4.0 * inv_h2 + k * k
        rhs[r] = -f(x, y) if f is not None else 0.0
        for side, mirror, coord in ((Side.LEFT, idx(1, j), y), (Side.RIGHT, idx(n - 2, j), y),
                                    (Side.BOTTOM, idx(i, 1), x), (Side.TOP, idx(i, n - 2), x)):
            if side in on:
                matrix[r, mirror] += 2.0 * inv_h2
                rhs[r] -= 2.0 * g[side](coord) / h
                if config.operator(side) is I:
                    matrix[r, r] += 2j * k / h
        if Side.LEFT not in on and Side.RIGHT not in on:
            matrix[r, idx(i - 1, j)] += inv_h2
            matrix[r, idx(i + 1, j)] += inv_h2
        if Side.BOTTOM not in on and Side.TOP not in on:
            matrix[r, idx(i, j - 1)] += inv_h2
            matrix[r, idx(i, j + 1)] += inv_h2
    return matrix, rhs


# Smooth data whose values disagree at every corner, so the corner rule shows.
REFERENCE_DATA = {
    Side.LEFT: lambda y: np.exp(1j * y) * (1 + y),
    Side.RIGHT: lambda y: 0.3 + np.cos(2 * y),
    Side.BOTTOM: lambda x: 0.5 + 1j * x * x,
    Side.TOP: lambda x: np.sin(3 * x) - 0.2j,
}


def reference_source(x, y):
    return (x * y + 1j) * np.cos(x + y)


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("bottom,top,right", list(itertools.product((D, N), (D, N), (D, N, I))))
def test_fast_solve_matches_dense_reference(bottom, top, right, n):
    """Every admissible operator combination, with and without a source: the
    fast-diagonalization grid is the dense solve of the stencil's matrix to
    1e-10 (the matrices' condition numbers reach ~1e5, so the dense solve
    itself is only that close to exact), with a residual in that matrix of
    at most 1e-12 of the right-hand side."""
    k = 7.3
    cfg = BoundaryConfig(bottom=bottom, right=right, top=top)
    for f in (None, reference_source):
        matrix, rhs = reference_system(cfg, REFERENCE_DATA, f, k, n)
        dense = np.linalg.solve(matrix, rhs)
        fast = fdm_solve(cfg, REFERENCE_DATA, f, k, n).values.ravel()
        assert np.max(np.abs(fast - dense)) <= 1e-10 * np.max(np.abs(dense))
        assert np.max(np.abs(matrix @ fast - rhs)) <= 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize("shared", [False, True])
def test_tridiagonal_elimination_matches_dense_solve(shared):
    """Random complex systems, some with exactly zero diagonal entries that
    force row interchanges, solved in one batch; with `shared`, one pair of
    real off-diagonals serves every system, as in the oracle."""
    rng = np.random.default_rng(3)
    size, batch = 12, 40
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    off = (lambda: rng.standard_normal((size - 1, 1))) if shared else (lambda: cplx(size - 1, batch))
    lower, upper = off(), off()
    diag, rhs = cplx(size, batch), cplx(size, batch)
    diag[0, ::2] = 0.0
    diag[rng.random((size, batch)) < 0.3] = 0.0
    x = _solve_tridiagonal(lower, diag, upper, rhs)
    for c in range(batch):
        lo, up = lower[:, min(c, lower.shape[1] - 1)], upper[:, min(c, upper.shape[1] - 1)]
        a = np.diag(diag[:, c]) + np.diag(lo, -1) + np.diag(up, 1)
        expected = np.linalg.solve(a, rhs[:, c])
        assert np.allclose(x[:, c], expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))


@pytest.mark.parametrize("k", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_wavenumber_is_rejected(k):
    cfg = BoundaryConfig(bottom=D, right=D, top=D)
    with pytest.raises(ValueError, match="wavenumber k"):
        fdm_solve(cfg, {}, None, k, 17)


def test_residual_guard_fails_on_nan():
    """Finite inputs whose solve overflows to NaN fail the residual guard
    instead of returning a NaN grid.  A k whose square overflows, as
    k = 1e200 does, is refused before the solve."""
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    with pytest.raises(ValueError, match="residual nan"):
        with np.errstate(over="ignore", invalid="ignore"):
            fdm_solve(cfg, {Side.LEFT: lambda y: 1e308}, None, 5.0, 17)
    with pytest.raises(ValueError, match="k=1e\\+200"):
        fdm_solve(cfg, {Side.LEFT: lambda y: 1.0}, None, 1e200, 17)


@pytest.mark.parametrize("side", list(Side))
def test_nonfinite_datum_names_its_side(side):
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    with pytest.raises(ValueError, match=f"the {side.value} datum"):
        fdm_solve(cfg, {side: lambda t: float("nan")}, None, 5.0, 17)


def test_nonfinite_source_is_rejected():
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    for f in (lambda x, y: x / y, lambda x, y: complex(float("inf"), 0.0)):
        with pytest.raises(ValueError, match="source"):
            with np.errstate(divide="ignore", invalid="ignore"):
                fdm_solve(cfg, {}, f, 5.0, 17)


def test_vectorized_and_scalar_source_give_identical_grids():
    """The one array call and the per-node fallback sample the same values."""

    def f(x, y):
        return (x * (1 - x) + 1j * y) * (y * y - 0.5)

    def scalar_only(x, y):
        if np.ndim(x) or np.ndim(y):
            raise TypeError("scalars only")
        return f(x, y)

    calls = []
    cfg = BoundaryConfig(bottom=D, right=D, top=N)
    vectorized = fdm_solve(cfg, REFERENCE_DATA, lambda x, y: calls.append(1) or f(x, y), 4.0, 33)
    scalar = fdm_solve(cfg, REFERENCE_DATA, scalar_only, 4.0, 33)
    assert len(calls) == 1
    assert vectorized.values.tobytes() == scalar.values.tobytes()
