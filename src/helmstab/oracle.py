"""Second-order finite-difference oracle on a uniform grid.

Independent cross-check for the spectral solutions: the 5-point Laplacian
plus k^2 on the n-by-n grid, Dirichlet nodes set to their data, and
Neumann/impedance sides closed by second-order ghost-point elimination.

On the unknown nodes the discrete operator is a Kronecker sum, solved by
fast diagonalization (Lynch, Rice & Thomas 1964): bottom and top are
Dirichlet or Neumann, so the vertical basis family sampled on the grid
diagonalizes the y-part exactly.  One transform in y leaves one tridiagonal
system in x per y-mode; all of them go through one batched elimination with
partial pivoting, and one transform back gives the grid.  Both transforms
are fixed-order contractions, so the values do not depend on the BLAS
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .eigenbasis import BoundaryOperator, Spectrum, _contract, _sample, basis_value
from .modal1d import Side, _check_wavenumber
from .solver import (
    BoundaryConfig,
    EnergyReport,
    SeriesSolution,
    _energy_report,
    _grid_values,
    _source_grid,
)


#: The most nodes a side of a grid, the oracle's and a config's: a solve with
#: its CSV peaks near 0.45 GB there and the oracle near 0.65 GB (4x a doubling).
MAX_GRID = 2049


@dataclass(frozen=True)
class GridSolution:
    """Nodal solution values on an n-by-n uniform grid, values[i, j] =
    u(i*h, j*h)."""

    h: float
    values: np.ndarray
    config: BoundaryConfig
    k: float


def _sample_datum(datum, t: np.ndarray, side: Side) -> np.ndarray:
    """A side's datum (None, a Spectrum or a callable) on the nodes t."""
    if datum is None:
        return np.zeros(len(t), dtype=complex)
    if isinstance(datum, Spectrum):
        return np.asarray(datum.expand(t), dtype=complex)
    return _sample(datum, t, what=f"the {side.value} datum")


def _apply_stencil(u: np.ndarray, h: float, k: float, impedance_right: bool) -> np.ndarray:
    """The discrete operator at every node of the grid u: 5-point Laplacian
    plus k^2, each side's ghost value eliminated as on a Neumann side, and
    2ik/h added on the impedance sides.  Rows of Dirichlet nodes are
    meaningless; callers read the unknown nodes only."""
    lap = np.empty_like(u)
    lap[1:-1, :] = u[:-2, :] - 2.0 * u[1:-1, :] + u[2:, :]
    lap[0, :] = 2.0 * (u[1, :] - u[0, :])
    lap[-1, :] = 2.0 * (u[-2, :] - u[-1, :])
    lap[:, 1:-1] += u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:]
    lap[:, 0] += 2.0 * (u[:, 1] - u[:, 0])
    lap[:, -1] += 2.0 * (u[:, -2] - u[:, -1])
    out = lap / (h * h) + (k * k) * u
    out[0, :] += (2j * k / h) * u[0, :]
    if impedance_right:
        out[-1, :] += (2j * k / h) * u[-1, :]
    return out


def _solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal systems A_c x_c = rhs[:, c], one per column c,
    where A_c[i+1, i] = lower[i], A_c[i, i] = diag[i, c] and A_c[i, i+1] =
    upper[i]; lower and upper have a column each or one for all columns.

    Gaussian elimination with partial pivoting, with LAPACK gtsv's row
    interchanges: rows i and i+1 swap when |diag| < |lower|, each measured
    as |re| + |im|.  The loop runs over the n >= 2 rows; each step works on
    all columns at once.  A zero pivot leaves inf or NaN in the solution.
    """
    n, cols = diag.shape[0], rhs.shape[1:]
    d = np.array(np.broadcast_to(diag, (n, *cols)), dtype=complex)
    du = np.array(np.broadcast_to(upper, (n - 1, *cols)), dtype=complex)
    dl = np.broadcast_to(lower, (n - 1, *cols))
    fill = np.zeros((n - 2, *cols), dtype=complex)  # second superdiagonal
    b = np.array(rhs, dtype=complex)

    def cabs1(z):
        return np.abs(z.real) + np.abs(z.imag)

    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1):
            swap = cabs1(d[i]) < cabs1(dl[i])
            pivot = np.where(swap, dl[i], d[i])
            mult = np.where(swap, d[i], dl[i]) / pivot
            d[i] = pivot
            mid = np.where(swap, d[i + 1], du[i])  # pivot row, column i+1
            below = np.where(swap, du[i], d[i + 1])  # other row, column i+1
            du[i] = mid
            d[i + 1] = below - mult * mid
            if i < n - 2:
                fill[i] = np.where(swap, du[i + 1], 0.0)
                du[i + 1] = np.where(swap, -mult * du[i + 1], du[i + 1])
            top = np.where(swap, b[i + 1], b[i])
            b[i + 1] = np.where(swap, b[i], b[i + 1]) - mult * top
            b[i] = top
        b[-1] /= d[-1]
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - fill[i] * b[i + 2]) / d[i]
    return b


def fdm_solve(
    config: BoundaryConfig,
    data: Optional[Mapping[Side, object]] = None,
    f=None,
    k: float = 1.0,
    n: int = 65,
) -> GridSolution:
    """Solve the discretized boundary-value problem by fast diagonalization.

    `data` maps sides to boundary data (callable of the arclength coordinate,
    or a Spectrum); missing sides are homogeneous.  Dirichlet corners take
    the horizontal side's datum when both adjacent sides are Dirichlet.
    The source `f` takes either form solve_source takes, a (mode, profile)
    list or a callable f(x, y), put on the grid by solver._source_grid.
    """
    if not 17 <= n <= MAX_GRID:
        raise ValueError(f"oracle grids run from 17 to {MAX_GRID} nodes a side, got {n}")
    k = _check_wavenumber(k)
    data = data or {}
    h = 1.0 / (n - 1)
    t = np.arange(n) * h
    g = {side: _sample_datum(data.get(side), t, side) for side in Side}
    dirichlet = {side: config.operator(side) is BoundaryOperator.DIRICHLET for side in Side}

    # Dirichlet lines, right first: the horizontal datum wins a shared corner.
    values = np.zeros((n, n), dtype=complex)
    if dirichlet[Side.RIGHT]:
        values[-1, :] = g[Side.RIGHT]
    if dirichlet[Side.BOTTOM]:
        values[:, 0] = g[Side.BOTTOM]
    if dirichlet[Side.TOP]:
        values[:, -1] = g[Side.TOP]
    # The unknowns: every node on no Dirichlet side (the left side never is).
    xs = slice(0, n - 1 if dirichlet[Side.RIGHT] else n)
    ys = slice(1 if dirichlet[Side.BOTTOM] else 0, n - 1 if dirichlet[Side.TOP] else n)

    # Right-hand side of the PDE rows: -f, and -2g/h from each ghost value.
    x, y = t[xs], t[ys]
    family = config.vertical_family()
    rhs = np.zeros((n, n), dtype=complex)
    if f is not None:
        rhs[xs, ys] = -_source_grid(f, family, x, y)
    for side, line in ((Side.LEFT, rhs[0, :]), (Side.RIGHT, rhs[-1, :]),
                       (Side.BOTTOM, rhs[:, 0]), (Side.TOP, rhs[:, -1])):
        if not dirichlet[side]:
            line -= 2.0 * g[side] / h
    rhs = rhs[xs, ys]
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(values))), 1e-300)
    impedance_right = config.right is BoundaryOperator.IMPEDANCE
    # The couplings to known Dirichlet neighbours move to the right-hand side.
    reduced = rhs - _apply_stencil(values, h, k, impedance_right)[xs, ys]

    # y: the vertical family on the unknown rows is the eigenbasis of the
    # ghost-point second difference, orthogonal in the trapezoidal weights.
    modes = np.arange(len(y)) + family.first_nonzero
    basis = basis_value(family, modes, y[:, None])
    w = np.full(len(y), h)
    if not dirichlet[Side.BOTTOM]:
        w[0] *= 0.5
    if not dirichlet[Side.TOP]:
        w[-1] *= 0.5
    norms = np.sum(w[:, None] * basis**2, axis=0)
    eig = -(4.0 / (h * h)) * np.sin(0.5 * h * family.eigenvalue(modes)) ** 2
    coeffs = _contract((reduced * w).T, basis) / norms

    # x: one tridiagonal system per y-mode, with impedance/Neumann ghost rows.
    inv_h2 = 1.0 / (h * h)
    diag = np.full(len(x), k * k - 2.0 * inv_h2, dtype=complex)
    diag[0] += 2j * k / h
    if impedance_right:
        diag[-1] += 2j * k / h
    upper = np.full(len(x) - 1, inv_h2)
    upper[0] = 2.0 * inv_h2
    lower = np.full(len(x) - 1, inv_h2)
    if not dirichlet[Side.RIGHT]:
        lower[-1] = 2.0 * inv_h2
    coeffs = _solve_tridiagonal(lower[:, None], diag[:, None] + eig, upper[:, None], coeffs)
    values[xs, ys] = _contract(coeffs.T, basis.T)

    residual = float(np.max(np.abs(_apply_stencil(values, h, k, impedance_right)[xs, ys] - rhs)))
    if not residual <= 1e-8 * scale:
        cond_hint = float(np.max(np.abs(values)) / scale)
        raise ValueError(
            f"discrete solve residual {residual:.3e} exceeds 1e-8*|rhs| "
            f"(growth indicator {cond_hint:.3e}); system likely ill-conditioned"
        )
    return GridSolution(h=h, values=values, config=config, k=k)


def _grad_grid(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central differences inside, second-order one-sided at the edges."""
    ux = np.empty_like(values)
    uy = np.empty_like(values)
    ux[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2 * h)
    ux[0, :] = (-3 * values[0, :] + 4 * values[1, :] - values[2, :]) / (2 * h)
    ux[-1, :] = (3 * values[-1, :] - 4 * values[-2, :] + values[-3, :]) / (2 * h)
    uy[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2 * h)
    uy[:, 0] = (-3 * values[:, 0] + 4 * values[:, 1] - values[:, 2]) / (2 * h)
    uy[:, -1] = (3 * values[:, -1] - 4 * values[:, -2] + values[:, -3]) / (2 * h)
    return ux, uy


def fdm_energy(gs: GridSolution) -> EnergyReport:
    """Trapezoidal grid energy with finite-difference gradients."""
    n = gs.values.shape[0]
    w1 = np.full(n, gs.h)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    w2 = np.outer(w1, w1)
    ux, uy = _grad_grid(gs.values, gs.h)
    l2_sq = float(np.sum(w2 * np.abs(gs.values) ** 2))
    grad_sq = float(np.sum(w2 * (np.abs(ux) ** 2 + np.abs(uy) ** 2)))
    return _energy_report(grad_sq, l2_sq, gs.k)


@dataclass(frozen=True)
class ComparisonReport:
    max_abs: float
    rel_l2: float


def compare(spectral: SeriesSolution, gs: GridSolution) -> ComparisonReport:
    """Nodewise spectral-vs-grid comparison at the oracle's nodes."""
    if spectral.k != gs.k:
        raise ValueError("solutions have different wavenumbers")
    if spectral.config != gs.config:
        raise ValueError("solutions have different boundary configurations")
    t = np.arange(gs.values.shape[0]) * gs.h
    ref = _grid_values(spectral, t, t)
    diff = np.abs(ref - gs.values)
    denom = math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    rel = math.sqrt(float(np.sum(diff**2))) / max(denom, 1e-300)
    return ComparisonReport(max_abs=float(np.max(diff)), rel_l2=rel)
