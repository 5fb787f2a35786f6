"""Second-order finite-difference oracle on a uniform grid.

Independent cross-check for the spectral solutions: 5-point Laplacian plus
k^2, Dirichlet rows as identities, Neumann/impedance rows by second-order
ghost-point elimination, complex sparse direct solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .eigenbasis import BoundaryOperator, Spectrum
from .modal1d import Side
from .solver import BoundaryConfig, SeriesSolution, EnergyMethod, EnergyReport, evaluate_grid


@dataclass(frozen=True)
class GridSolution:
    """Nodal solution values on an n-by-n uniform grid, values[i, j] =
    u(i*h, j*h)."""

    h: float
    values: np.ndarray
    config: BoundaryConfig
    k: float


def _as_callable(datum) -> Callable[[float], complex]:
    if datum is None:
        return lambda t: 0.0 + 0.0j
    if isinstance(datum, Spectrum):
        return lambda t: complex(datum.expand(t))
    return lambda t: complex(datum(t))


def fdm_solve(
    config: BoundaryConfig,
    data: Optional[Mapping[Side, object]] = None,
    f: Optional[Callable[[float, float], complex]] = None,
    k: float = 1.0,
    n: int = 65,
) -> GridSolution:
    """Assemble and directly solve the discretized boundary-value problem.

    `data` maps sides to boundary data (callable of the arclength coordinate,
    or a Spectrum); missing sides are homogeneous.  Dirichlet corners take
    the horizontal side's datum when both adjacent sides are Dirichlet.
    """
    # scipy is imported here, not at module level: it is most of the cost of
    # `import helmstab`, and only the oracle needs it.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if n < 17:
        raise ValueError("oracle grids start at 17x17")
    if k <= 0:
        raise ValueError("wavenumber k must be positive")
    data = dict(data or {})
    gfun = {side: _as_callable(data.get(side)) for side in Side}
    ffun = (lambda x, y: 0.0 + 0.0j) if f is None else f

    h = 1.0 / (n - 1)
    idx = lambda i, j: i * n + j
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    rhs = np.zeros(n * n, dtype=complex)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    inv_h2 = 1.0 / (h * h)
    for i in range(n):
        for j in range(n):
            r = idx(i, j)
            x, y = i * h, j * h
            on = []
            if i == 0:
                on.append(Side.LEFT)
            if i == n - 1:
                on.append(Side.RIGHT)
            if j == 0:
                on.append(Side.BOTTOM)
            if j == n - 1:
                on.append(Side.TOP)

            dirichlet_sides = [s for s in on if config.operator(s) is BoundaryOperator.DIRICHLET]
            if dirichlet_sides:
                # horizontal side wins the corner tie-break
                side = next(
                    (s for s in dirichlet_sides if s in (Side.BOTTOM, Side.TOP)),
                    dirichlet_sides[0],
                )
                add(r, r, 1.0)
                rhs[r] = gfun[side](y if side in (Side.LEFT, Side.RIGHT) else x)
                continue

            # PDE row, with ghost elimination on every non-Dirichlet side
            diag = -4.0 * inv_h2 + k * k
            rhs[r] = -ffun(x, y)
            for side_hit, mirror, coord in (
                (Side.LEFT, idx(1, j) if i == 0 else None, y),
                (Side.RIGHT, idx(n - 2, j) if i == n - 1 else None, y),
                (Side.BOTTOM, idx(i, 1) if j == 0 else None, x),
                (Side.TOP, idx(i, n - 2) if j == n - 1 else None, x),
            ):
                if side_hit not in on:
                    continue
                op = config.operator(side_hit)
                add(r, mirror, 2.0 * inv_h2)
                rhs[r] -= 2.0 * gfun[side_hit](coord) / h
                if op is BoundaryOperator.IMPEDANCE:
                    diag += 2j * k / h
            if Side.LEFT not in on and Side.RIGHT not in on:
                add(r, idx(i - 1, j), inv_h2)
                add(r, idx(i + 1, j), inv_h2)
            if Side.BOTTOM not in on and Side.TOP not in on:
                add(r, idx(i, j - 1), inv_h2)
                add(r, idx(i, j + 1), inv_h2)
            add(r, r, diag)

    matrix = sp.csc_matrix(
        (np.asarray(vals, dtype=complex), (rows, cols)), shape=(n * n, n * n)
    )
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        raise ValueError(
            f"discrete system could not be factorized ({exc}); the admissible "
            "boundary configurations keep it nonsingular"
        ) from exc
    u = lu.solve(rhs)
    residual = np.max(np.abs(matrix @ u - rhs))
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    if residual > 1e-8 * scale:
        cond_hint = float(np.max(np.abs(u)) / max(scale, 1e-300))
        raise ValueError(
            f"discrete solve residual {residual:.3e} exceeds 1e-8*|rhs| "
            f"(growth indicator {cond_hint:.3e}); system likely ill-conditioned"
        )
    return GridSolution(h=h, values=u.reshape(n, n), config=config, k=k)


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
    grad = math.sqrt(grad_sq)
    l2 = math.sqrt(l2_sq)
    return EnergyReport(grad_norm=grad, l2_norm=l2, energy=grad + gs.k * l2,
                        method=EnergyMethod.QUADRATURE)


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
    ref = evaluate_grid(spectral, t, t)[0]
    diff = np.abs(ref - gs.values)
    denom = math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    rel = math.sqrt(float(np.sum(diff**2))) / max(denom, 1e-300)
    return ComparisonReport(max_abs=float(np.max(diff)), rel_l2=rel)
