"""Truncated separable series solutions on the unit square.

A solution is a finite sum of terms coeff * X(x) * Y(y) where one factor is
an orthonormal basis member and the other is a closed-form 1D mode (or, for
volumetric sources, a kernel-built profile).  The terms are held in blocks
of arrays: a block is the coefficients, the profiles (a ModeTable, or the
SourceTable of a source solve), the basis family and the part it solves.
Energies are available both through modal sums (Parseval) and through
tensor Gauss-Legendre quadrature of the evaluated field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .eigenbasis import (
    BasisFamily,
    BoundaryOperator,
    Spectrum,
    basis_derivative,
    basis_value,
    homogeneous_operators,
    quadrature_rule,
    select_eigenpairs,
    _coefficients,
    _contract,
    _fsums,
    _project_samples,
    _sample,
    _sqrt,
    _zero_member,
)
from .modal1d import (
    Side,
    choose_lifting_family,
    mode_table,
    _apply,
    _check_wavenumber,
    _operator,
    _regimes,
    _tphi,
)


#: A projection tail above this share of its trace's energy is a warning.
TAIL_WARNING_LIMIT = 1e-8


@dataclass(frozen=True)
class ProjectionTail:
    """Share of a residual trace's energy left beyond the projection depth."""

    side: Side
    depth: int
    fraction: float


@dataclass(frozen=True)
class BoundaryConfig:
    """Boundary operators per side.

    The left side always carries the impedance operator; the right side may
    carry any of the three; top and bottom are Dirichlet or Neumann.  Outward
    normal derivatives: -d/dy on BOTTOM, +d/dx on RIGHT, +d/dy on TOP,
    -d/dx on LEFT.
    """

    bottom: BoundaryOperator
    right: BoundaryOperator
    top: BoundaryOperator
    left: BoundaryOperator = BoundaryOperator.IMPEDANCE

    def __post_init__(self):
        for side in Side:
            object.__setattr__(self, side.value,
                               _operator(f"the {side.value} operator", self.operator(side)))
        if self.left is not BoundaryOperator.IMPEDANCE:
            raise ValueError("the left side must carry the impedance operator")
        for side_name, op in (("bottom", self.bottom), ("top", self.top)):
            if op is BoundaryOperator.IMPEDANCE:
                raise ValueError(f"impedance is not admissible on the {side_name} side")

    def operator(self, side: Side) -> BoundaryOperator:
        return getattr(self, side.value)

    def vertical_family(self) -> BasisFamily:
        return select_eigenpairs(self.bottom, self.top)


@dataclass(frozen=True, eq=False)
class Block:
    """The terms c_i * P_i * Z_i of one part of a solve, as arrays.

    Row i is mode n[i] with coefficient c[i]; P_i is row i of `profiles`
    (a ModeTable, or a SourceTable) and Z_i the member n[i] of the basis
    family.  `part` is the side of the datum solved, None for the source;
    P is the y factor on the bottom and top (_lifted), else the x factor.
    Rows are in ascending mode order.  In solve_problem's result the right
    or left block's (n, c) are the nonzero coefficients of lift's residual
    on that side, and a side without a block has a zero residual.
    """

    n: np.ndarray
    c: np.ndarray
    profiles: object  # a ModeTable, or a SourceTable
    basis: BasisFamily
    part: Optional[Side]


@dataclass(frozen=True)
class SeriesSolution:
    config: BoundaryConfig
    k: float
    truncation: int
    blocks: tuple  # of Block
    tails: tuple = ()  # of ProjectionTail, one per vertical side of a lift

    @property
    def modes(self) -> np.ndarray:
        """The mode index of every term, block after block."""
        return np.concatenate([b.n for b in self.blocks] or [np.zeros(0, dtype=np.int64)])

    @property
    def warnings(self) -> list[str]:
        """One text per projection tail above TAIL_WARNING_LIMIT, in tail order."""
        return [f"trace projection on the {t.side.value} side left {t.fraction:.2e} of its energy "
                f"beyond mode {t.depth}" for t in self.tails if t.fraction > TAIL_WARNING_LIMIT]


@dataclass(frozen=True)
class EnergyReport:
    grad_norm: float
    l2_norm: float
    energy: float


def _energy_report(grad_sq, l2_sq, k) -> EnergyReport:
    """The energy from the squared norms: floats for floats, arrays over
    rows for arrays."""
    grad = _sqrt(np.maximum(grad_sq, 0.0))
    l2 = _sqrt(np.maximum(l2_sq, 0.0))
    return EnergyReport(grad_norm=grad, l2_norm=l2, energy=grad + k * l2)


def default_truncation(k: float, top_mode: int) -> int:
    """Top data mode, or enough modes past the propagating range."""
    return max(top_mode, math.ceil(_check_wavenumber(k) / math.pi) + 16)


def default_projection_depth(k: float) -> int:
    """Projection depth of traces and named data without a truncation."""
    return 2 * default_truncation(k, 0)


def _check_truncation(modes: np.ndarray, truncation: int) -> None:
    """Raise ValueError for a mode above the truncation: a solve would drop it."""
    above = modes > truncation
    if np.count_nonzero(above):
        raise ValueError(f"datum mode {modes[np.argmax(above)]} lies above truncation "
                         f"{truncation}; the solve would drop it")


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------


def solve_datum(
    config: BoundaryConfig,
    side: Side,
    g: Spectrum,
    k: float,
    truncation: Optional[int] = None,
) -> SeriesSolution:
    """Series solution for one boundary datum g on `side`, every other side
    homogeneous.

    Each nonzero coefficient pairs a member of g's basis with the 1D profile
    carrying a unit datum on `side` through that side's operator.  On the
    left or right the basis is the vertical eigenbasis and the profile the
    x factor.  On the bottom or top the datum is lifted: its basis must lie
    on the resonance-avoiding lattice for this k, and the profile is the y
    factor.  Both are mode_table rows under the side's _profile_ends.  A
    nonzero mode above `truncation` raises ValueError.
    """
    _check_datum_family(config, side, g.family, k)
    n_cap = default_truncation(k, g.top_mode) if truncation is None else truncation
    kept = g.c != 0
    ns = g.n[kept]
    _check_truncation(ns, n_cap)
    profiles = mode_table(ns, k, _profile_ends(config, side), side, g.family)
    block = Block(ns, g.c[kept], profiles, g.family, side)
    return SeriesSolution(config, k, n_cap, (block,))


def _lifted(side: Optional[Side]) -> bool:
    """Whether a datum on `side` is lifted: its profiles are y factors."""
    return side in (Side.BOTTOM, Side.TOP)


def _datum_family(config: BoundaryConfig, side: Side, k: float) -> BasisFamily:
    """The basis family of a datum on `side`: the vertical eigenbasis on the
    left and right, the cosine basis of the resonance-avoiding lifting
    lattice on the bottom and top."""
    if _lifted(side):
        return choose_lifting_family(k, config.bottom, config.top).basis
    return config.vertical_family()


def _check_datum_family(config: BoundaryConfig, side: Side, family: BasisFamily,
                        k: float) -> None:
    """Raise ValueError unless a datum on `side` may expand in `family`:
    _datum_family, or on the bottom and top either family of its lattice."""
    expected = _datum_family(config, side, k)
    if _lifted(side):
        if family.half_integer != expected.half_integer:
            raise ValueError(
                f"data family {family} is not admissible for this wavenumber: the "
                f"resonance-avoiding lifting lattice is that of {expected.value}"
            )
    elif family is not expected:
        raise ValueError(
            f"data family {family} does not match the horizontal operators "
            f"(expected {expected})"
        )


def _profile_ends(config: BoundaryConfig, side: Side) -> tuple:
    """The operators at the two ends of the profiles of a datum on `side`,
    which with k, the side and the rows' eigenvalues decide its table."""
    return (config.bottom, config.top) if _lifted(side) else (config.left, config.right)


def superpose(parts: Sequence[SeriesSolution]) -> SeriesSolution:
    """Concatenate solutions sharing one wavenumber and operator skeleton,
    their blocks and their projection tails in part order."""
    if not parts:
        raise ValueError("superpose needs at least one part")
    first = parts[0]
    for p in parts[1:]:
        if p.k != first.k:
            raise ValueError("superposed parts must share the same wavenumber")
        if p.config != first.config:
            raise ValueError("superposed parts must share the same boundary operators")
    blocks = tuple(b for p in parts for b in p.blocks)
    trunc = max(p.truncation for p in parts)
    return SeriesSolution(first.config, first.k, trunc, blocks,
                          tuple(t for p in parts for t in p.tails))


# --------------------------------------------------------------------------
# evaluation and energies
# --------------------------------------------------------------------------


def _check_inside(coords: np.ndarray) -> None:
    if not np.all(np.isfinite(coords)):
        raise ValueError("evaluation points must be finite")
    if np.any((coords < 0) | (coords > 1)):
        raise ValueError("evaluation points must lie inside the closed unit square")


#: Points per chunk of evaluate: bounds its tables at rows x _CHUNK.
_CHUNK = 1024


def evaluate(u: SeriesSolution, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, d/dx and d/dy at points inside the closed unit square, as
    three complex arrays with one entry per point.

    Each chunk of points tabulates the factors at its points' x and y
    coordinates, as evaluate_grid does on a grid's axes, and sums the
    products point by point.  Terms accumulate in ascending mode order, so
    the result is independent of how the series was put together.  On a
    tensor grid, evaluate_grid does the same work as a few array products.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 2:
        raise ValueError("points must be (x, y) pairs")
    _check_inside(pts)
    fields = np.empty((3, len(pts)), dtype=complex)
    for lo in range(0, len(pts), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        cx, cdx, y, dy = _grid_tables(u, pts[part, 0], pts[part, 1])
        for field, a, b in zip(fields, (cx, cdx, cx), (y, y, dy)):
            field[part] = np.einsum("rp,rp->p", a, b, optimize=False)
    return fields[0], fields[1], fields[2]


def _block_tables(block: Block, tx: np.ndarray, ty: np.ndarray):
    """c*X and c*X' on tx, Y and Y' on ty, for the rows of one block, from
    one build of its profiles and one of its basis members.

    Y and Y' are real: basis members, or the profiles of a lifted block,
    which solve a real Dirichlet/Neumann problem with real data and real
    k^2 - mu^2.  Such a profile's imaginary part is roundoff of the complex
    pair e^{sigma t}, at most 1.4e-12 of the row's largest value, and is
    dropped.
    """
    basis_t, profile_t = (tx, ty) if _lifted(block.part) else (ty, tx)
    p, dp = block.profiles.value_and_derivative(profile_t)
    n = block.n[:, None]
    b, db = basis_value(block.basis, n, basis_t), basis_derivative(block.basis, n, basis_t)
    x, dx, y, dy = (b, db, p.real, dp.real) if _lifted(block.part) else (p, dp, b, db)
    return block.c[:, None] * x, block.c[:, None] * dx, y, dy


def _grid_tables(u: SeriesSolution, tx, ty):
    """The factor tables of u's terms on the tensor grid tx by ty: c*X and
    c*X' on tx (complex), Y and Y' on ty (real), one row per term in
    ascending mode order (terms of equal mode in block order)."""
    tx, ty = np.asarray(tx, dtype=float), np.asarray(ty, dtype=float)
    if tx.ndim != 1 or ty.ndim != 1:
        raise ValueError("grid coordinates must be one-dimensional arrays")
    _check_inside(tx)
    _check_inside(ty)
    modes = u.modes
    row = np.empty(len(modes), dtype=np.intp)  # each term's row in the tables
    row[np.argsort(modes, kind="stable")] = np.arange(len(modes))
    tables = [np.empty((len(modes), len(t)), dtype=dtype)
              for t, dtype in ((tx, complex), (tx, complex), (ty, float), (ty, float))]
    start = 0
    for block in u.blocks:
        rows = row[start:start + len(block.n)]
        start += len(block.n)
        for table, part in zip(tables, _block_tables(block, tx, ty)):
            table[rows] = part
    return tables


def evaluate_grid(u: SeriesSolution, tx, ty) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, d/dx and d/dy on the tensor grid tx by ty, each an (nx, ny)
    complex array whose [i, j] entry belongs to the point (tx[i], ty[j]).

    Sum factorization: the terms' factors are tabulated once, c*X and c*X'
    on tx and Y and Y' on ty, one row per term in ascending mode order,
    and each field is one contraction of two tables over the terms.  The
    contraction's order of summation is fixed, so the arrays are the same
    bytes whatever BLAS's thread count.
    """
    cx, cdx, y, dy = _grid_tables(u, tx, ty)
    return _contract(cx, y), _contract(cdx, y), _contract(cx, dy)


def _grid_values(u: SeriesSolution, tx, ty) -> np.ndarray:
    """evaluate_grid's values alone, without the two gradient contractions."""
    cx, _, y, _ = _grid_tables(u, tx, ty)
    return _contract(cx, y)


def energy_parseval(u: SeriesSolution) -> EnergyReport:
    """Modal energy: the factor orthogonal in its direction reduces the
    double integral to a sum over that direction's exact 1D norms."""
    if len(u.blocks) > 1:
        raise ValueError(
            "superposed series mix factor bases; use energy_quadrature instead"
        )
    if not u.blocks:
        return _energy_report(0.0, 0.0, u.k)
    block = u.blocks[0]
    return _parseval_energy(np.abs(block.c) ** 2, block.profiles, u.k)


def _parseval_energy(w: np.ndarray, profiles, k, rows=slice(None)) -> EnergyReport:
    """The Parseval energy of the terms with squared coefficient moduli w on
    the given rows of a profile table (a slice, or an index array shaped
    like w): sum w |P|^2 and sum w (|P'|^2 + mu^2 |P|^2) along the last
    axis, each correctly rounded (_fsums), so the order of the modes does
    not matter.  A matrix w holds one solution per row, at k (a float, or
    one per row), and gives arrays over its rows."""
    norm_sq, mu = profiles.norm_sq[rows], profiles.mu[rows]
    grad = _fsums(w * (profiles.dnorm_sq[rows] + mu * mu * norm_sq))
    return _energy_report(grad, _fsums(w * norm_sq), k)


@functools.lru_cache(maxsize=8)
def _gauss_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and the n-by-n tensor weights, built
    once per n; read-only, so no caller can alter a later quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(grid_n)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    W = np.outer(w, w)
    t.setflags(write=False)
    W.setflags(write=False)
    return t, W


def energy_quadrature(u: SeriesSolution, grid_n: int = 65) -> EnergyReport:
    """Tensor Gauss-Legendre energy of the evaluated field on an n-by-n grid."""
    if grid_n < 17:
        raise ValueError("energy quadrature needs at least a 17x17 grid")
    t, W = _gauss_grid(grid_n)
    vals, gxs, gys = evaluate_grid(u, t, t)
    l2_sq = _fsums((W * np.abs(vals) ** 2).ravel())
    grad_sq = _fsums((W * (np.abs(gxs) ** 2 + np.abs(gys) ** 2)).ravel())
    return _energy_report(grad_sq, l2_sq, u.k)


# --------------------------------------------------------------------------
# residual traces after lifting
# --------------------------------------------------------------------------


def _annihilates(config: BoundaryConfig, side: Side, family: BasisFamily) -> bool:
    """Whether the operator on the vertical `side` is zero on every member
    of `family` as the x factor: the homogeneous condition the family meets
    at that end (x = 1 on the right, x = 0 on the left)."""
    at_left, at_right = homogeneous_operators(family)
    return config.operator(side) is (at_right if side is Side.RIGHT else at_left)


def _residual_traces(lifted: SeriesSolution, right: Spectrum, left: Spectrum,
                     depth: int) -> tuple[Spectrum, Spectrum, tuple]:
    """The right and left data less the traces of the lifted field, each
    projected on the vertical eigenbasis at `depth`, and one ProjectionTail
    per side, right then left.  A side whose operator annihilates every
    block's basis family (_annihilates) has the trace 0: its residual is its
    datum and its tail 0."""
    # Each trace is sum_n c_n * B(X_n) * Y_n(y) on the projection nodes: one
    # contraction of the operators applied to the x tables at x = 1 and 0
    # with the y values.  Outward normals are +d/dx on the right, -d/dx on
    # the left.  A side whose trace is 0 in closed form is left out.
    config = lifted.config
    t, w = quadrature_rule(depth)
    residuals = {Side.RIGHT: right, Side.LEFT: left}
    fractions = dict.fromkeys(residuals, 0.0)
    live = [(side, end, sign) for side, end, sign in ((Side.RIGHT, 1.0, 1.0), (Side.LEFT, 0.0, -1.0))
            if not all(_annihilates(config, side, block.basis) for block in lifted.blocks)]
    if live:
        cx, cdx, y, _ = _grid_tables(lifted, [end for _, end, _ in live], t)
        weights = np.stack([_apply(config.operator(side), cx[:, j], sign * cdx[:, j], lifted.k)
                            for j, (side, _, sign) in enumerate(live)], axis=1)
        traces = _contract(weights, y)
        projections = _project_samples(traces, config.vertical_family(), depth)
        for (side, _, _), samples, projected in zip(live, traces, projections):
            residuals[side] = residuals[side].minus(projected)
            total_sq = float(np.sum(w * np.abs(samples) ** 2))
            captured_sq = _fsums(np.abs(projected.c) ** 2)
            if total_sq > 0:
                fractions[side] = (total_sq - captured_sq) / total_sq
    tails = tuple(ProjectionTail(side, depth, fraction) for side, fraction in fractions.items())
    return residuals[Side.RIGHT], residuals[Side.LEFT], tails


# --------------------------------------------------------------------------
# volumetric sources
# --------------------------------------------------------------------------

#: Panels of the source profiles along x, each with 16 Gauss-Legendre nodes.
SOURCE_PANELS = 48
#: Rows of a SourceTable built at once; the work arrays take about 0.3 MB a row.
_SOURCE_CHUNK = 8
#: A callable source keeps the modes whose largest sample exceeds this share
#: of the largest sample of any mode: its projection leaves roundoff, about
#: 1e-16 of that, in every mode the source does not have.
CALLABLE_SOURCE_FLOOR = 1e-12

_KERNEL_NODES, _KERNEL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_H = 1.0 / SOURCE_PANELS
_EDGES = np.linspace(0.0, 1.0, SOURCE_PANELS + 1)
_HALF = 0.5 * np.diff(_EDGES)[:, None]
#: The panel nodes (panels x 16) and their quadrature weights (raveled).
_NODES = _EDGES[:-1, None] + _HALF * (_KERNEL_NODES + 1.0)
_WEIGHTS = (_HALF * _KERNEL_WEIGHTS).ravel()
#: The nodes on the unit panel, and their barycentric interpolation weights.
_ETA = 0.5 * (_KERNEL_NODES + 1.0)
_BARY = 1.0 / np.prod(np.where(np.eye(16, dtype=bool), 1.0, _ETA[:, None] - _ETA), axis=1)


def _sub_rules(ends: np.ndarray) -> np.ndarray:
    """The 16-point Gauss rule on [0, end] of the unit panel, for each of
    the `ends`, applied to the Lagrange interpolant of samples on the panel
    nodes: entry [e, l, m] is sub-node l's weight times node m's Lagrange
    polynomial there (barycentric form, exactly 1 or 0 on a node)."""
    diff = (ends[:, None] * _ETA)[..., None] - _ETA
    with np.errstate(divide="ignore", invalid="ignore"):
        lagrange = _BARY / diff
    exact = ~np.all(np.isfinite(lagrange), axis=-1)
    lagrange[exact] = diff[exact] == 0
    lagrange /= lagrange.sum(axis=-1, keepdims=True)
    lagrange *= (0.5 * ends[:, None] * _KERNEL_WEIGHTS)[..., None]
    return lagrange


#: The sub-rules at the panel nodes, built once: row e < 16 integrates up
#: to node e, row 16 over the whole panel.
_NODE_ENDS = np.append(_ETA, 1.0)
_NODE_RULES = _sub_rules(_NODE_ENDS)


def _homogeneous(sigma: np.ndarray, k: float, t: np.ndarray):
    """v1 = 1 + (sigma - ik) t phi(2 sigma t), v2 = (1 - t) phi(2 sigma (1 - t))
    and their derivatives v1' = (sigma - ik) e^{2 sigma t}, v2' = -e^{2 sigma (1 - t)}
    on the nodes t, rows x len(t) each.

    v1 meets the homogeneous impedance condition at 0, v2 the Dirichlet
    condition at 1, and both stay bounded for Re(sigma) <= 0; sigma = 0 is
    the polynomial cutoff pair 1 - ikt, 1 - t.
    """
    s = sigma[:, None]
    v1 = 1.0 + (s - 1j * k) * _tphi(s, t)
    dv1 = (s - 1j * k) * np.exp(2.0 * s * t)
    return v1, dv1, _tphi(s, 1.0 - t), -np.exp(2.0 * s * (1.0 - t))


class SourceTable:
    """Horizontal profiles solving X'' + (k^2 - mu^2) X = -f with the
    homogeneous impedance (left) / Dirichlet (right) pair, one row per source
    mode, built from every row's samples f on the panel nodes.

    X = (v2 P + v1 Q) / v1(1) (the Wronskian is W = -v1(1)), with
    P(x) = int_0^x v1 f e^{sigma(x-t)} and Q(x) = int_x^1 v2 f e^{sigma(t-x)}
    for the factors of _homogeneous.  P is kept at every panel edge from the
    left and Q from the right; any x adds the integral of the interpolated
    samples over its panel's part [a, x] or [x, b], by the same sub-rules
    at the panel nodes as anywhere else, so f is never sampled again.  Like
    a ModeTable it has mu, norm_sq, dnorm_sq and value_and_derivative.

    On a panel [a, b] = [a, a + h] the factors split exactly as
    v1(a + h tau) = v1(a) + v1'(a) h tau phi(2 sigma h tau) and
    v2(b - h tau) = v2(b) - v2'(b) h tau phi(2 sigma h tau), so the local
    integrands are the panel's two coefficients times two kernels of tau
    shared by every panel; Q's is P's on the reflected panel.  f_norm_sq
    is each row's panel quadrature of |f|^2.
    """

    def __init__(self, k: float, mu, f: np.ndarray):
        self.k = _check_wavenumber(k)
        self.mu = np.asarray(mu, dtype=float).reshape(-1)
        rows = len(self.mu)
        self.f = np.asarray(f, dtype=complex).reshape(rows, SOURCE_PANELS, 16)
        self.f_norm_sq = _panel_norms_sq(self.f)
        _, self.sigma = _regimes(self.k, self.mu)
        v1, dv1, v2, dv2 = edges = _homogeneous(self.sigma, self.k, _EDGES)
        self._v1_end = v1[:, -1:]
        # The kernels' coefficients on each panel, P's then Q's.
        self._coef = np.stack([np.stack([dv1[:, :-1], v1[:, :-1]], axis=1),
                               np.stack([-dv2[:, 1:], v2[:, 1:]], axis=1)], axis=1)
        self._p, self._q = np.empty((2, rows, SOURCE_PANELS + 1), dtype=complex)
        self.norm_sq, self.dnorm_sq = np.empty((2, rows))
        # Rows are independent, so they are built _SOURCE_CHUNK at a time.
        for start in range(0, rows, _SOURCE_CHUNK):
            r = slice(start, start + _SOURCE_CHUNK)
            self._build(r, *(a[r] for a in edges))

    def _build(self, r: slice, v1, dv1, v2, dv2) -> None:
        """P and Q at the edges and the norms of the rows r, from the
        factors v1, v1', v2, v2' of those rows at the panel edges."""
        sigma, f = self.sigma[r], self.f[r]
        kernels = np.einsum("rgel,elm->rgem", self._kernels(_NODE_ENDS, r), _NODE_RULES,
                            optimize=False)
        sides = np.stack([f, f[..., ::-1]], axis=1)
        local = np.einsum("rsgj,rsjge->rsje", self._coef[r],
                          np.einsum("rsjm,rgem->rsjge", sides, kernels, optimize=False),
                          optimize=False)
        # P at the edges from the left and Q from the right, by the prefix
        # recurrence E[j + 1] = e^{sigma h} E[j] + (panel j's integral) over
        # the rows at once, run by recursive doubling: only the powers
        # e^{sigma h d}, |.| <= 1, appear, where a cumulative sum of
        # rescaled terms would overflow for evanescent rows.
        edge = np.zeros((SOURCE_PANELS + 1, 2, len(sigma)), dtype=complex)
        edge[1:, 0] = local[:, 0, :, -1].T
        edge[1:, 1] = local[:, 1, ::-1, -1].T
        d = 1
        while d <= SOURCE_PANELS:
            edge[d:] += np.exp(sigma * (_H * d)) * edge[:-d]
            d *= 2
        self._p[r], self._q[r] = edge[:, 0].T, edge[::-1, 1].T
        # The factors, P and Q at the panel nodes, by the panel split; the
        # norms are the panel quadrature of X and X'.
        s = sigma[:, None, None]
        lift, grow = _tphi(s, _H * _ETA), np.exp(2.0 * s * (_H * _ETA))
        factors = (v1[:, :-1, None] + dv1[:, :-1, None] * lift, dv1[:, :-1, None] * grow,
                   v2[:, 1:, None] - dv2[:, 1:, None] * lift[..., ::-1],
                   dv2[:, 1:, None] * grow[..., ::-1])
        decay = np.exp(s * (_H * _ETA))
        p = decay * self._p[r, :-1, None] + local[:, 0, :, :-1]
        q = decay[..., ::-1] * self._q[r, 1:, None] + local[:, 1, :, -2::-1]
        value, derivative = self._profile(factors, p, q, r)
        self.norm_sq[r], self.dnorm_sq[r] = _panel_norms_sq(value), _panel_norms_sq(derivative)

    def _kernels(self, ends: np.ndarray, r=slice(None)) -> np.ndarray:
        """The two local kernels of the rows r at the sub-nodes tau of each
        [0, end], times h (dt = h dtau): kernel 0 is
        h tau phi(2 sigma h tau) e^{sigma h (end - tau)}, kernel 1 the bare
        exponential; rows x 2 x ends x 16."""
        s = self.sigma[r, None, None] * _H
        tau = ends[:, None] * _ETA
        decay = np.exp(s * (ends[:, None] - tau))
        return _H * np.stack([_H * _tphi(s, tau) * decay, decay], axis=1)

    def _profile(self, factors, p: np.ndarray, q: np.ndarray, r=slice(None)):
        """X and X' of the rows r from the factors v1, v1', v2, v2' and P
        and Q at the same points."""
        v1, dv1, v2, dv2 = factors
        s, end = (a[r].reshape((-1,) + (1,) * (p.ndim - 1)) for a in (self.sigma, self._v1_end))
        value = (v2 * p + v1 * q) / end
        # X' carries v2' + sigma v2 = (v2' - 1)/2 and v1' - sigma v1 = (v1' - sigma - ik)/2.
        derivative = ((dv2 - 1.0) * p + (dv1 - s - 1j * self.k) * q) / (2.0 * end)
        return value, derivative

    def value_and_derivative(self, t):
        """X and X' of every row on the nodes t, as (rows, len(t)) arrays."""
        x = np.asarray(t, dtype=float).reshape(-1)
        j = np.minimum((x * SOURCE_PANELS).astype(int), SOURCE_PANELS - 1)
        eta = x * SOURCE_PANELS - j
        ends = np.concatenate([eta, 1.0 - eta])
        # The interpolated samples at the sub-nodes, then the kernels: the
        # left part of each panel for P, the reflected right part for Q.
        f = self.f[:, j]
        sub = np.einsum("elm,rem->rel", _sub_rules(ends),
                        np.concatenate([f, f[..., ::-1]], axis=1), optimize=False)
        local = np.einsum("rgel,rel->rge", self._kernels(ends), sub, optimize=False)
        local = np.einsum("rsge,rgse->rse", self._coef[..., j],
                          local.reshape(len(self.mu), 2, 2, len(x)), optimize=False)
        edges = np.stack([self._p[:, j], self._q[:, j + 1]], axis=1)
        pq = np.exp(self.sigma[:, None, None] * (_H * ends.reshape(2, -1))) * edges + local
        return self._profile(_homogeneous(self.sigma, self.k, x), pq[:, 0], pq[:, 1])


def _panel_norms_sq(values: np.ndarray) -> np.ndarray:
    """The panel quadrature of |row|^2 for each row of values on the panel
    nodes, each sum correctly rounded."""
    return _fsums(_WEIGHTS * np.abs(values.reshape(len(values), _WEIGHTS.size)) ** 2)


def _listed_source(f, family: BasisFamily, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The modes of a (mode, profile) list in ascending order, and each
    profile sampled once on the nodes x.  A repeated mode, or one below the
    family's first_nonzero (the zero function), raises ValueError."""
    pairs = sorted(((int(n), fx) for n, fx in f), key=lambda pair: pair[0])
    ns = np.array([n for n, _ in pairs], dtype=np.int64)
    if np.count_nonzero(ns[1:] == ns[:-1]):
        raise ValueError("duplicate source mode")
    if len(ns) and ns[0] < family.first_nonzero:
        raise ValueError(_zero_member(family, ns[0]))
    samples = [_sample(fx, x, what=f"the profile of source mode {n}") for n, fx in pairs]
    return ns, np.array(samples, dtype=complex).reshape(len(ns), x.size)


def _source_grid(f, family: BasisFamily, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A source in either form solve_source takes on the tensor grid x by y,
    entry [i, j] at (x[i], y[j]): a callable sampled in one call (_sample),
    or a listed source's sum of fx(x) Z_n(y) over its modes in ascending
    order, each fx sampled once on x (_listed_source)."""
    if callable(f):
        return _sample(f, x[:, None], y[None, :], what="the source f")
    ns, samples = _listed_source(f, family, x)
    return sum(s[:, None] * basis_value(family, n, y) for n, s in zip(ns, samples))


def solve_source(
    f,
    config: BoundaryConfig,
    k: float,
    truncation: Optional[int] = None,
) -> SeriesSolution:
    """Series solution for a volumetric source with homogeneous boundaries.

    Requires the right side Dirichlet (the impedance side is always the
    left).  `f` is either a list of (mode, profile callable) pairs giving the
    source's expansion over the vertical eigenbasis, or a callable f(x, y)
    projected onto that basis at every panel node, whose modes at or below
    CALLABLE_SOURCE_FLOOR of the largest are roundoff and dropped.  Either
    way each mode's profile is sampled on the panel nodes, once.  A listed
    mode above `truncation`, or on the family's zero member, raises
    ValueError.  The block's profiles are one SourceTable, whose samples `f`
    also give the source norm (f_norm_sq).
    """
    if config.right is not BoundaryOperator.DIRICHLET:
        raise ValueError("the source bound is stated for a Dirichlet right side")
    family = config.vertical_family()

    if callable(f):
        # Each mode's profile is f projected at every panel node.
        n_cap = default_truncation(k, 0) if truncation is None else truncation
        t, _ = quadrature_rule(n_cap)
        samples = _coefficients(_source_grid(f, family, _NODES.ravel(), t), family, n_cap)
        size = np.max(np.abs(samples), axis=0)
        ns = np.flatnonzero(size > CALLABLE_SOURCE_FLOOR * size.max())
        profiles = samples[:, ns].T
    else:
        ns, profiles = _listed_source(f, family, _NODES.ravel())
        n_cap = default_truncation(k, int(ns.max(initial=0))) if truncation is None else truncation
        _check_truncation(ns, n_cap)

    table = SourceTable(k, family.eigenvalue(ns), profiles)
    block = Block(ns, np.ones(len(ns), dtype=complex), table, family, None)
    return SeriesSolution(config, k, n_cap, (block,))


# --------------------------------------------------------------------------
# the problem-to-solution pipeline
# --------------------------------------------------------------------------


def lift(config: BoundaryConfig, data: dict, k: float,
         truncation: Optional[int] = None) -> tuple[SeriesSolution, Spectrum, Spectrum]:
    """Lift the bottom and top data of `data`, a mapping from sides to
    spectra in each side's family, as one field, and subtract its traces
    from the right and left data.

    Returns the lifted field, at `truncation` or the default one, and the
    right and left residual spectra.  The traces are projected at
    `truncation` when one is given, so no residual mode lies beyond it.
    The lifted field's tails hold one ProjectionTail per vertical side,
    right then left, and a tail above TAIL_WARNING_LIMIT is a warning;
    with no bottom or top datum nothing is projected and there are no tails.
    """
    family = config.vertical_family()
    zero = Spectrum.zero(family)
    right, left = data.get(Side.RIGHT, zero), data.get(Side.LEFT, zero)
    if right.family is not family or left.family is not family:
        raise ValueError("original vertical data must be in the vertical eigenbasis")
    # The empty part carries the truncation when no datum is lifted; a
    # datum's default truncation is never below it.
    n_cap = default_truncation(k, 0) if truncation is None else truncation
    lifted = superpose([SeriesSolution(config, k, n_cap, ())]
                       + [solve_datum(config, side, data[side], k, truncation)
                          for side in (Side.BOTTOM, Side.TOP) if side in data])
    if not lifted.blocks:
        return lifted, right, left
    depth = truncation
    if depth is None:
        depth = max(lifted.truncation, default_projection_depth(k), right.top_mode, left.top_mode)
    right, left, tails = _residual_traces(lifted, right, left, depth)
    return replace(lifted, tails=tails), right, left


def solve_problem(config: BoundaryConfig, data: dict, k: float, source=None,
                  truncation: Optional[int] = None) -> SeriesSolution:
    """Series solution for `data` (as for lift) and a `source` (as for
    solve_source): the lifted field, the right and left residual solves and
    the source solve, superposed in that order, with the lifted field's
    tails and so its warnings.  No data and no source make the zero
    solution, at `truncation` or the default one."""
    lifted, right, left = lift(config, data, k, truncation)
    pieces = [lifted] + [solve_datum(config, side, g, k, truncation)
                         for side, g in ((Side.RIGHT, right), (Side.LEFT, left)) if len(g)]
    if source is not None:
        pieces.append(solve_source(source, config, k, truncation))
    return superpose(pieces)
