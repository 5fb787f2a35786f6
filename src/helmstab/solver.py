"""Truncated separable series solutions on the unit square.

A solution is a finite sum of terms coeff * X(x) * Y(y) where one factor is
an orthonormal basis member and the other is a closed-form 1D mode (or, for
volumetric sources, a kernel-built profile).  The terms are held in blocks
of arrays: a block is the coefficients, the profiles (a ModeTable, or the
SourceProfiles of a source solve), the basis family and the orientation.
Energies are available both through modal sums (Parseval) and through
tensor Gauss-Legendre quadrature of the evaluated field.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .eigenbasis import (
    BasisFamily,
    BoundaryOperator,
    Spectrum,
    basis_derivative,
    basis_value,
    quadrature_rule,
    select_eigenpairs,
    _coefficients,
    _contract,
    _project_samples,
    _vector_capable,
)
from .modal1d import (
    ModeTable,
    Regime,
    Side,
    choose_lifting_family,
    x_modes,
    y_modes_lifting,
    _apply,
    _classify,
)


class ProjectionTruncationWarning(UserWarning):
    """Residual-trace projection left more than the allowed tail energy."""


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
        if self.left is not BoundaryOperator.IMPEDANCE:
            raise ValueError("the left side must carry the impedance operator")
        for side_name, op in (("bottom", self.bottom), ("top", self.top)):
            if op is BoundaryOperator.IMPEDANCE:
                raise ValueError(f"impedance is not admissible on the {side_name} side")

    def operator(self, side: Side) -> BoundaryOperator:
        return getattr(self, side.value)

    def vertical_family(self) -> BasisFamily:
        return select_eigenpairs(self.bottom, self.top)


class Provenance(Enum):
    VERTICAL_DATA = "vertical-data"
    LIFTED_HORIZONTAL_DATA = "lifted-horizontal-data"
    SOURCE_TERM = "source-term"
    SUPERPOSITION = "superposition"


@dataclass(frozen=True, eq=False)
class Block:
    """The terms c_i * P_i * Z_i of one solve, as arrays.

    Row i is mode n[i] with coefficient c[i]; P_i is row i of `profiles`
    (a ModeTable, or a tuple of SourceProfiles) and Z_i the member n[i] of
    the basis family.  The profile is the x factor, or the y factor when
    `lifted`.  Rows are in ascending mode order.
    """

    n: np.ndarray
    c: np.ndarray
    profiles: object  # a ModeTable, or a tuple of SourceProfiles
    basis: BasisFamily
    lifted: bool


def _profile_tables(profiles, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The profiles' values and derivatives on the nodes t, one row each."""
    if isinstance(profiles, ModeTable):
        return profiles.value_and_derivative(t)
    value = np.empty((len(profiles), len(t)), dtype=complex)
    derivative = np.empty_like(value)
    for i, profile in enumerate(profiles):
        value[i], derivative[i] = profile.value_and_derivative(t)
    return value, derivative


def _profile_norms(profiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profiles' transverse eigenvalues mu, squared L2 norms and squared
    norms of their derivatives."""
    if isinstance(profiles, ModeTable):
        return profiles.mu, profiles.norm_sq, profiles.dnorm_sq
    return tuple(np.array([getattr(p, name) for p in profiles], dtype=float)
                 for name in ("mu", "norm_sq", "dnorm_sq"))


@dataclass(frozen=True)
class SeriesSolution:
    config: BoundaryConfig
    k: float
    truncation: int
    provenance: Provenance
    blocks: tuple  # of Block

    @property
    def modes(self) -> np.ndarray:
        """The mode index of every term, block after block."""
        return np.concatenate([b.n for b in self.blocks] or [np.zeros(0, dtype=np.int64)])


class EnergyMethod(Enum):
    PARSEVAL = "parseval"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EnergyReport:
    grad_norm: float
    l2_norm: float
    energy: float
    method: EnergyMethod


def _energy_report(grad_sq: float, l2_sq: float, k: float, method: EnergyMethod) -> EnergyReport:
    grad = math.sqrt(max(grad_sq, 0.0))
    l2 = math.sqrt(max(l2_sq, 0.0))
    return EnergyReport(grad_norm=grad, l2_norm=l2, energy=grad + k * l2, method=method)


def default_truncation(k: float, top_mode: int) -> int:
    """Top data mode, or enough modes past the propagating range."""
    return max(top_mode, math.ceil(k / math.pi) + 16)


def default_projection_depth(k: float) -> int:
    """Projection depth of traces and named data without a truncation."""
    return 2 * math.ceil(k / math.pi) + 32


def _check_truncation(modes: np.ndarray, truncation: int) -> None:
    """Raise ValueError for a mode above the truncation: a solve would drop it."""
    above = modes > truncation
    if np.count_nonzero(above):
        raise ValueError(f"datum mode {modes[np.argmax(above)]} lies above truncation "
                         f"{truncation}; the solve would drop it")


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------


def solve_vertical_data(
    config: BoundaryConfig,
    side: Side,
    data: Spectrum,
    k: float,
    truncation: Optional[int] = None,
) -> SeriesSolution:
    """Series solution for a single vertical-side datum.

    Each nonzero coefficient pairs with the closed-form horizontal profile
    carrying a unit datum on `side` (applied through that side's operator)
    and the matching vertical eigenfunction.  A nonzero mode above
    `truncation` raises ValueError.
    """
    if side not in (Side.LEFT, Side.RIGHT):
        raise ValueError("vertical data lives on the LEFT or RIGHT side")
    family = config.vertical_family()
    if data.family is not family:
        raise ValueError(
            f"data family {data.family} does not match the horizontal operators "
            f"(expected {family})"
        )
    n_cap = default_truncation(k, data.top_mode) if truncation is None else truncation
    ns, cs = _retained(data, n_cap)
    block = Block(ns, cs, x_modes(ns, k, config.right, side, family), family, lifted=False)
    return SeriesSolution(config, k, n_cap, Provenance.VERTICAL_DATA, (block,))


def _retained(data: Spectrum, n_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and coefficients of the datum's nonzero modes, all <= n_cap."""
    kept = data.c != 0
    ns = data.n[kept]
    _check_truncation(ns, n_cap)
    return ns, data.c[kept]


def lift_horizontal_data(
    g: Spectrum,
    side: Side,
    config: BoundaryConfig,
    k: float,
    truncation: Optional[int] = None,
) -> SeriesSolution:
    """Auxiliary field absorbing a horizontal-side datum.

    The datum expands in a basis whose eigenvalue lattice is the
    resonance-avoiding choice for this k; each term multiplies that basis
    member in x with the vertical auxiliary profile.  A nonzero mode above
    `truncation` raises ValueError.
    """
    if side not in (Side.BOTTOM, Side.TOP):
        raise ValueError("horizontal data lives on the BOTTOM or TOP side")
    choice = choose_lifting_family(k, config.bottom, config.top)
    if not choice.admits(g.family):
        raise ValueError(
            f"data family {g.family} is not admissible for this wavenumber: the "
            f"resonance-avoiding eigenvalue family is {choice.family.value}"
        )
    n_cap = default_truncation(k, g.top_mode) if truncation is None else truncation
    ns, cs = _retained(g, n_cap)
    table = y_modes_lifting(ns, k, config.bottom, config.top, side, choice)
    block = Block(ns, cs, table, g.family, lifted=True)
    return SeriesSolution(config, k, n_cap, Provenance.LIFTED_HORIZONTAL_DATA, (block,))


def superpose(parts: Sequence[SeriesSolution]) -> SeriesSolution:
    """Concatenate solutions sharing one wavenumber and operator skeleton."""
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
    return SeriesSolution(first.config, first.k, trunc, Provenance.SUPERPOSITION, blocks)


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

    Each chunk of points tabulates the factors once per distinct x (or y)
    coordinate and gathers them to the points.  Terms accumulate in
    ascending mode order, so the result is independent of how the series
    was put together.  On a tensor grid, evaluate_grid does the same work
    as a few array products.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 2:
        raise ValueError("points must be (x, y) pairs")
    _check_inside(pts)
    fields = np.empty((3, len(pts)), dtype=complex)
    for lo in range(0, len(pts), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        ux, ix = np.unique(pts[part, 0], return_inverse=True)
        uy, iy = np.unique(pts[part, 1], return_inverse=True)
        cx, cdx, y, dy = _grid_tables(u, ux, uy)
        cx, cdx, y, dy = cx[:, ix], cdx[:, ix], y[:, iy], dy[:, iy]
        for field, a, b in zip(fields, (cx, cdx, cx), (y, y, dy)):
            field[part] = np.einsum("rp,rp->p", a, b, optimize=False)
    return fields[0], fields[1], fields[2]


def _block_tables(block: Block, tx: np.ndarray, ty: np.ndarray):
    """c*X and c*X' on tx, Y and Y' on ty, for the rows of one block, from
    one build of its profiles and one of its basis members."""
    basis_t, profile_t = (tx, ty) if block.lifted else (ty, tx)
    p, dp = _profile_tables(block.profiles, profile_t)
    n = block.n[:, None]
    b, db = basis_value(block.basis, n, basis_t), basis_derivative(block.basis, n, basis_t)
    x, dx, y, dy = (b, db, p, dp) if block.lifted else (p, dp, b, db)
    return block.c[:, None] * x, block.c[:, None] * dx, y, dy


def _grid_tables(u: SeriesSolution, tx, ty):
    """The factor tables of u's terms on the tensor grid tx by ty: c*X and
    c*X' on tx, Y and Y' on ty, one row per term in ascending mode order
    (terms of equal mode in block order)."""
    tx, ty = np.asarray(tx, dtype=float), np.asarray(ty, dtype=float)
    if tx.ndim != 1 or ty.ndim != 1:
        raise ValueError("grid coordinates must be one-dimensional arrays")
    _check_inside(tx)
    _check_inside(ty)
    modes = u.modes
    row = np.empty(len(modes), dtype=np.intp)  # each term's row in the tables
    row[np.argsort(modes, kind="stable")] = np.arange(len(modes))
    tables = [np.empty((len(modes), len(t)), dtype=complex) for t in (tx, tx, ty, ty)]
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
    if u.provenance is Provenance.SUPERPOSITION:
        raise ValueError(
            "superposed series mix factor bases; use energy_quadrature instead"
        )
    l2_parts, grad_parts = [], []
    for block in u.blocks:
        w = np.abs(block.c) ** 2
        mu, norm_sq, dnorm_sq = _profile_norms(block.profiles)
        l2_parts += (w * norm_sq).tolist()
        grad_parts += (w * (dnorm_sq + mu * mu * norm_sq)).tolist()
    # fsum is correctly rounded, so the order of the modes does not matter.
    return _energy_report(math.fsum(grad_parts), math.fsum(l2_parts), u.k, EnergyMethod.PARSEVAL)


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
    l2_sq = math.fsum((W * np.abs(vals) ** 2).ravel())
    grad_sq = math.fsum((W * (np.abs(gxs) ** 2 + np.abs(gys) ** 2)).ravel())
    return _energy_report(grad_sq, l2_sq, u.k, EnergyMethod.QUADRATURE)


# --------------------------------------------------------------------------
# residual traces after lifting
# --------------------------------------------------------------------------


def residual_traces(
    aux: SeriesSolution,
    original_right: Spectrum,
    original_left: Spectrum,
    depth: Optional[int] = None,
    tails: Optional[list] = None,
) -> tuple[Spectrum, Spectrum]:
    """Vertical-side data left over after subtracting the auxiliary field.

    Returns the right-side and left-side residual spectra in the vertical
    eigenbasis.  Warns when the projected trace leaves more than 1e-8 of its
    energy beyond the projection depth.  When `tails` is a list, one
    ProjectionTail per side is appended to it.
    """
    if aux.provenance is not Provenance.LIFTED_HORIZONTAL_DATA:
        raise ValueError("residual traces are defined for lifted solutions")
    family = aux.config.vertical_family()
    for g in (original_right, original_left):
        if g.family is not family:
            raise ValueError("original vertical data must be in the vertical eigenbasis")
    if depth is None:
        depth = max(
            aux.truncation,
            default_projection_depth(aux.k),
            original_right.top_mode,
            original_left.top_mode,
        )

    # Each trace is sum_n c_n * B(X_n) * Y_n(y) on the projection nodes: one
    # contraction of the operators applied to the x tables at x = 1 and 0
    # with the y values.  Outward normals are +d/dx on the right, -d/dx on
    # the left.
    t, w = quadrature_rule(depth)
    sides = (Side.RIGHT, Side.LEFT)
    cx, cdx, y, _ = _grid_tables(aux, [1.0, 0.0], t)
    weights = np.stack([_apply(aux.config.operator(side), cx[:, j], sign * cdx[:, j], aux.k)
                        for j, (side, sign) in enumerate(zip(sides, (1.0, -1.0)))], axis=1)
    traces = _contract(weights, y)

    residuals = []
    projections = _project_samples(traces, family, depth)
    for side, original, projected, samples in zip(
            sides, (original_right, original_left), projections, traces):
        fraction = 0.0
        if len(aux.modes):
            total_sq = float(np.sum(w * np.abs(samples) ** 2))
            captured_sq = math.fsum((np.abs(projected.c) ** 2).tolist())
            if total_sq > 0:
                fraction = (total_sq - captured_sq) / total_sq
            if fraction > 1e-8:
                warnings.warn(
                    f"trace projection on the {side.value} side left "
                    f"{fraction:.2e} of its energy beyond mode {depth}",
                    ProjectionTruncationWarning,
                    stacklevel=2,
                )
        if tails is not None:
            tails.append(ProjectionTail(side, depth, fraction))
        residuals.append(original.minus(projected))
    return residuals[0], residuals[1]


# --------------------------------------------------------------------------
# volumetric sources
# --------------------------------------------------------------------------

_KERNEL_NODES, _KERNEL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _lagrange(tau: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Values at tau of the Lagrange polynomials of `nodes`, as an array
    tau.shape + (len(nodes),); exactly the identity at the nodes."""
    off = ~np.eye(len(nodes), dtype=bool)
    num = np.where(off, (tau[..., None] - nodes)[..., None, :], 1.0).prod(axis=-1)
    den = np.where(off, nodes[:, None] - nodes, 1.0).prod(axis=-1)
    return num / den


# A panel [a, a + h] is a + h*eta for eta in [0, 1], with the kernel nodes at
# _ETA.  Row i < 16 of the sub-rule is the 16-point rule on [0, eta_i], for
# the local integral up to node i; row 16 is the rule on [0, 1], whose
# sub-nodes are the panel nodes.  _SUB_LAGRANGE[i, l, m] is sub-node l's
# weight times the Lagrange value of panel node m there, so a row of it
# integrates a panel's interpolated samples.
_ETA = 0.5 * (_KERNEL_NODES + 1.0)
_SUB_ENDS = np.append(_ETA, 1.0)
_SUB_NODES = _SUB_ENDS[:, None] * _ETA
_SUB_LAGRANGE = ((0.5 * _SUB_ENDS[:, None] * _KERNEL_WEIGHTS)[:, :, None]
                 * _lagrange(_SUB_NODES, _ETA))


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel nodes and weights of every panel, one row per panel."""
    a, b = edges[:-1, None], edges[1:, None]
    h = 0.5 * (b - a)
    return a + h * (_KERNEL_NODES + 1.0), h * _KERNEL_WEIGHTS


class SourceProfile:
    """Horizontal profile solving X'' + (k^2 - mu^2) X = -fx with the
    homogeneous impedance (left) / Dirichlet (right) pair.

    Built by integrating fx against the two one-sided homogeneous solutions,
    P(x) = int_0^x v1 f e^{s(x-t)} and Q(x) = int_x^1 v2 f e^{s(t-x)}; the
    cumulative kernel integrals are carried in exponentially rescaled form
    so evanescent modes never overflow.  fx is sampled once on the panel
    nodes (scalar-only callables are wrapped); the norms integrate those
    samples through fixed per-panel kernels.
    """

    def __init__(self, fx: Callable, k: float, mu: float, panels: int = 48):
        self.k = float(k)
        self.mu = float(mu)
        self.fx = _vector_capable(fx)
        self.regime, self.sigma = _classify(k, mu)
        self._panels = int(panels)
        self._edges = np.linspace(0.0, 1.0, self._panels + 1)
        self._cutoff = self.regime.kind is Regime.CUTOFF
        if self._cutoff:
            self._wbar = 1j * k - 1.0
        else:
            s = self.sigma
            self._v1_c0 = s + 1j * k       # v1(t) = (s - ik) e^{2st} + (s + ik)
            self._v1_c1 = s - 1j * k
            self._wbar = complex(-2.0 * s * self._v1(1.0))
            if abs(self._wbar) <= 1e-12 * max(abs(s) * (abs(s) + k), 1e-300):
                raise ArithmeticError(
                    "source kernel is numerically singular; the impedance pair "
                    "should prevent this"
                )
        t, w = _panel_nodes(self._edges)
        f = np.asarray(self.fx(t.ravel()), dtype=complex).reshape(t.shape)
        p_local, q_local = self._local_integrals(f)
        self._ptable, self._qtable = self._prefix_tables(p_local[:, -1], q_local[:, 0])
        # P and Q at the panel nodes: the edge table carried in, plus the
        # local integral; the norms are the panel quadrature of X and X'.
        s, a, b = self.sigma, self._edges[:-1, None], self._edges[1:, None]
        p = np.exp(s * (t - a)) * self._ptable[:-1, None] + p_local[:, :-1]
        q = np.exp(s * (b - t)) * self._qtable[1:, None] + q_local[:, 1:]
        val, der = self._value_deriv(t.ravel(), p.ravel(), q.ravel())
        w = w.ravel()
        self.norm_sq = math.fsum(w * np.abs(val) ** 2)
        self.dnorm_sq = math.fsum(w * np.abs(der) ** 2)

    # homogeneous factors, bounded for Re(sigma) <= 0 ----------------------
    def _v1(self, t):
        if self._cutoff:
            return 1.0 - 1j * self.k * np.asarray(t)
        return self._v1_c1 * np.exp(2.0 * self.sigma * np.asarray(t)) + self._v1_c0

    def _v1p(self, t):
        if self._cutoff:
            return np.full(np.shape(t), -1j * self.k)
        return 2.0 * self.sigma * self._v1_c1 * np.exp(2.0 * self.sigma * np.asarray(t))

    def _v2(self, t):
        if self._cutoff:
            return 1.0 - np.asarray(t)
        return np.exp(2.0 * self.sigma * (1.0 - np.asarray(t))) - 1.0

    def _v2p(self, t):
        if self._cutoff:
            return np.full(np.shape(t), -1.0 + 0.0j)
        return -2.0 * self.sigma * np.exp(2.0 * self.sigma * (1.0 - np.asarray(t)))

    # kernel tables ---------------------------------------------------------
    def _local_integrals(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each panel's local integrals from its samples f (panels x 16).

        Column i < 16 of P is the integral from the panel's start to node i,
        column 16 the whole panel; column 0 of Q is the whole panel and
        column i + 1 the integral from node i to the panel's end.

        On a panel, v1(a + h*eta) = p1*g1(eta) + p0 with g1 = e^{2sh*eta}
        (cutoff: g1 = eta), so only f is interpolated and each kernel, g1 or
        1 times the exponential of P, is one contraction with the sub-rule.
        Reflecting eta -> 1 - eta turns Q's integrand into P's, with
        v2(a + h*eta) = q1*g1(1 - eta) + q0, so Q takes P's kernels with
        rows and columns reversed.
        """
        s, h = self.sigma, 1.0 / self._panels
        a, b = self._edges[:-1, None], self._edges[1:, None]
        ends, nodes = _SUB_ENDS[:, None], _SUB_NODES
        if self._cutoff:
            g = np.stack([nodes, np.ones_like(nodes)])
            (p1, p0), (q1, q0) = (-1j * self.k * h, 1.0 - 1j * self.k * a), (h, 1.0 - b)
        else:
            g = np.exp(s * h * np.stack([ends + nodes, ends - nodes]))
            p1, p0 = self._v1_c1 * np.exp(2.0 * s * a), self._v1_c0
            q1, q0 = np.exp(2.0 * s * (1.0 - b)), -1.0
        kernels = np.einsum("cil,ilm->cim", g, _SUB_LAGRANGE, optimize=False)
        (fp1, fp0), (fq1, fq0) = np.einsum("rjm,cim->rcji", np.stack([f, f[:, ::-1]]),
                                           kernels, optimize=False)
        return h * (p1 * fp1 + p0 * fp0), h * (q1 * fq1 + q0 * fq0)[:, ::-1]

    def _prefix_tables(self, p_panel: np.ndarray, q_panel: np.ndarray):
        """P at every panel edge from the left, Q from the right."""
        m = self._panels
        p = np.zeros(m + 1, dtype=complex)
        q = np.zeros(m + 1, dtype=complex)
        step = np.exp(self.sigma * (self._edges[1] - self._edges[0]))
        for j in range(m):
            p[j + 1] = step * p[j] + p_panel[j]
        for j in range(m - 1, -1, -1):
            q[j] = step * q[j + 1] + q_panel[j]
        return p, q

    def _batch_partials(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(x), Q(x) for an array of x: panel prefix plus a local integral
        by a fresh 16-point rule on each side of x."""
        s = self.sigma
        j = np.minimum((xs * self._panels).astype(int), self._panels - 1)
        a, b = self._edges[j], self._edges[j + 1]
        hl = 0.5 * (xs - a)
        tl = a[:, None] + hl[:, None] * (_KERNEL_NODES + 1.0)
        wl = hl[:, None] * _KERNEL_WEIGHTS
        fl = np.asarray(self.fx(tl.ravel()), dtype=complex).reshape(tl.shape)
        p = np.exp(s * (xs - a)) * self._ptable[j] + np.sum(
            wl * self._v1(tl) * fl * np.exp(s * (xs[:, None] - tl)), axis=1
        )
        hr = 0.5 * (b - xs)
        tr = xs[:, None] + hr[:, None] * (_KERNEL_NODES + 1.0)
        wr = hr[:, None] * _KERNEL_WEIGHTS
        fr = np.asarray(self.fx(tr.ravel()), dtype=complex).reshape(tr.shape)
        q = np.exp(s * (b - xs)) * self._qtable[j + 1] + np.sum(
            wr * self._v2(tr) * fr * np.exp(s * (tr - xs[:, None])), axis=1
        )
        return p, q

    def _value_deriv(self, xs: np.ndarray, p: np.ndarray, q: np.ndarray):
        """X and X' at xs from the kernel integrals P and Q there."""
        s = self.sigma
        v1, v2 = self._v1(xs), self._v2(xs)
        val = -(v2 * p + v1 * q) / self._wbar
        der = -((self._v2p(xs) + s * v2) * p + (self._v1p(xs) - s * v1) * q) / self._wbar
        return val, der

    def value_and_derivative(self, t):
        """(X(t), X'(t)) from one pass over the kernel integrals."""
        xs = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        val, der = self._value_deriv(xs, *self._batch_partials(xs))
        if np.ndim(t):
            return val.reshape(np.shape(t)), der.reshape(np.shape(t))
        return complex(val[0]), complex(der[0])


def _sample_source(f: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f on the grid x by y: one array call f(x[:, None], y[None, :]), or one
    scalar call per node when f raises TypeError or ValueError on arrays or
    returns the wrong shape."""
    shape = (len(x), len(y))
    try:
        values = np.asarray(f(x[:, None], y[None, :]), dtype=complex)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != shape:
        values = np.array([[f(float(xi), float(yj)) for yj in y] for xi in x],
                          dtype=complex).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("the source f has non-finite samples")
    return values


def solve_source(
    f,
    config: BoundaryConfig,
    k: float,
    truncation: Optional[int] = None,
    resolution: int = 48,
) -> SeriesSolution:
    """Series solution for a volumetric source with homogeneous boundaries.

    Requires the right side Dirichlet (the impedance side is always the
    left).  `f` is either a list of (mode, profile callable) pairs giving the
    source's expansion over the vertical eigenbasis, or a callable f(x, y)
    projected onto that basis by quadrature.  A listed mode above
    `truncation` raises ValueError.
    """
    if config.right is not BoundaryOperator.DIRICHLET:
        raise ValueError("the source bound is stated for a Dirichlet right side")
    family = config.vertical_family()

    profiles: list[tuple[int, Callable]] = []
    if callable(f):
        # Each mode's profile is the Chebyshev interpolant of its projected
        # samples on 65 Chebyshev points in x.
        n_cap = default_truncation(k, 0) if truncation is None else truncation
        cheb_x = 0.5 * (1.0 - np.cos(np.pi * np.arange(65) / 64))
        t, _ = quadrature_rule(n_cap)
        samples = _coefficients(_sample_source(f, cheb_x, t), family, n_cap)
        series = np.polynomial.chebyshev.chebfit(2.0 * cheb_x - 1.0, samples, 64)
        for n in np.flatnonzero(np.any(samples != 0, axis=0)):
            profiles.append((int(n), (lambda x, c=series[:, n]:
                                      np.polynomial.chebyshev.chebval(2.0 * np.asarray(x) - 1.0, c))))
    else:
        listed = np.array([int(n) for n, _ in f], dtype=np.int64)
        top = int(listed.max(initial=0))
        n_cap = default_truncation(k, top) if truncation is None else truncation
        _check_truncation(listed, n_cap)
        seen = set()
        for n, fx in f:
            n = int(n)
            if n in seen:
                raise ValueError("duplicate source mode")
            seen.add(n)
            if family is BasisFamily.SIN_INT and n == 0:
                continue
            profiles.append((n, fx))

    profiles.sort(key=lambda pair: pair[0])
    ns = np.array([n for n, _ in profiles], dtype=np.int64)
    built = tuple(SourceProfile(fx, k, family.eigenvalue(n), panels=resolution)
                  for n, fx in profiles)
    block = Block(ns, np.ones(len(ns), dtype=complex), built, family, lifted=False)
    return SeriesSolution(config, k, n_cap, Provenance.SOURCE_TERM, (block,))


def source_l2_norm(f, config: BoundaryConfig, resolution: int = 48) -> float:
    """L2 norm of a modal source (mode, profile) list: Parseval across the
    vertical eigenbasis, panel quadrature along x."""
    family = config.vertical_family()
    t, w = _panel_nodes(np.linspace(0.0, 1.0, resolution + 1))
    t, w = t.ravel(), w.ravel()
    parts = []
    for n, fx in f:
        if family is BasisFamily.SIN_INT and n == 0:
            continue
        vals = np.asarray(_vector_capable(fx)(t), dtype=complex)
        parts.append(math.fsum(w * np.abs(vals) ** 2))
    return math.sqrt(math.fsum(parts))
