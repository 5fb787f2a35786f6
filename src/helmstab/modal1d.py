"""Closed-form 1D modal solutions on [0,1] and their exact L2 norms.

Each mode solves X'' + (k^2 - mu^2) X = 0 with one inhomogeneous boundary
operator carrying a unit datum.  Three regimes: propagating (mu^2 < k^2,
oscillatory), evanescent (mu^2 > k^2, exponential), and cutoff (mu^2 = k^2
within tolerance, polynomial).  Norms are evaluated from cancellation-free
regroupings of the closed forms, stable from the cutoff through z ~ 800.

All modes of one problem at one k are built together as a ModeTable, a
struct of arrays with one row per mode index, which tabulates every row's
profile on a set of nodes in one broadcast.

Also provides the lifting eigenvalue-family selection driven by the distance
of k^2 to the two eigenvalue lattices, the resonance-gap lower bound, and the
energy-density quantities phi/theta/psi used by the certification sweeps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .eigenbasis import BasisFamily, BoundaryOperator

#: Relative gap |k^2 - mu^2| / max(k^2, mu^2) below which a mode is cutoff.
EPS_CUTOFF = 1e-8

#: Determinant tolerance (relative) for the 2x2 amplitude systems.
_DET_TOL = 1e-12

#: Switch the hyperbolic primitives to exp-scaled forms beyond this z.
_HYP_SCALE_Z = 20.0

#: Switch the cancellation-prone differences to series below this z.
_SERIES_Z = 0.25


class ResonantLiftingError(ValueError):
    """Lifting mode requested at (or numerically at) a resonant eigenvalue."""


class Side(Enum):
    """Sides of the unit square, named by position.

    BOTTOM: y = 0, RIGHT: x = 1, TOP: y = 1, LEFT: x = 0.  Outward normal
    derivatives are -d/dy, +d/dx, +d/dy, -d/dx respectively.
    """

    BOTTOM = "bottom"
    RIGHT = "right"
    TOP = "top"
    LEFT = "left"


class Regime(Enum):
    PROPAGATING = "propagating"
    CUTOFF = "cutoff"
    EVANESCENT = "evanescent"


#: Regime codes of ModeTable.regime; _REGIMES[code] is the Regime.
PROPAGATING, CUTOFF, EVANESCENT = 0, 1, 2
_REGIMES = (Regime.PROPAGATING, Regime.CUTOFF, Regime.EVANESCENT)


@dataclass(frozen=True)
class ModeRegime:
    kind: Regime
    lam: float  # sqrt(|1 - mu^2/k^2|)
    z: float    # k * lam = sqrt(|k^2 - mu^2|)


def _check_wavenumber(k) -> float:
    k = float(k)
    if not (k > 0 and math.isfinite(k)):
        raise ValueError(f"wavenumber k must be positive and finite, got k={k!r}")
    return k


#: sigma / z per regime code: sigma is i*z, 0 or -z.
_SIGMA_PER_Z = np.array([1j, 0.0, -1.0])


def _regimes(k: float, mu: np.ndarray):
    """Regime code, z = sqrt|k^2 - mu^2| and sigma of each mode."""
    # (k-mu)(k+mu) avoids the catastrophic cancellation of k*k - mu*mu near
    # the cutoff (the difference k-mu is exact there).
    gap = np.abs((k - mu) * (k + mu))
    z = np.sqrt(gap)
    code = np.where(mu * mu < k * k, PROPAGATING, EVANESCENT)
    code[gap <= EPS_CUTOFF * np.maximum(k * k, mu * mu)] = CUTOFF
    return code, z, z * _SIGMA_PER_Z[code]


def classify_mode(k: float, mu: float) -> ModeRegime:
    """Regime of the mode with transverse eigenvalue mu at wavenumber k."""
    k = _check_wavenumber(k)
    code, z, _ = _regimes(k, np.array([mu], dtype=float))
    z0 = float(z[0])
    return ModeRegime(_REGIMES[code[0]], z0 / k, z0)


# --------------------------------------------------------------------------
# modal solutions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeTable:
    """The closed-form modes of one 1D problem at one k, one row per index.

    `regime` holds the codes PROPAGATING/CUTOFF/EVANESCENT.  Exponential
    rows carry sigma and the anchored amplitudes of exp(sigma*t) and
    exp(sigma*(1-t)); cutoff rows carry polynomial coefficients (constant
    term first) in `poly`.  Fields a row's branch does not use are zero.
    """

    k: float
    n: np.ndarray
    mu: np.ndarray
    regime: np.ndarray
    z: np.ndarray
    sigma: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    poly: np.ndarray  # (rows, 3)
    norm_sq: np.ndarray
    dnorm_sq: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def value_and_derivative(self, t):
        """X and X' of every row on the nodes t, as (rows, len(t)) arrays.

        Exponential rows are forward*e^{sigma t} + backward*e^{sigma(1-t)}
        and its derivative, built in one broadcast; cutoff rows evaluate
        their polynomials.
        """
        t = np.asarray(t, dtype=float)
        sigma = self.sigma[:, None]
        forward = np.multiply(sigma, t)
        np.exp(forward, out=forward)
        forward *= self.forward[:, None]
        value = np.multiply(sigma, 1.0 - t)
        np.exp(value, out=value)
        value *= self.backward[:, None]
        derivative = forward - value
        derivative *= sigma
        value += forward
        cut = np.flatnonzero(self.regime == CUTOFF)
        if len(cut):
            p0, p1, p2 = (self.poly[cut, j, None] for j in range(3))
            value[cut] = (p2 * t + p1) * t + p0
            derivative[cut] = 2.0 * p2 * t + p1
        return value, derivative


def _poly_l2_sq(coeffs) -> float:
    """Exact integral of |p(t)|^2 over [0,1]."""
    total = 0.0
    for i, ci in enumerate(coeffs):
        for j, cj in enumerate(coeffs):
            total += (ci * cj.conjugate()).real / (i + j + 1)
    return total


def _reflect_poly(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    """Coefficients of p(1-t) given those of p(t)."""
    out = [0.0 + 0.0j] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * (-1.0) ** j
    return tuple(out)


def _operator_row(op: BoundaryOperator, end: int, sigma, k: float):
    """Row of the 2x2 system applying op at an endpoint, per sigma.

    Acts on (forward, backward) amplitudes of exp(sigma*t), exp(sigma*(1-t)).
    Normal derivatives point outward: -d/dt at t=0, +d/dt at t=1.
    """
    es = np.exp(sigma)
    if end == 0:
        return _apply(op, 1.0 + 0.0j, -sigma, k), _apply(op, es, sigma * es, k)
    return _apply(op, es, sigma * es, k), _apply(op, 1.0 + 0.0j, -sigma, k)


def _poly_operator_row(op: BoundaryOperator, end: int, k: float):
    """Same as _operator_row for the degenerate branch p0 + p1*t: the value
    row is (1, t) and the outward derivative row (0, -1) at t=0, (0, 1) at 1."""
    return _apply(op, 1.0 + 0.0j, 0.0, k), _apply(op, float(end), 2.0 * end - 1.0, k)


def _apply(op: BoundaryOperator, value, normal, k: float):
    """op applied to values and outward normal derivatives (scalars or
    arrays)."""
    if op is BoundaryOperator.DIRICHLET:
        return value
    if op is BoundaryOperator.NEUMANN:
        return normal
    return normal - 1j * k * value



def _solve_2x2(r0, r1, d0: float, d1: float, ns: np.ndarray):
    """Solve the rows' 2x2 systems for the data (d0, d1).

    Entries may be scalars or arrays over the modes `ns`; a numerically
    singular system raises ResonantLiftingError naming its mode.
    """
    det = r0[0] * r1[1] - r0[1] * r1[0]
    scale = np.maximum(abs(r0[0]), abs(r0[1])) * np.maximum(abs(r1[0]), abs(r1[1]))
    singular = abs(det) <= _DET_TOL * np.maximum(scale, 1e-300)
    if np.count_nonzero(singular):
        i = int(np.argmax(singular))
        raise ResonantLiftingError(
            f"boundary-value system of mode {int(ns[i])} is singular "
            f"(|det|={np.ravel(np.abs(det))[i]:.3e}, scale={np.ravel(scale)[i]:.3e})"
        )
    return (d0 * r1[1] - d1 * r0[1]) / det, (r0[0] * d1 - r1[0] * d0) / det


# --------------------------------------------------------------------------
# closed-form norms (verified against 50-digit quadrature)
# --------------------------------------------------------------------------

# (2z - sin 2z)/2 = z^3 * sum c_m (2z)^(2m); c_0 = 2/3 after normalization.
_ODD_FACT_INV = [1.0 / math.factorial(2 * m + 3) for m in range(9)]


def _trig_blocks(z):
    sc = 0.5 * np.sin(2.0 * z)
    return np.ones(len(z)), np.sin(z) ** 2, np.cos(z) ** 2, z - sc, z + sc


def _hyp_blocks(z):
    sh, ch = np.sinh(z), np.cosh(z)
    hc = sh * ch
    return np.ones(len(z)), sh * sh, ch * ch, hc - z, hc + z


def _scaled_hyp_blocks(z):
    e2 = np.exp(-2.0 * z)
    hc = 0.25 * (1.0 - e2 * e2)  # sinh z cosh z * e^(-2z)
    return e2, 0.25 * (1.0 - e2) ** 2, 0.25 * (1.0 + e2) ** 2, hc - z * e2, hc + z * e2


def _bundle(z: np.ndarray, evanescent: np.ndarray):
    """Building blocks of the norm formulas, one entry per mode.

    Returns (one, s2, c2, m, p, eps).  Propagating modes get
    {1, sin^2 z, cos^2 z, z - sin z cos z, z + sin z cos z} and eps = -1;
    evanescent modes the hyperbolic counterparts {1, sinh^2 z, cosh^2 z,
    sinh z cosh z - z, sinh z cosh z + z} and eps = +1, all multiplied by
    one scale (1 for moderate z, e^(-2z) beyond), so ratios of homogeneous
    combinations are exact.  m is summed from its series for small z.
    """
    near = z < _HYP_SCALE_Z
    branches = (
        (~evanescent, _trig_blocks),
        (evanescent & near, _hyp_blocks),
        (evanescent & ~near, _scaled_hyp_blocks),
    )
    blocks = np.empty((5, len(z)))
    for rows, blocks_of in branches:
        if np.count_nonzero(rows):
            blocks[:, rows] = blocks_of(z[rows])
    one, s2, c2, m, p = blocks
    eps = np.where(evanescent, 1.0, -1.0)
    small = z < _SERIES_Z
    if np.count_nonzero(small):
        zs, sign = z[small], eps[small]
        w2 = (2.0 * zs) ** 2
        acc = np.zeros_like(zs)
        for j in range(len(_ODD_FACT_INV) - 1, -1, -1):
            acc = acc * w2 + sign**j * _ODD_FACT_INV[j]
        m[small] = 4.0 * zs**3 * acc
    return one, s2, c2, m, p, eps


def _split(t: ModeTable):
    """The cutoff rows of t (None if there are none) and a selector of the
    others: a boolean mask, or every row as a slice."""
    cut = t.regime == CUTOFF
    return (cut, ~cut) if np.count_nonzero(cut) else (None, slice(None))


def _datum_norms(num0, num1, z, den, neumann: bool):
    """||Y||^2 and ||Y'||^2 of a profile carrying a unit Neumann or
    Dirichlet datum, from the numerators and denominator of its case."""
    if neumann:
        return num0 / (2.0 * z**3 * den), num1 / (2.0 * z * den)
    return num0 / (2.0 * z * den), z * num1 / (2.0 * den)


def _new_table(n: np.ndarray, mu: np.ndarray, k: float) -> ModeTable:
    """A table of the modes n with eigenvalues mu, regimes filled in and
    zeroed branch data and norms, for the constructors to fill."""
    k = _check_wavenumber(k)
    code, z, sigma = _regimes(k, mu)
    rows = len(n)
    return ModeTable(
        k, n, mu, code, z, sigma,
        forward=np.zeros(rows, dtype=complex), backward=np.zeros(rows, dtype=complex),
        poly=np.zeros((rows, 3), dtype=complex), norm_sq=np.zeros(rows), dnorm_sq=np.zeros(rows),
    )


# --------------------------------------------------------------------------
# mode constructors
# --------------------------------------------------------------------------


def x_modes(
    ns: Sequence[int],
    k: float,
    b_right: BoundaryOperator,
    data_side: Side,
    family: BasisFamily,
) -> ModeTable:
    """Horizontal modal profiles with a unit datum on the given vertical side.

    One row per mode index in `ns`.  The left side always carries the
    impedance operator.  With b_right impedance the impedance/impedance
    profile serves either datum side; otherwise the datum side selects which
    closed form applies.
    """
    if data_side not in (Side.LEFT, Side.RIGHT):
        raise ValueError("x-direction data lives on the LEFT or RIGHT side")
    n = np.asarray(ns, dtype=np.int64).reshape(-1)
    t = _new_table(n, family.eigenvalue(n), k)
    k = t.k
    d_left = 1.0 if data_side is Side.LEFT else 0.0
    d_right = 1.0 - d_left

    cut, live = _split(t)
    if cut is not None:
        # Every cutoff row solves the same polynomial problem.
        r0 = _poly_operator_row(BoundaryOperator.IMPEDANCE, 0, k)
        r1 = _poly_operator_row(b_right, 1, k)
        p0, p1 = _solve_2x2(r0, r1, d_left, d_right, t.n[cut])
        t.poly[cut, 0], t.poly[cut, 1] = p0, p1
        t.norm_sq[cut] = _poly_l2_sq((p0, p1))
        t.dnorm_sq[cut] = _poly_l2_sq((p1,))

    s = t.sigma[live]
    r0 = _operator_row(BoundaryOperator.IMPEDANCE, 0, s, k)
    r1 = _operator_row(b_right, 1, s, k)
    t.forward[live], t.backward[live] = _solve_2x2(r0, r1, d_left, d_right, t.n[live])

    z = t.z[live]
    one, s2, c2, m, p, eps = _bundle(z, t.regime[live] == EVANESCENT)
    lam = z / k
    l2 = lam * lam
    if b_right is BoundaryOperator.IMPEDANCE:
        den = 4.0 * l2 * one + (1.0 + eps * l2) ** 2 * s2
        norm_sq = (m + l2 * p) / (2.0 * k**3 * lam * den)
        dnorm_sq = lam * (p + l2 * m) / (2.0 * k * den)
    else:
        # homogeneous Neumann (alpha = 1) or Dirichlet (alpha = 0) right side
        neumann = b_right is BoundaryOperator.NEUMANN
        den = c2 + l2 * s2 if neumann else s2 + l2 * c2
        if data_side is Side.LEFT:
            num0, num1 = (p, m) if neumann else (m, p)
            norm_sq = num0 / (2.0 * k**3 * lam * den)
            dnorm_sq = lam * num1 / (2.0 * k * den)
        else:
            norm_sq, dnorm_sq = _datum_norms(m + l2 * p, p + l2 * m, z, den, neumann)
    t.norm_sq[live], t.dnorm_sq[live] = norm_sq, dnorm_sq
    return t


class EigenvalueFamily(Enum):
    INTEGER = "integer"        # mu_n = n*pi
    HALF_INTEGER = "half-integer"  # mu_n = (n + 1/2)*pi

    def eigenvalue(self, n):
        """mu_n of the basis families on this lattice; accepts arrays."""
        half = self is EigenvalueFamily.HALF_INTEGER
        return (BasisFamily.COS_HALF if half else BasisFamily.COS_INT).eigenvalue(n)


@dataclass(frozen=True)
class LiftingFamilyChoice:
    """Resonance-avoiding eigenvalue family for horizontal-data lifting."""

    d0: float
    d1: float
    family: EigenvalueFamily
    case_index: int

    def eigenvalue(self, n):
        return self.family.eigenvalue(n)

    def admits(self, basis: BasisFamily) -> bool:
        half = basis.half_integer
        return half == (self.family is EigenvalueFamily.HALF_INTEGER)


def choose_lifting_family(
    k: float, b_bottom: BoundaryOperator, b_top: BoundaryOperator
) -> LiftingFamilyChoice:
    """Pick the eigenvalue lattice keeping k*lam away from resonances.

    d0 and d1 are the distances of k^2 to the integer and half-integer
    eigenvalue-squared lattices (they sum to pi^2/2 exactly); the lattice is
    chosen by closed-interval membership of d0.
    """
    k = _check_wavenumber(k)
    for op in (b_bottom, b_top):
        if op not in (BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN):
            raise ValueError("horizontal operators must be Dirichlet or Neumann")
    pi2 = math.pi * math.pi
    t = (k * k) / pi2
    d0 = pi2 * abs(t - round(t))
    d1 = pi2 * abs(t - (math.floor(t) + 0.5))
    same = b_bottom is b_top
    eighth, three_eighth, half = pi2 / 8.0, 3.0 * pi2 / 8.0, pi2 / 2.0
    if same:
        if 0.0 <= d0 <= eighth:
            fam, case = EigenvalueFamily.HALF_INTEGER, 1
        else:
            fam, case = EigenvalueFamily.INTEGER, 2
    else:
        if d0 <= eighth or three_eighth <= d0 <= half:
            fam, case = EigenvalueFamily.INTEGER, 3
        else:
            fam, case = EigenvalueFamily.HALF_INTEGER, 4
    return LiftingFamilyChoice(d0=d0, d1=d1, family=fam, case_index=case)


def y_modes_lifting(
    ns: Sequence[int],
    k: float,
    b_bottom: BoundaryOperator,
    b_top: BoundaryOperator,
    data_side: Side,
    family_choice: LiftingFamilyChoice,
) -> ModeTable:
    """Vertical auxiliary profiles with a unit datum on a horizontal side.

    One row per mode index in `ns`.  The datum side's operator fixes the
    closed form (Neumann vs Dirichlet datum); the opposite operator supplies
    alpha.  Data on TOP solves the reflected problem.  Cutoff rows are
    polynomials.  A mode whose boundary system is numerically singular
    raises ResonantLiftingError naming the mode: the lifting family choice
    provably avoids these.
    """
    if data_side not in (Side.BOTTOM, Side.TOP):
        raise ValueError("lifting data lives on the BOTTOM or TOP side")
    for op in (b_bottom, b_top):
        if op not in (BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN):
            raise ValueError("horizontal operators must be Dirichlet or Neumann")
    reflected = data_side is Side.TOP
    datum_op, other_op = (b_top, b_bottom) if reflected else (b_bottom, b_top)
    alpha = 1 if other_op is BoundaryOperator.NEUMANN else 0
    n = np.asarray(ns, dtype=np.int64).reshape(-1)
    t = _new_table(n, family_choice.eigenvalue(n), k)
    k = t.k

    cut, live = _split(t)
    if cut is not None:
        if datum_op is BoundaryOperator.DIRICHLET:
            # Y'' = 0 with Y(0) = 1 and the opposite condition: 1 - (1-alpha)*t
            coeffs = (complex(1.0), complex(alpha - 1.0), complex(0.0))
            norm_sq, dnorm_sq = 1.0 - 2.0 * (1.0 - alpha) / 3.0, 1.0 - alpha
        else:
            # Neumann datum, degenerate branch: alpha*(t^2/2 - t) - (1-alpha)*(t-1)
            coeffs = (complex(1.0 - alpha), complex(-1.0), complex(0.5 * alpha))
            norm_sq = (1.0 - alpha) / 3.0 + 2.0 * alpha / 15.0
            dnorm_sq = (1.0 - alpha) + alpha / 3.0
        if reflected:
            coeffs = _reflect_poly(coeffs)
        t.poly[cut] = coeffs
        t.norm_sq[cut], t.dnorm_sq[cut] = norm_sq, dnorm_sq

    s = t.sigma[live]
    r0 = _operator_row(datum_op, 0, s, k)
    r1 = _operator_row(other_op, 1, s, k)
    a, b = _solve_2x2(r0, r1, 1.0, 0.0, t.n[live])
    t.forward[live], t.backward[live] = (b, a) if reflected else (a, b)

    z = t.z[live]
    _, s2, c2, m, p, _ = _bundle(z, t.regime[live] == EVANESCENT)
    num0, num1 = (p, m) if alpha == 1 else (m, p)
    neumann = datum_op is BoundaryOperator.NEUMANN
    den = (s2 if alpha == 1 else c2) if neumann else (c2 if alpha == 1 else s2)
    t.norm_sq[live], t.dnorm_sq[live] = _datum_norms(num0, num1, z, den, neumann)
    return t


def _phi(x):
    """phi(x) = expm1(x)/x, with phi(0) = 1, elementwise on complex x."""
    x = np.asarray(x, dtype=complex)
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


def mode_from_amplitudes(
    k: float, mu: float, forward: complex, backward: complex, n: int = 0
) -> ModeTable:
    """A one-row table built directly from anchored amplitudes; `n` labels
    the row.

    The squared norms come from the exact exponential integrals, so this
    constructor is independent of the tabulated norm formulas; it backs
    hand-transcribed reference solutions and test oracles.
    """
    t = _new_table(np.array([n], dtype=np.int64), np.array([mu], dtype=float), k)
    if t.regime[0] == CUTOFF:
        raise ValueError("cutoff modes are polynomial; amplitudes do not apply")
    a, b, sigma = complex(forward), complex(backward), complex(t.sigma[0])
    es = cmath.exp(sigma)
    e_same = complex(_phi(2.0 * sigma.real)).real  # int_0^1 e^{2 Re(sigma) t} dt
    cross = 2.0 * (a * b.conjugate() * es.conjugate() * complex(_phi(sigma - sigma.conjugate()))).real
    t.forward[0], t.backward[0] = a, b
    t.norm_sq[0] = (abs(a) ** 2 + abs(b) ** 2) * e_same + cross
    t.dnorm_sq[0] = abs(sigma) ** 2 * ((abs(a) ** 2 + abs(b) ** 2) * e_same - cross)
    return t


def gap_lower_bound(k: float, mu_tilde: float, same_ops: bool) -> tuple[float, float]:
    """Distance of k*lam to the resonant lattice, and its proven lower bound.

    Returns (observed, bound) with observed = inf_j |k*lam - j*pi| for equal
    horizontal operators, or the half-integer lattice otherwise, and
    bound = (pi/8) / (1 + (2/pi) * k*lam).
    """
    z = math.sqrt(abs((k - mu_tilde) * (k + mu_tilde)))
    if same_ops:
        j = round(z / math.pi)
        observed = abs(z - j * math.pi)
    else:
        j = round(z / math.pi - 0.5)
        observed = abs(z - (j + 0.5) * math.pi)
    bound = (math.pi / 8.0) / (1.0 + (2.0 / math.pi) * z)
    return observed, bound


# --------------------------------------------------------------------------
# proof quantities
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofQuantities:
    """The modal energy density |X'|^2 + (mu^2 + k^2)|X|^2 by regime.

    Exactly one field is populated: phi (propagating), theta (cutoff) or
    psi (evanescent).
    """

    phi: Optional[float] = None
    theta: Optional[float] = None
    psi: Optional[float] = None

    @property
    def value(self) -> float:
        for v in (self.phi, self.theta, self.psi):
            if v is not None:
                return v
        raise ValueError("empty ProofQuantities")


def proof_quantities(
    n: int,
    k: float,
    b_right: BoundaryOperator,
    data_side: Side,
    family: BasisFamily,
) -> ProofQuantities:
    """phi/theta/psi for the horizontal-profile problem named by (b_right,
    data_side): the energy density of mode n, tagged by its regime."""
    density, regime = energy_densities([n], k, b_right, data_side, family)
    tag = ("phi", "theta", "psi")[regime[0]]
    return ProofQuantities(**{tag: float(density[0])})


def energy_densities(
    ns: Sequence[int],
    k: float,
    b_right: BoundaryOperator,
    data_side: Side,
    family: BasisFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """|X'|^2 + (mu^2 + k^2)|X|^2 of each x_modes row, and its regime code."""
    t = x_modes(ns, k, b_right, data_side, family)
    return t.dnorm_sq + (t.mu * t.mu + t.k * t.k) * t.norm_sq, t.regime
