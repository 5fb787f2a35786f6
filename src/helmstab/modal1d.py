"""Closed-form 1D modal solutions on [0,1] and their exact L2 norms.

Each mode solves X'' + (k^2 - mu^2) X = 0 with one inhomogeneous boundary
operator carrying a unit datum.  With z = sqrt|k^2 - mu^2| its exponent is
sigma = i z (propagating, mu < k), -z (evanescent, mu > k) or 0 (cutoff,
|k^2 - mu^2| within EPS_CUTOFF), and every mode is X = A a + B d in one
basis pair

    a(t) = e^{sigma t},   d(t) = e^{sigma (1-t)} t phi(2 sigma t) = e^sigma sinh(sigma t) / sigma,

with phi(x) = expm1(x)/x.  The pair stays bounded for Re(sigma) <= 0 and is
{1, t} at sigma = 0, so the regimes share one formula: a cutoff row is the
case sigma = 0.  X' = (sigma A + e^sigma B) a - sigma B d lies in the same
pair, so both squared norms are quadratic forms in one 2x2 Gram matrix of
(a, d), stable from the cutoff through z ~ 800.

mode_table builds all modes of one problem, the x factor of a left or right
datum or the y factor of a lifted one, as a ModeTable: a struct of arrays
with one row per mode index and a k per row, so one table can hold the
modes of many wavenumbers; it tabulates every row's profile on a set of
nodes in one broadcast.

Also provides the lifting eigenvalue-family selection driven by the distance
of k^2 to the two eigenvalue lattices, the resonance-gap lower bound, and the
paper's energy-density quantities phi/theta/psi per mode (energy_densities),
a library export that no solve, certificate or sweep calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .eigenbasis import BasisFamily, BoundaryOperator, select_eigenpairs

#: Relative gap |k^2 - mu^2| / max(k^2, mu^2) below which a mode is cutoff.
EPS_CUTOFF = 1e-8

#: Determinant tolerance (relative) for the 2x2 coefficient systems.
_DET_TOL = 1e-12

#: Sum the cancellation-prone Gram entries from their series below this |sigma|.
_SERIES_Z = 0.25

#: Taylor coefficients, highest power first, of phi_2(x) = (phi(x) - 1)/x
#: = sum_m x^m / (m+2)!, and of int_0^1 |sinh(s t)/s|^2 dt
#: = sum_{m>=1} 2^(2m-1) w^(m-1) / (2m+1)! in w = s^2.
_PHI2_SERIES = [1.0 / math.factorial(m + 2) for m in range(13, -1, -1)]
_SINH2_SERIES = [2.0 ** (2 * m - 1) / math.factorial(2 * m + 1) for m in range(9, 0, -1)]


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


#: The codes of ModeTable.regime, one per mode regime.
PROPAGATING, CUTOFF, EVANESCENT = 0, 1, 2


def _check_wavenumber(k):
    """k as a float, or as a float array checked entry by entry; a bad entry
    raises ValueError naming the first one."""
    k = np.array(k, dtype=float) if np.ndim(k) else float(k)
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~((k > 0) & np.isfinite(k * k)))
    if bad.size:
        raise ValueError("wavenumber k must be positive with a finite square, "
                         f"got k={np.ravel(k)[bad[0]].item()!r}")
    return k


def _check_eigenvalue(name: str, mu) -> float:
    mu = float(mu)
    if not (mu >= 0 and math.isfinite(mu)):
        raise ValueError(f"transverse eigenvalue {name} must be nonnegative and finite, "
                         f"got {name}={mu!r}")
    return mu


#: sigma / z per regime code: sigma is i*z, 0 or -z.
_SIGMA_PER_Z = np.array([1j, 0.0, -1.0])


def _regimes(k, mu: np.ndarray):
    """The regime code and sigma of each mode.  sigma is i z below the
    cutoff, -z above it and 0 at it, where z = 0; the code CUTOFF labels
    every mode with |k^2 - mu^2| <= EPS_CUTOFF max(k^2, mu^2), and sigma
    does not depend on it."""
    # (k-mu)(k+mu) avoids the catastrophic cancellation of k*k - mu*mu near
    # the cutoff (the difference k-mu is exact there).
    gap = np.abs((k - mu) * (k + mu))
    code = np.where(mu * mu < k * k, PROPAGATING, EVANESCENT)
    code[gap == 0] = CUTOFF
    sigma = np.sqrt(gap) * _SIGMA_PER_Z[code]
    code[gap <= EPS_CUTOFF * np.maximum(k * k, mu * mu)] = CUTOFF
    return code, sigma


def _phi(x):
    """phi(x) = expm1(x)/x, with phi(0) = 1, elementwise on complex x."""
    x = np.asarray(x, dtype=complex)
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


def _tphi(s, t):
    """t * phi(2 s t), the integral of e^{2 s tau} over [0, t], smooth
    through s = 0."""
    return t * _phi(2.0 * s * t)


# --------------------------------------------------------------------------
# modal solutions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeTable:
    """The closed-form modes of one 1D problem, one row per index, each row
    at its own k.

    Row i is X = A[i] a + B[i] d in the pair a(t) = e^{sigma t},
    d(t) = e^sigma sinh(sigma t)/sigma ({1, t} at the cutoff, sigma = 0).
    `regime` holds the codes PROPAGATING/CUTOFF/EVANESCENT as a label; no
    formula depends on it.
    """

    k: np.ndarray
    n: np.ndarray
    mu: np.ndarray
    regime: np.ndarray
    sigma: np.ndarray
    A: np.ndarray
    B: np.ndarray
    norm_sq: np.ndarray
    dnorm_sq: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def value_and_derivative(self, t):
        """X and X' of every row on the nodes t, as (rows, len(t)) arrays:
        A a + B d and (sigma A + e^sigma B) a - sigma B d."""
        t = np.asarray(t, dtype=float)
        sigma, A, B = self.sigma[:, None], self.A[:, None], self.B[:, None]
        a = np.exp(sigma * t)
        d = np.exp(sigma * (1.0 - t))
        d *= _tphi(sigma, t)
        return A * a + B * d, (sigma * A + np.exp(sigma) * B) * a - (sigma * B) * d


def _apply(op: BoundaryOperator, value, normal, k):
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


def _gram(sigma: np.ndarray, es: np.ndarray, d_end: np.ndarray):
    """The Gram matrix of the pair on [0, 1], per row, as (int |a|^2,
    int conj(a) d, int |d|^2), given e^sigma and d(1) = phi(2 sigma).

    int |a|^2 = phi(2 Re sigma), int conj(a) d = e^sigma conj(phi_2(2 sigma))
    and int |d|^2 = (e^{-2i Im sigma} phi(2 sigma)(1 + e^{2 sigma})/2
    - |e^sigma|^2) / (2 sigma^2), with phi_2(x) = (phi(x) - 1)/x; the last
    two hold because sigma is real or imaginary.  Below |sigma| = _SERIES_Z
    they cancel and come from their Taylor series instead.
    """
    x = 2.0 * sigma
    e2 = es.real * es.real + es.imag * es.imag
    small = np.abs(sigma) < _SERIES_Z
    x[small] = 1.0  # keeps the closed forms finite on the series rows
    phi2 = (d_end - 1.0) / x
    dd = ((np.exp(-1j * x.imag) * d_end * (1.0 + es * es)).real - 2.0 * e2) / (x * x).real
    if np.count_nonzero(small):
        s = sigma[small]
        phi2[small] = np.polyval(_PHI2_SERIES, 2.0 * s)
        dd[small] = e2[small] * np.polyval(_SINH2_SERIES, (s * s).real)
    return _phi(2.0 * sigma.real).real, es * phi2.conj(), dd


def _gram_form(A: np.ndarray, B: np.ndarray, gram) -> np.ndarray:
    """||A a + B d||^2 per row from the pair's Gram matrix."""
    aa, ad, dd = gram
    return ((A.real**2 + A.imag**2) * aa + 2.0 * (A.conj() * B * ad).real
            + (B.real**2 + B.imag**2) * dd)


def _modes(n: np.ndarray, mu: np.ndarray, k, ops, data) -> ModeTable:
    """The modes n with eigenvalues mu under the operators ops = (at t=0,
    at t=1) with the data (d0, d1), at the wavenumber k, a float or one per
    row.  Every formula is elementwise per row, so a row does not depend on
    the other rows of its table.

    The rows of the 2x2 system apply each operator to the pair's boundary
    values a(0) = 1, a'(0) = sigma, d(0) = 0, d'(0) = e^sigma,
    a(1) = e^sigma, a'(1) = sigma e^sigma, d(1) = phi(2 sigma) and
    d'(1) = (1 + e^{2 sigma})/2.  Normal derivatives point outward: -d/dt
    at t=0, +d/dt at t=1.
    """
    k = np.broadcast_to(_check_wavenumber(k), n.shape)
    code, sigma = _regimes(k, mu)
    es, d_end = np.exp(sigma), _phi(2.0 * sigma)
    r0 = (_apply(ops[0], 1.0, -sigma, k), _apply(ops[0], 0.0, -es, k))
    r1 = (_apply(ops[1], es, sigma * es, k), _apply(ops[1], d_end, 0.5 * (1.0 + es * es), k))
    A, B = _solve_2x2(r0, r1, *data, n)
    gram = _gram(sigma, es, d_end)
    return ModeTable(k, n, mu, code, sigma, A, B, _gram_form(A, B, gram),
                     _gram_form(sigma * A + es * B, -sigma * B, gram))


# --------------------------------------------------------------------------
# mode tables
# --------------------------------------------------------------------------


def mode_table(ns: Sequence[int], k, ends, data_side: Side,
               family: BasisFamily) -> ModeTable:
    """The profiles X on [0, 1] with a unit datum on the end of `data_side`.

    One row per mode index in `ns`, with the eigenvalue mu of that member of
    `family`, at k (a float, or one per row); row i solves
    X'' + (k^2 - mu^2) X = 0 under ends = (operator at t = 0, operator at
    t = 1), each a BoundaryOperator or its value.  The datum rides on the
    operator at t = 0 for BOTTOM and LEFT, at t = 1 for TOP and RIGHT; the
    other end is homogeneous.  A row depends on its k and eigenvalue alone,
    so the sine and cosine families of one lattice give the same rows.  A
    mode whose boundary system is numerically singular raises
    ResonantLiftingError naming the mode: the resonances, and the
    Neumann/Neumann cutoff, where constants are null solutions.  A lifting
    family on the lattice of choose_lifting_family provably avoids both.
    """
    t0, t1 = (_operator(f"the operator at t = {t}", op) for t, op in enumerate(ends))
    n = np.asarray(ns, dtype=np.int64).reshape(-1)
    d0 = 1.0 if Side(data_side) in (Side.BOTTOM, Side.LEFT) else 0.0
    return _modes(n, family.eigenvalue(n), k, (t0, t1), (d0, 1.0 - d0))


def _operator(name: str, op) -> BoundaryOperator:
    """op as a BoundaryOperator, from a member or its value; anything else
    raises ValueError naming it."""
    try:
        return BoundaryOperator(op)
    except ValueError:
        raise ValueError(f"{name} must be one of "
                         f"{[o.value for o in BoundaryOperator]}, got {op!r}") from None


@dataclass(frozen=True)
class LiftingFamilyChoice:
    """Resonance-avoiding eigenvalue lattice for horizontal-data lifting,
    named by its cosine basis (COS_INT or COS_HALF), in which bottom and top
    data expand."""

    d0: float
    d1: float
    basis: BasisFamily
    case_index: int


def choose_lifting_family(
    k: float, b_bottom: BoundaryOperator, b_top: BoundaryOperator
) -> LiftingFamilyChoice:
    """Pick the eigenvalue lattice keeping k*lam away from resonances.

    d0 and d1 are the distances of k^2 to the integer and half-integer
    eigenvalue-squared lattices (they sum to pi^2/2 exactly); the lattice is
    chosen by closed-interval membership of d0.
    """
    k = _check_wavenumber(k)
    select_eigenpairs(b_bottom, b_top)
    pi2 = math.pi * math.pi
    t = (k * k) / pi2
    d0 = pi2 * abs(t - round(t))
    d1 = pi2 * abs(t - (math.floor(t) + 0.5))
    same = b_bottom is b_top
    eighth, three_eighth, half = pi2 / 8.0, 3.0 * pi2 / 8.0, pi2 / 2.0
    if same:
        if 0.0 <= d0 <= eighth:
            basis, case = BasisFamily.COS_HALF, 1
        else:
            basis, case = BasisFamily.COS_INT, 2
    else:
        if d0 <= eighth or three_eighth <= d0 <= half:
            basis, case = BasisFamily.COS_INT, 3
        else:
            basis, case = BasisFamily.COS_HALF, 4
    return LiftingFamilyChoice(d0=d0, d1=d1, basis=basis, case_index=case)


def gap_lower_bound(k: float, mu_tilde: float, same_ops: bool) -> tuple[float, float]:
    """Distance of k*lam to the resonant lattice, and its proven lower bound.

    Returns (observed, bound) with observed = inf_j |k*lam - j*pi| for equal
    horizontal operators, or the half-integer lattice otherwise, and
    bound = (pi/8) / (1 + (2/pi) * k*lam).
    """
    k = _check_wavenumber(k)
    mu_tilde = _check_eigenvalue("mu_tilde", mu_tilde)
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
# energy densities
# --------------------------------------------------------------------------


def energy_densities(
    ns: Sequence[int],
    k: float,
    b_right: BoundaryOperator,
    data_side: Side,
    family: BasisFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """|X'|^2 + (mu^2 + k^2)|X|^2 of each mode_table row under the ends
    (IMPEDANCE, b_right), and its regime code: the density is phi on a
    PROPAGATING row, theta on a CUTOFF row and psi on an EVANESCENT row."""
    if data_side not in (Side.LEFT, Side.RIGHT):
        raise ValueError("x-direction data lives on the LEFT or RIGHT side")
    t = mode_table(ns, k, (BoundaryOperator.IMPEDANCE, b_right), data_side, family)
    return t.dnorm_sq + (t.mu * t.mu + t.k * t.k) * t.norm_sq, t.regime
