"""Orthonormal trigonometric bases on [0,1], modal spectra, and data norms.

Four families span the admissible homogeneous horizontal conditions: integer
sine/cosine (eigenvalues n*pi) and half-integer sine/cosine (eigenvalues
(n+1/2)*pi).  Boundary data enter either as exact modal coefficients or as a
callable projected by composite Gauss-Legendre quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

SQRT2 = math.sqrt(2.0)

#: Hard cap on retained mode indices; keeps eigenvalues comfortably inside
#: float range and bounds memory for quadrature tables.
MAX_MODE = 16384

#: Gauss-Legendre nodes per quadrature panel.
QUAD_NODES_PER_PANEL = 32

_QUAD_NODES, _QUAD_WEIGHTS = np.polynomial.legendre.leggauss(QUAD_NODES_PER_PANEL)


class BoundaryOperator(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    IMPEDANCE = "impedance"


class BasisFamily(Enum):
    """The four orthonormal bases on [0,1].

    SIN_INT:  sqrt(2)*sin(n*pi*t), with the index-0 member identically zero.
    COS_INT:  1 for n = 0, sqrt(2)*cos(n*pi*t) otherwise.
    SIN_HALF: sqrt(2)*sin((n+1/2)*pi*t).
    COS_HALF: sqrt(2)*cos((n+1/2)*pi*t).
    """

    SIN_INT = "sin-int"
    COS_INT = "cos-int"
    SIN_HALF = "sin-half"
    COS_HALF = "cos-half"

    @property
    def half_integer(self) -> bool:
        return self in (BasisFamily.SIN_HALF, BasisFamily.COS_HALF)

    def eigenvalue(self, n):
        """mu_n: n*pi for integer families, (n+1/2)*pi for half-integer.
        An integer array n gives the array of eigenvalues."""
        negative = np.any(n < 0) if isinstance(n, np.ndarray) else n < 0
        if negative:
            raise ValueError(f"mode index must be nonnegative, got {n}")
        return (n + 0.5) * math.pi if self.half_integer else n * math.pi


def basis_value(family: BasisFamily, n, t):
    """Evaluate Z_{family,n}(t); accepts scalars or arrays.

    Array n and t broadcast, so basis_value(family, ns, t[:, None]) is the
    matrix of the members ns (columns) on the nodes t (rows).
    """
    mu = family.eigenvalue(n)
    # Every member is sqrt(2) times a sine or cosine except COS_INT's
    # constant member 0; SIN_INT's member 0 is sqrt(2) sin(0) = 0.
    if family is not BasisFamily.COS_INT:
        scale = SQRT2
    elif isinstance(n, np.ndarray):
        scale = np.where(n == 0, 1.0, SQRT2)
    else:
        scale = 1.0 if n == 0 else SQRT2
    sine = family in (BasisFamily.SIN_INT, BasisFamily.SIN_HALF)
    if np.ndim(n) or np.ndim(t):
        return scale * (np.sin if sine else np.cos)(mu * np.asarray(t))
    return scale * (math.sin if sine else math.cos)(mu * t)


def basis_derivative(family: BasisFamily, n: int, t):
    """Evaluate d/dt Z_{family,n}(t)."""
    if n < 0:
        raise ValueError(f"mode index must be nonnegative, got {n}")
    mu = family.eigenvalue(n)
    arr = bool(np.ndim(t))
    tt = np.asarray(t) if arr else t
    if family is BasisFamily.SIN_INT:
        if n == 0:
            return np.zeros_like(np.asarray(t, dtype=float)) if arr else 0.0
        return SQRT2 * mu * (np.cos(mu * tt) if arr else math.cos(mu * tt))
    if family is BasisFamily.COS_INT:
        if n == 0:
            return np.zeros_like(np.asarray(t, dtype=float)) if arr else 0.0
        return -SQRT2 * mu * (np.sin(mu * tt) if arr else math.sin(mu * tt))
    if family is BasisFamily.SIN_HALF:
        return SQRT2 * mu * (np.cos(mu * tt) if arr else math.cos(mu * tt))
    return -SQRT2 * mu * (np.sin(mu * tt) if arr else math.sin(mu * tt))


def select_eigenpairs(b_bottom: BoundaryOperator, b_top: BoundaryOperator) -> BasisFamily:
    """Basis family whose members satisfy the homogeneous horizontal conditions.

    (Dirichlet, Dirichlet) -> SIN_INT, (Neumann, Neumann) -> COS_INT,
    (Dirichlet, Neumann) -> SIN_HALF, (Neumann, Dirichlet) -> COS_HALF.
    """
    D, N = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN
    table = {
        (D, D): BasisFamily.SIN_INT,
        (N, N): BasisFamily.COS_INT,
        (D, N): BasisFamily.SIN_HALF,
        (N, D): BasisFamily.COS_HALF,
    }
    try:
        return table[(b_bottom, b_top)]
    except KeyError:
        raise ValueError(
            "horizontal operators must be Dirichlet or Neumann, got "
            f"({b_bottom}, {b_top})"
        ) from None


@dataclass(frozen=True)
class Spectrum:
    """Finitely supported modal coefficients in one basis family.

    Indices are strictly increasing; a SIN_INT index 0 is dropped silently
    (that family's zeroth member is the zero function).  Coefficients must
    be finite.
    """

    family: BasisFamily
    coeffs: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        cleaned = []
        last = -1
        for n, c in self.coeffs:
            n = int(n)
            if n < 0:
                raise ValueError(f"mode index must be nonnegative, got {n}")
            if n > MAX_MODE:
                raise ValueError(f"mode index {n} exceeds cap {MAX_MODE}")
            if n <= last:
                raise ValueError("mode indices must be strictly increasing and unique")
            last = n
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient of mode {n} is not finite ({c})")
            if self.family is BasisFamily.SIN_INT and n == 0:
                continue
            cleaned.append((n, c))
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @classmethod
    def from_pairs(cls, family: BasisFamily, pairs: Iterable[tuple[int, complex]]) -> "Spectrum":
        return cls(family, tuple(sorted(((int(n), complex(c)) for n, c in pairs))))

    @classmethod
    def zero(cls, family: BasisFamily) -> "Spectrum":
        return cls(family, ())

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    @property
    def top_mode(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def coefficient(self, n: int) -> complex:
        for m, c in self.coeffs:
            if m == n:
                return c
        return 0.0 + 0.0j

    def expand(self, t):
        """Pointwise value of the represented function at t."""
        arr = bool(np.ndim(t))
        total = np.zeros(np.shape(t), dtype=complex) if arr else 0.0 + 0.0j
        for n, c in self.coeffs:
            total = total + c * basis_value(self.family, n, t)
        return total

    def minus(self, other: "Spectrum") -> "Spectrum":
        """Coefficient-wise difference; families must match."""
        if other.family is not self.family:
            raise ValueError("spectra belong to different basis families")
        merged: dict[int, complex] = dict(self.coeffs)
        for n, c in other.coeffs:
            merged[n] = merged.get(n, 0.0 + 0.0j) - c
        return Spectrum.from_pairs(self.family, merged.items())


@dataclass(frozen=True)
class DataNormReport:
    """Eigen-expansion data norms: squared sums of |coeff|^2 * mu^(2s)."""

    l2: float
    fractional_half: float
    fractional_three_half: float


def _panel_rule(max_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0,1] resolving modes up to max_mode."""
    _check_depth(max_mode)
    panels = max(8, math.ceil(max_mode / 4))
    h = 1.0 / panels
    offsets = (np.arange(panels) + 0.5) * h
    t = (offsets[:, None] + 0.5 * h * _QUAD_NODES[None, :]).ravel()
    w = np.tile(0.5 * h * _QUAD_WEIGHTS, panels)
    return t, w


def quadrature_rule(max_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Public handle on the module's fixed projection rule (nodes, weights)."""
    return _panel_rule(max_mode)


def project(g, family: BasisFamily, max_mode: int) -> Spectrum:
    """Modal coefficients of g up to max_mode.

    g may be a Spectrum in the same family (returned unchanged, truncated to
    max_mode) or a callable on [0,1] sampled by the fixed quadrature rule.
    Exactly-zero coefficients are dropped.
    """
    _check_depth(max_mode)
    if isinstance(g, Spectrum):
        if g.family is not family:
            raise ValueError(f"spectrum family {g.family} does not match {family}")
        return Spectrum(family, tuple((n, c) for n, c in g.coeffs if n <= max_mode))

    t, _ = _panel_rule(max_mode)
    return _project_samples(np.asarray([g(ti) for ti in t], dtype=complex), family, max_mode)[0]


def _check_depth(max_mode: int) -> None:
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    if max_mode > MAX_MODE:
        raise ValueError(f"max_mode {max_mode} exceeds cap {MAX_MODE}")


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_t a[t, i] * b[t, j], as an array indexed [i, j].

    numpy's own einsum loop, never BLAS: its order of summation does not
    depend on a BLAS thread count, so the result is the same bytes however
    many threads BLAS is given, which a GEMM does not promise.
    """
    return np.einsum("ti,tj->ij", a, b, optimize=False)


def _coefficients(samples: np.ndarray, family: BasisFamily, max_mode: int) -> np.ndarray:
    """Modal coefficients 0..max_mode of functions given by their samples
    on the nodes of quadrature_rule(max_mode), one row of samples (and of
    coefficients) per function."""
    samples = np.atleast_2d(samples)
    if not np.all(np.isfinite(samples)):
        raise ValueError("boundary datum produced non-finite samples")
    t, w = _panel_rule(max_mode)
    basis = basis_value(family, np.arange(max_mode + 1), t[:, None])
    return _contract((w * samples).T, basis)


def _project_samples(samples: np.ndarray, family: BasisFamily, max_mode: int) -> list[Spectrum]:
    """_coefficients as one Spectrum per row; exactly-zero coefficients are
    dropped."""
    return [Spectrum(family, tuple((n, c) for n, c in enumerate(row.tolist()) if c != 0))
            for row in _coefficients(samples, family, max_mode)]


def data_norms(s: Spectrum) -> DataNormReport:
    """L2 and fractional-order norms of the expanded datum (Parseval sums)."""
    sq = [abs(c) ** 2 for _, c in s.coeffs]
    mus = [s.family.eigenvalue(n) for n, _ in s.coeffs]
    l2 = math.sqrt(math.fsum(sq))
    half = math.sqrt(math.fsum(q * m for q, m in zip(sq, mus)))
    three_half = math.sqrt(math.fsum(q * m**3 for q, m in zip(sq, mus)))
    return DataNormReport(l2=l2, fractional_half=half, fractional_three_half=three_half)
