"""Orthonormal trigonometric bases on [0,1], modal spectra, and data norms.

Four families span the admissible homogeneous horizontal conditions: integer
sine/cosine (eigenvalues n*pi) and half-integer sine/cosine (eigenvalues
(n+1/2)*pi).  Boundary data enter either as exact modal coefficients or as a
callable projected by composite Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

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

    @property
    def first_nonzero(self) -> int:
        """The index of the first member that is not the zero function: 1
        for SIN_INT, whose member 0 is sqrt(2) sin(0) = 0, else 0."""
        return int(self is BasisFamily.SIN_INT)

    def eigenvalue(self, n):
        """mu_n: n*pi for integer families, (n+1/2)*pi for half-integer.
        An integer array n gives the array of eigenvalues."""
        negative = n < 0
        if np.count_nonzero(negative):
            bad = np.ravel(n)[np.argmax(negative)]
            raise ValueError(f"mode index must be nonnegative, got {bad}")
        return (n + 0.5) * math.pi if self.half_integer else n * math.pi


def _zero_member(family: BasisFamily, n) -> str:
    """The refusal of data on member n of `family`, the zero function."""
    return f"mode {n} of {family.value} is the zero function"


def basis_value(family: BasisFamily, n, t):
    """Evaluate Z_{family,n}(t); accepts scalars or arrays.

    Array n and t broadcast, so basis_value(family, ns, t[:, None]) is the
    matrix of the members ns (columns) on the nodes t (rows).
    """
    mu = family.eigenvalue(n)
    # Every member is sqrt(2) times a sine or cosine except COS_INT's
    # constant member 0; SIN_INT's member 0 is sqrt(2) sin(0) = 0.
    cos_int = family is BasisFamily.COS_INT
    scale = np.where(np.asarray(n) == 0, 1.0, SQRT2) if cos_int else SQRT2
    sine = family in (BasisFamily.SIN_INT, BasisFamily.SIN_HALF)
    if np.ndim(n) or np.ndim(t):
        return scale * (np.sin if sine else np.cos)(mu * np.asarray(t))
    return scale * (math.sin if sine else math.cos)(mu * t)


def basis_derivative(family: BasisFamily, n, t):
    """Evaluate d/dt Z_{family,n}(t): mu_n times the member a quarter period
    ahead, Z_{family,n}(t + pi/(2 mu_n)); zero for a member with mu_n = 0.
    Broadcasts like basis_value."""
    mu = np.asarray(family.eigenvalue(n), dtype=float)
    quarter = np.divide(0.5 * math.pi, mu, out=np.zeros_like(mu), where=mu > 0)
    return mu * basis_value(family, n, np.asarray(t) + quarter)


_EIGENPAIRS = {
    (BoundaryOperator.DIRICHLET, BoundaryOperator.DIRICHLET): BasisFamily.SIN_INT,
    (BoundaryOperator.NEUMANN, BoundaryOperator.NEUMANN): BasisFamily.COS_INT,
    (BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN): BasisFamily.SIN_HALF,
    (BoundaryOperator.NEUMANN, BoundaryOperator.DIRICHLET): BasisFamily.COS_HALF,
}


def homogeneous_operators(family: BasisFamily) -> tuple[BoundaryOperator, BoundaryOperator]:
    """The operators at t = 0 and at t = 1 whose homogeneous conditions
    every member of `family` meets: select_eigenpairs inverted."""
    return next(ops for ops, member_family in _EIGENPAIRS.items() if member_family is family)


def select_eigenpairs(b_bottom: BoundaryOperator, b_top: BoundaryOperator) -> BasisFamily:
    """Basis family whose members satisfy the homogeneous horizontal conditions.

    (Dirichlet, Dirichlet) -> SIN_INT, (Neumann, Neumann) -> COS_INT,
    (Dirichlet, Neumann) -> SIN_HALF, (Neumann, Dirichlet) -> COS_HALF.
    """
    try:
        return _EIGENPAIRS[(b_bottom, b_top)]
    except KeyError:
        raise ValueError(
            "horizontal operators must be Dirichlet or Neumann, got "
            f"({b_bottom}, {b_top})"
        ) from None


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Finitely supported modal coefficients in one basis family: the mode
    indices `n` (int64) and their coefficients `c` (complex).

    Indices are strictly increasing and coefficients finite.  A nonzero
    coefficient below the family's first_nonzero (that member is the zero
    function) raises ValueError; an exactly zero one is dropped.  The
    arrays are read-only.
    """

    family: BasisFamily
    n: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        n = np.array(self.n, dtype=np.int64).reshape(-1)
        c = np.array(self.c, dtype=complex).reshape(-1)
        if len(n) != len(c):
            raise ValueError(f"{len(n)} mode indices for {len(c)} coefficients")
        bad = (n < 0) | (n > MAX_MODE)
        if np.count_nonzero(bad):
            raise ValueError(f"mode index {n[np.argmax(bad)]} lies outside [0, {MAX_MODE}]")
        if np.count_nonzero(n[1:] <= n[:-1]):
            raise ValueError("mode indices must be strictly increasing and unique")
        bad = ~np.isfinite(c)
        if np.count_nonzero(bad):
            i = np.argmax(bad)
            raise ValueError(f"coefficient of mode {n[i]} is not finite ({c[i]})")
        if len(n) and n[0] < self.family.first_nonzero:
            if c[0] != 0:
                raise ValueError(_zero_member(self.family, n[0]))
            n, c = n[1:], c[1:]
        n.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_pairs(cls, family: BasisFamily, pairs: Iterable[tuple[int, complex]]) -> "Spectrum":
        """The spectrum of (index, coefficient) pairs in any order."""
        pairs = sorted(pairs, key=lambda pair: pair[0])
        return cls(family, [n for n, _ in pairs], [c for _, c in pairs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Spectrum) and other.family is self.family
                and np.array_equal(self.n, other.n) and np.array_equal(self.c, other.c))

    @classmethod
    def zero(cls, family: BasisFamily) -> "Spectrum":
        return cls(family, (), ())

    def __iter__(self):
        """The (index, coefficient) pairs as Python numbers."""
        return zip(self.n.tolist(), self.c.tolist())

    def __len__(self):
        return len(self.n)

    @property
    def top_mode(self) -> int:
        return int(self.n[-1]) if len(self.n) else 0

    def coefficient(self, n: int) -> complex:
        i = int(np.searchsorted(self.n, n))
        return complex(self.c[i]) if i < len(self.n) and self.n[i] == n else 0.0 + 0.0j

    def expand(self, t):
        """Pointwise value of the represented function at t."""
        basis = basis_value(self.family, self.n, np.asarray(t, dtype=float)[..., None])
        total = np.einsum("...m,m->...", basis, self.c, optimize=False)
        return total if np.ndim(t) else complex(total)

    def minus(self, other: "Spectrum") -> "Spectrum":
        """Coefficient-wise difference; families must match."""
        if other.family is not self.family:
            raise ValueError("spectra belong to different basis families")
        # The sorted union of the indices; np.union1d would import numpy.ma.
        n = np.sort(np.concatenate([self.n, other.n]))
        n = n[np.diff(n, prepend=-1) != 0]
        c = np.zeros(len(n), dtype=complex)
        c[np.searchsorted(n, self.n)] = self.c
        c[np.searchsorted(n, other.n)] -= other.c
        return Spectrum(self.family, n, c)


@dataclass(frozen=True)
class DataNormReport:
    """Eigen-expansion data norms: squared sums of |coeff|^2 * mu^(2s), s = 0 and 1/2."""

    l2: float
    fractional_half: float


def quadrature_rule(max_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The module's fixed projection rule (nodes, weights): composite
    Gauss-Legendre on [0,1], resolving modes up to max_mode."""
    _check_depth(max_mode)
    panels = max(8, math.ceil(max_mode / 4))
    h = 1.0 / panels
    offsets = (np.arange(panels) + 0.5) * h
    t = (offsets[:, None] + 0.5 * h * _QUAD_NODES[None, :]).ravel()
    w = np.tile(0.5 * h * _QUAD_WEIGHTS, panels)
    return t, w


def project(g: Callable, family: BasisFamily, max_mode: int) -> Spectrum:
    """Modal coefficients 0..max_mode of the callable g on [0,1], sampled on
    the nodes of the fixed quadrature rule, in one array call where it
    accepts arrays.  Exactly-zero coefficients are dropped.  Anything but a
    callable raises TypeError.
    """
    if not callable(g):
        raise TypeError(f"project takes a callable g(t), not a {type(g).__name__}")
    _check_depth(max_mode)
    t, _ = quadrature_rule(max_mode)
    return _project_samples(_sample(g, t), family, max_mode)[0]


def _check_depth(max_mode: int) -> None:
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    if max_mode > MAX_MODE:
        raise ValueError(f"max_mode {max_mode} exceeds cap {MAX_MODE}")


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_t a[t, i] * b[t, j], as an array indexed [i, j].

    numpy's own einsum loop, never BLAS: its order of summation does not
    depend on a BLAS thread count, so the result is the same bytes however
    many threads BLAS is given, which a GEMM does not promise.  Against a
    real operand a complex one is contracted as its real and imaginary
    parts, two real loops that give the complex loop's bytes (each product
    with the real operand's zero imaginary part is an exact zero) in about
    half the time.  Each part is contracted into a contiguous array and
    then copied into the complex result: written straight into the result's
    strided real or imaginary view, the loop runs about twice as slow.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return np.einsum("ti,tj->ij", a, b, optimize=False)
    out = np.empty((a.shape[1], b.shape[1]), dtype=complex)
    parts = ((a.real, b), (a.imag, b)) if np.iscomplexobj(a) else ((a, b.real), (a, b.imag))
    for (x, y), part in zip(parts, (out.real, out.imag)):
        part[...] = np.einsum("ti,tj->ij", x, y, optimize=False)
    return out


def _coefficients(samples: np.ndarray, family: BasisFamily, max_mode: int) -> np.ndarray:
    """Modal coefficients 0..max_mode of functions given by their samples
    on the nodes of quadrature_rule(max_mode), one row of samples (and of
    coefficients) per function."""
    samples = np.atleast_2d(samples)
    if not np.all(np.isfinite(samples)):
        raise ValueError("boundary datum produced non-finite samples")
    t, w = quadrature_rule(max_mode)
    basis = basis_value(family, np.arange(max_mode + 1), t[:, None])
    return _contract((w * samples).T, basis)


def _project_samples(samples: np.ndarray, family: BasisFamily, max_mode: int) -> list[Spectrum]:
    """_coefficients as one Spectrum per row; exactly-zero coefficients are
    dropped."""
    return [Spectrum(family, np.flatnonzero(row), row[row != 0])
            for row in _coefficients(samples, family, max_mode)]


def data_norms(s: Spectrum) -> DataNormReport:
    """L2 and fractional-order norms of the expanded datum (Parseval sums)."""
    return _weighted_norms(np.abs(s.c) ** 2, s.family.eigenvalue(s.n))


def _weighted_norms(sq: np.ndarray, mu: np.ndarray) -> DataNormReport:
    """data_norms from the squared coefficient moduli and the eigenvalues
    of their modes, along the last axis: floats for one datum, arrays for a
    matrix with one datum per row."""
    return DataNormReport(l2=_sqrt(_fsums(sq)), fractional_half=_sqrt(_fsums(sq * mu)))


def _fsums(a: np.ndarray):
    """math.fsum along the last axis, so each sum is correctly rounded and
    does not depend on the order of the terms: a float for a vector, a float
    array with one sum per row for a matrix."""
    if a.ndim == 1:
        return math.fsum(a.tolist())
    return np.array([math.fsum(row) for row in a.tolist()])


def _sqrt(x):
    """The square root of a float as a float, of an array per entry."""
    return math.sqrt(x) if np.ndim(x) == 0 else np.sqrt(x)


def _sample(f: Callable, *coords, what: str = "the datum") -> np.ndarray:
    """f on the broadcast coordinates, as a complex array.

    The one sampling rule for callables: one array call f(*coords), or one
    scalar call per node when f raises TypeError or ValueError on arrays
    (what a scalar-only callable raises) or returns the wrong shape.  Any
    other error from f propagates; a non-finite sample raises ValueError
    naming `what`.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    try:
        values = np.asarray(f(*coords), dtype=complex)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != shape:
        nodes = zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*coords)))
        values = np.array([f(*node) for node in nodes], dtype=complex).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} has non-finite samples")
    return values
