"""Stability certificates: theorem constants, sharpness cases, and sweeps.

Each certified inequality bounds the energy ||grad u|| + k ||u|| by an
explicit k-power times data norms.  Certificates compare the modal energy of
an assembled solution against the bound; sharpness cases rebuild the
closed-form extremal examples and their exact energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .eigenbasis import (
    MAX_MODE,
    BasisFamily,
    BoundaryOperator,
    DataNormReport,
    Spectrum,
    select_eigenpairs,
    _EIGENPAIRS,
    _weighted_norms,
)
from .modal1d import (
    Side,
    choose_lifting_family,
    _check_wavenumber,
)
from .solver import (
    BoundaryConfig,
    energy_parseval,
    energy_quadrature,
    solve_datum,
    solve_source,
    _datum_profiles,
    _parseval_energy,
    _profile_ends,
    _source_norm,
)

#: Relative slack distinguishing roundoff from a genuine bound violation.
CERT_SLACK = 1e-9


class TheoremId(Enum):
    T1_G4 = "T1_G4"
    T2_G2_IMP = "T2_G2_IMP"
    T2_G2_NEU = "T2_G2_NEU"
    T2_G2_DIR = "T2_G2_DIR"
    TF_SOURCE = "TF_SOURCE"
    T3_LIFT_NEU = "T3_LIFT_NEU"
    T3_LIFT_DIR = "T3_LIFT_DIR"


@dataclass(frozen=True)
class Theorem:
    """One stability bound: the energy of the solution with datum g on
    `side` (a volumetric source g when `side` is None) is at most

        constant * max(k, 1)^k_power * ||g||
        [+ constant * max(sqrt(k), 1) * ||g||_{1/2}   when `half_term`]

    for every configuration with the required `right` and `bottom`
    operators (None: any operator)."""

    alias: str
    side: Optional[Side]
    right: Optional[BoundaryOperator]
    bottom: Optional[BoundaryOperator]
    constant: float
    k_power: int
    half_term: bool


_D, _N, _I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE

#: Every certified bound, keyed by its id; the CLI accepts the id or the alias.
THEOREMS: dict[TheoremId, Theorem] = {
    TheoremId.T1_G4: Theorem("T1", Side.LEFT, None, None, math.sqrt(12.0), 1, False),
    TheoremId.T2_G2_IMP: Theorem("T2_IMP", Side.RIGHT, _I, None, math.sqrt(12.0), 1, False),
    TheoremId.T2_G2_NEU: Theorem("T2_NEU", Side.RIGHT, _N, None, math.sqrt(20.0), 2, False),
    TheoremId.T2_G2_DIR: Theorem("T2_DIR", Side.RIGHT, _D, None, math.sqrt(14.0), 2, True),
    TheoremId.TF_SOURCE: Theorem("TF", None, _D, None, math.sqrt(30.0), 2, False),
    TheoremId.T3_LIFT_NEU: Theorem("T3_NEU", Side.BOTTOM, None, _N, 2.0 * math.sqrt(717.0), 1, False),
    TheoremId.T3_LIFT_DIR: Theorem("T3_DIR", Side.BOTTOM, None, _D, 2.0 * math.sqrt(43.0), 2, True),
}


def rhs_bound(theorem: TheoremId, k: float, norms: DataNormReport) -> float:
    """Right-hand side of the theorem's stability inequality."""
    k = _check_wavenumber(k)
    row = THEOREMS[theorem]
    mk = max(k, 1.0) if row.k_power == 1 else max(k * k, 1.0)
    if not row.half_term:
        return row.constant * mk * norms.l2
    if norms.fractional_half is None or not math.isfinite(norms.fractional_half):
        raise ValueError(f"{theorem.value} consumes the fractional-order data norm")
    return row.constant * (mk * norms.l2 + max(math.sqrt(k), 1.0) * norms.fractional_half)


@dataclass(frozen=True)
class BoundCertificate:
    theorem: TheoremId
    k: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    datum_norms: DataNormReport

    @staticmethod
    def from_sides(theorem: TheoremId, k: float, lhs: float, rhs: float,
                   norms: DataNormReport) -> "BoundCertificate":
        ratio = 0.0 if (rhs == 0.0 and lhs == 0.0) else lhs / rhs
        passed = lhs <= rhs * (1.0 + CERT_SLACK)
        return BoundCertificate(theorem, k, lhs, rhs, ratio, passed, norms)


def certify(
    theorem: TheoremId,
    config: BoundaryConfig,
    data,
    k: float,
    truncation: Optional[int] = None,
) -> BoundCertificate:
    """Solve the theorem's problem for the given datum and check its bound.

    `data` is a Spectrum for the boundary theorems and a list of
    (mode, profile) pairs for the source theorem.  The datum side is implied
    by the theorem; all other sides are homogeneous.  A datum mode above
    `truncation` raises ValueError from the solve instead of being dropped.
    """
    k = _check_wavenumber(k)
    row = THEOREMS[theorem]
    _check_operators(theorem, config)
    if row.side is None:
        u = solve_source(data, config, k, truncation)
        # The norm of the source as solved, from the samples of its table.
        norms = DataNormReport(_source_norm(u.blocks[0].profiles.f), math.nan, math.nan)
        # quadrature cross-check folded in
        lhs = max(energy_parseval(u).energy, energy_quadrature(u, 25).energy)
        return BoundCertificate.from_sides(theorem, k, lhs, rhs_bound(theorem, k, norms), norms)
    block = solve_datum(config, row.side, data, k, truncation).blocks[0]
    return _certificate(theorem, k, np.abs(block.c) ** 2, block.profiles, slice(None))


def _certificate(theorem: TheoremId, k: float, w: np.ndarray, table, rows) -> BoundCertificate:
    """The certificate of the boundary datum with squared coefficient
    moduli w on the given rows of its profile table: the Parseval energy of
    its solution against rhs_bound of its norms.  The one certificate of
    certify and of every boundary sweep trial."""
    lhs = _parseval_energy(w, table, k, rows).energy
    norms = _weighted_norms(w, table.mu[rows])
    return BoundCertificate.from_sides(theorem, k, lhs, rhs_bound(theorem, k, norms), norms)


def _check_operators(theorem: TheoremId, config: BoundaryConfig) -> None:
    """Raise ValueError naming the operator of `config` that the theorem's
    row of THEOREMS rules out."""
    row = THEOREMS[theorem]
    for name, want in (("right", row.right), ("bottom", row.bottom)):
        if want is not None and getattr(config, name) is not want:
            raise ValueError(f"{theorem.value} requires the {name} operator {want.value}, "
                             f"got {getattr(config, name).value}")


# --------------------------------------------------------------------------
# sharpness cases
# --------------------------------------------------------------------------

SHARPNESS_IDS = (
    "ex2.3-1",
    "ex2.3-2",
    "ex2.3-3",
    "ex2.5-neumann",
    "ex2.5-dirichlet",
    "lift-nn",
    "lift-nd",
    "lift-dn",
    "lift-dd",
)


@dataclass(frozen=True)
class SharpnessCase:
    """One closed-form extremal example: its problem and its exact energy."""

    case_id: str
    n: int
    k: float
    theorem: TheoremId
    config: BoundaryConfig
    datum: Spectrum
    expected_energy: Optional[float]
    expected_energy_sq: Optional[float]  # grad^2 + k^2 l2^2 for the >=-bounded cases
    lower_bound: Optional[float]

    @property
    def data_side(self) -> Side:
        """The side of the datum: the side of the case's theorem."""
        return THEOREMS[self.theorem].side


#: The (bottom, top) operator pair of each vertical basis family.
_VERTICAL_OPS = {family: pair for pair, family in _EIGENPAIRS.items()}


def sharpness_case(
    case_id: str, n: int, family: BasisFamily = BasisFamily.SIN_INT
) -> SharpnessCase:
    """Rebuild one extremal example: its problem, datum and exact energy.

    `family` picks the transverse basis where the example leaves it free
    (any of the four for the vertical-datum cases; the sine or cosine
    integer-eigenvalue basis for the lifting cases).
    """
    if case_id not in SHARPNESS_IDS:
        raise ValueError(f"unknown sharpness case {case_id!r}")
    if n < 1:
        raise ValueError("sharpness cases are stated for mode index n >= 1")
    pi = math.pi
    sqrt2 = math.sqrt(2.0)

    if case_id.startswith("ex"):
        b_bottom, b_top = _VERTICAL_OPS[family]
        mu = family.eigenvalue(n)
        datum = Spectrum.from_pairs(family, [(n, 1.0)])
        if case_id == "ex2.3-1":
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.IMPEDANCE, b_top)
            expected = (sqrt2 / 2.0) * k * math.sqrt(1.0 / pi**2 + 1.0 / k**2)
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.3-2":
            k = math.sqrt(mu * mu + pi * pi / 4.0)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.NEUMANN, b_top)
            expected = (2.0 * sqrt2 / pi) * k
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.3-3":
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
            expected = (sqrt2 / pi) * k
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.5-neumann":
            k = math.sqrt(mu * mu + pi * pi / 4.0)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.NEUMANN, b_top)
            expected = (4.0 * sqrt2 / pi) * k * k * math.sqrt(1.0 / pi**2 + 1.0 / (4.0 * k * k))
            theorem = TheoremId.T2_G2_NEU
        else:  # ex2.5-dirichlet
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
            expected = (sqrt2 / pi) * math.sqrt(k**4 + pi**2 * k**2)
            theorem = TheoremId.T2_G2_DIR
        return SharpnessCase(case_id, n, k, theorem, cfg, datum, expected, None, None)

    # lifting cases: integer eigenvalue lattice, sine or cosine x-basis
    if family not in (BasisFamily.SIN_INT, BasisFamily.COS_INT):
        raise ValueError("the lifting examples use the integer-eigenvalue basis")
    mu = n * pi
    datum = Spectrum.from_pairs(family, [(n, 1.0)])
    D, N = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN
    if case_id == "lift-nn":
        k = math.sqrt(mu * mu + pi * pi / 4.0)
        cfg = BoundaryConfig(N, D, N)
        expected, expected_sq, lower = (2.0 * sqrt2 / pi) * k, None, None
        theorem = TheoremId.T3_LIFT_NEU
    elif case_id == "lift-nd":
        k = math.sqrt(mu * mu + pi * pi)
        cfg = BoundaryConfig(N, D, D)
        expected, expected_sq, lower = (sqrt2 / pi) * k, None, None
        theorem = TheoremId.T3_LIFT_NEU
    elif case_id == "lift-dn":
        theta = (n + 0.5) * pi
        w = theta + 1.0 / theta
        k = math.sqrt(w * w + mu * mu)
        cfg = BoundaryConfig(D, D, N)
        expected = None
        expected_sq = (k * k + mu * mu * math.sin(2.0 * w) / (2.0 * w)) / math.cos(w) ** 2
        lower = (9.0 * pi**2 / (2.0 * sqrt2 * (9.0 * pi**2 + 4.0))) * (
            k * k + math.sqrt(k) * math.sqrt(mu)
        )
        theorem = TheoremId.T3_LIFT_DIR
    else:  # lift-dd
        theta = n * pi
        w = theta + 1.0 / theta
        k = math.sqrt(w * w + theta * theta)
        cfg = BoundaryConfig(D, D, D)
        expected = None
        expected_sq = (k * k - theta * theta * math.sin(2.0 * w) / (2.0 * w)) / math.sin(w) ** 2
        lower = (pi**2 / (2.0 * sqrt2 * (pi**2 + 1.0))) * (k * k + math.sqrt(k) * math.sqrt(theta))
        theorem = TheoremId.T3_LIFT_DIR
    return SharpnessCase(case_id, n, k, theorem, cfg, datum, expected, expected_sq, lower)


# --------------------------------------------------------------------------
# randomized sweeps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    theorem: TheoremId
    k_grid: tuple[float, ...]
    modes: int
    trials: int
    seed: int
    certificates: int
    all_passed: bool
    max_ratio: float
    argmax_k: Optional[float]
    argmax_trial: Optional[int]
    failures: tuple[BoundCertificate, ...]


#: D/D, N/N, D/N and N/D, in that order.
_HORIZONTAL_PAIRS = tuple(_EIGENPAIRS)

def _trial_config(theorem: TheoremId, trial: int, k: float) -> tuple[BoundaryConfig, BasisFamily]:
    row = THEOREMS[theorem]
    right = row.right or _D
    if row.side is Side.BOTTOM:
        b_top = (_D, _N)[trial % 2]
        cfg = BoundaryConfig(row.bottom, right, b_top)
        cosine = choose_lifting_family(k, row.bottom, b_top).basis
        sine = BasisFamily.SIN_HALF if cosine.half_integer else BasisFamily.SIN_INT
        return cfg, (cosine, sine)[(trial // 2) % 2]
    pair = _HORIZONTAL_PAIRS[trial % 4]
    if row.right is None:  # any right operator: cycle through all three
        right = (_I, _N, _D)[(trial // 4) % 3]
    cfg = BoundaryConfig(pair[0], right, pair[1])
    return cfg, select_eigenpairs(*pair)


def sweep(
    theorem: TheoremId,
    k_grid: Sequence[float],
    modes: int = 64,
    trials: int = 50,
    seed: int = 0,
) -> SweepReport:
    """Seeded randomized certification sweep over a wavenumber grid.

    Every (k, trial) pair draws unit-norm data (or a smooth modal source of
    random norm for the source theorem; its bound is homogeneous of degree
    one in the source) and certifies the bound.  The boundary theorems
    certify each k's trials from one mode table per (operator pair,
    eigenvalue lattice) (_boundary_trials), and every certificate is the
    one certify gives for the same datum, bit for bit.  Every failing
    certificate lands in the report, in (k, trial) order.  An empty grid,
    or an argument _check_sweep refuses, raises ValueError naming it.
    """
    if len(k_grid) == 0:
        raise ValueError("sweep k_grid is empty; the sweep would certify nothing")
    ks = [_check_wavenumber(k) for k in k_grid]
    _check_sweep(theorem, ks, modes, trials, seed)
    source = THEOREMS[theorem].side is None
    rng = np.random.default_rng(seed)
    certs: list[BoundCertificate] = []
    for k in ks:
        if source:
            certs += [_source_trial(rng, theorem, k, modes) for _ in range(trials)]
        else:
            certs += _boundary_trials(rng, theorem, k, modes, trials)
    failures = tuple(cert for cert in certs if not cert.passed)
    max_ratio = -1.0
    argmax: tuple[Optional[float], Optional[int]] = (None, None)
    for i, cert in enumerate(certs):
        if cert.ratio > max_ratio:
            max_ratio = cert.ratio
            argmax = (cert.k, i % trials)
    return SweepReport(
        theorem=theorem,
        k_grid=tuple(ks),
        modes=modes,
        trials=trials,
        seed=seed,
        certificates=len(certs),
        all_passed=not failures,
        max_ratio=max_ratio,
        argmax_k=argmax[0],
        argmax_trial=argmax[1],
        failures=failures,
    )


def _check_sweep(theorem: TheoremId, ks, modes: int, trials: int, seed: int,
                 prefix: str = "sweep ") -> None:
    """Raise ValueError, naming the argument as `prefix` + its name, for no
    trials or no modes (the sweep would pass vacuously), a negative seed, or
    boundary data past MAX_MODE, which certify refuses.  SIN_INT data run
    1..modes, the other families 0..modes-1."""
    for name, value in (("trials", trials), ("modes", modes)):
        if value < 1:
            raise ValueError(f"{prefix}{name} must be at least 1, got {value}")
    if seed < 0:
        raise ValueError(f"{prefix}seed must be nonnegative, got {seed}")
    if THEOREMS[theorem].side is not None and modes > MAX_MODE:
        top = max(modes - 1 + (_trial_config(theorem, t, k)[1] is BasisFamily.SIN_INT)
                  for k in ks for t in range(trials))
        if top > MAX_MODE:
            raise ValueError(f"{prefix}modes {modes} puts datum mode {top} past the cap "
                             f"{MAX_MODE}")


def _boundary_trials(rng: np.random.Generator, theorem: TheoremId, k: float, modes: int,
                     trials: int) -> list[BoundCertificate]:
    """The certificates of one k's trials of a boundary theorem, in trial
    order.

    Trial t draws `modes` complex coefficients, real parts then imaginary
    parts, and scales them to unit norm; all trials draw at once, which is
    the same stream.  A table row depends only on k, the operators at the
    profile's ends and its eigenvalue, and the sine and cosine families of
    a lattice have the same eigenvalues.  So the trials share one table per
    (operators, lattice), built in the lattice's cosine family over the
    rows they read: 0..modes on the integer lattice, 0..modes-1 on the
    half-integer one.  Each certificate comes from _certificate, as
    certify's does.
    """
    draws = rng.standard_normal((trials, 2, modes))
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    side = THEOREMS[theorem].side
    tables: dict = {}
    certs = []
    for trial, c in enumerate(coeffs):
        cfg, fam = _trial_config(theorem, trial, k)
        half = fam.half_integer
        key = (_profile_ends(cfg, side), half)
        if key not in tables:
            cos = BasisFamily.COS_HALF if half else BasisFamily.COS_INT
            tables[key] = _datum_profiles(cfg, side, np.arange(modes + (not half)), k, cos)
        start = int(fam is BasisFamily.SIN_INT)
        c /= np.linalg.norm(c)
        certs.append(_certificate(theorem, k, np.abs(c) ** 2, tables[key],
                                  slice(start, start + modes)))
    return certs


def _source_trial(rng: np.random.Generator, theorem: TheoremId, k: float,
                  modes: int) -> BoundCertificate:
    """Certificate of a random smooth modal source.  Both sides of the
    bound scale with the source, so it is certified as drawn."""
    pair = _HORIZONTAL_PAIRS[int(rng.integers(0, 4))]
    cfg = BoundaryConfig(pair[0], THEOREMS[theorem].right, pair[1])
    fam = select_eigenpairs(*pair)
    start = 1 if fam is BasisFamily.SIN_INT else 0
    n_modes = int(rng.integers(1, min(6, modes) + 1))
    idx = sorted(rng.choice(np.arange(start, start + 12), size=n_modes, replace=False))
    source = []
    for n in idx:
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        freq = float(rng.uniform(0.5, 2.5)) * math.pi
        source.append(
            (int(n), (lambda x, c=c, f=freq: c[0] + c[1] * np.sin(f * np.asarray(x))
                      + c[2] * np.asarray(x) ** 2))
        )
    return certify(theorem, cfg, source, k)
