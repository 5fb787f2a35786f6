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
from typing import Callable, Optional, Sequence

import numpy as np

from .eigenbasis import (
    MAX_MODE,
    BasisFamily,
    BoundaryOperator,
    DataNormReport,
    Spectrum,
    homogeneous_operators,
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
    SourceTable,
    solve_datum,
    solve_source,
    _NODES,
    _datum_profiles,
    _parseval_energy,
    _profile_ends,
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
        """The certificate lhs <= rhs; a non-finite side raises ValueError,
        as it would read as a violation."""
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"{theorem.value} certificate at k={k!r} has a non-finite side "
                             f"(lhs={lhs!r}, rhs={rhs!r})")
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
    The solve's block is certified by _certificate, as every sweep trial is.
    """
    k = _check_wavenumber(k)
    row = THEOREMS[theorem]
    _check_operators(theorem, config)
    block = (solve_source(data, config, k, truncation) if row.side is None
             else solve_datum(config, row.side, data, k, truncation)).blocks[0]
    return _certificate(theorem, k, np.abs(block.c) ** 2, block.profiles, slice(None))


def _certificate(theorem: TheoremId, k: float, w: np.ndarray, table, rows) -> BoundCertificate:
    """The certificate of the datum with squared coefficient moduli w on the
    given rows of its profile table: the Parseval energy of its solution
    against rhs_bound of its norms, a source's from its rows' samples
    (SourceTable.f_norm_sq).  The one certificate of certify and of every
    sweep trial."""
    lhs = _parseval_energy(w, table, k, rows).energy
    if THEOREMS[theorem].side is None:
        norms = DataNormReport(math.sqrt(math.fsum((w * table.f_norm_sq[rows]).tolist())),
                               math.nan, math.nan)
    else:
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

@dataclass(frozen=True)
class Example:
    """One extremal example as the paper gives it: its theorem, the operator
    of its far side (the right side, or the top side of a lifting example),
    whether its wavenumber is detuned, and its exact energy in (k, mu, w),
    for a detuned example (grad^2 + k^2 l2^2, a lower bound of the energy)."""

    theorem: TheoremId
    far: BoundaryOperator
    detuned: bool
    energy: Callable


_PI, _SQRT2 = math.pi, math.sqrt(2.0)

#: The extremal examples by case id; sharpness_case derives the rest.
EXAMPLES: dict[str, Example] = {
    "ex2.3-1": Example(TheoremId.T1_G4, _I, False, lambda k, mu, w: (
        (_SQRT2 / 2.0) * k * math.sqrt(1.0 / _PI**2 + 1.0 / k**2))),
    "ex2.3-2": Example(TheoremId.T1_G4, _N, False, lambda k, mu, w: (2.0 * _SQRT2 / _PI) * k),
    "ex2.3-3": Example(TheoremId.T1_G4, _D, False, lambda k, mu, w: (_SQRT2 / _PI) * k),
    "ex2.5-neumann": Example(TheoremId.T2_G2_NEU, _N, False, lambda k, mu, w: (
        (4.0 * _SQRT2 / _PI) * k * k * math.sqrt(1.0 / _PI**2 + 1.0 / (4.0 * k * k)))),
    "ex2.5-dirichlet": Example(TheoremId.T2_G2_DIR, _D, False, lambda k, mu, w: (
        (_SQRT2 / _PI) * math.sqrt(k**4 + _PI**2 * k**2))),
    "lift-nn": Example(TheoremId.T3_LIFT_NEU, _N, False, lambda k, mu, w: (2.0 * _SQRT2 / _PI) * k),
    "lift-nd": Example(TheoremId.T3_LIFT_NEU, _D, False, lambda k, mu, w: (_SQRT2 / _PI) * k),
    "lift-dn": Example(TheoremId.T3_LIFT_DIR, _N, True, lambda k, mu, w: (
        (k * k + mu * mu * math.sin(2.0 * w) / (2.0 * w)) / math.cos(w) ** 2,
        (9.0 * _PI**2 / (2.0 * _SQRT2 * (9.0 * _PI**2 + 4.0))) * (
            k * k + math.sqrt(k) * math.sqrt(mu)))),
    "lift-dd": Example(TheoremId.T3_LIFT_DIR, _D, True, lambda k, mu, w: (
        (k * k - mu * mu * math.sin(2.0 * w) / (2.0 * w)) / math.sin(w) ** 2,
        (_PI**2 / (2.0 * _SQRT2 * (_PI**2 + 1.0))) * (k * k + math.sqrt(k) * math.sqrt(mu)))),
}

SHARPNESS_IDS = tuple(EXAMPLES)


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


def sharpness_case(case_id: str, n: int,
                   family: BasisFamily = BasisFamily.SIN_INT) -> SharpnessCase:
    """Rebuild one extremal example from its row of EXAMPLES.

    The datum is member n of `family` (any of the four for the
    vertical-datum cases, the sine or cosine integer-eigenvalue basis for
    the lifting cases), with eigenvalue mu.  The config is the family's
    homogeneous operators with the far operator on the right, or for a
    lifting example the theorem's bottom operator, Dirichlet and the far
    operator on top.  k = sqrt(mu^2 + w^2) for the wavenumber w = pi/2
    against a Neumann far side and pi otherwise, or detuned theta + 1/theta
    for the n-th eigenvalue theta of the config's vertical family.
    """
    if case_id not in EXAMPLES:
        raise ValueError(f"unknown sharpness case {case_id!r}")
    if n < 1:
        raise ValueError("sharpness cases are stated for mode index n >= 1")
    row = EXAMPLES[case_id]
    lifting = THEOREMS[row.theorem].side is Side.BOTTOM
    if lifting and family.half_integer:
        raise ValueError("the lifting examples use the integer-eigenvalue basis")
    b_bottom, b_top = homogeneous_operators(family)
    cfg = (BoundaryConfig(THEOREMS[row.theorem].bottom, _D, row.far) if lifting
           else BoundaryConfig(b_bottom, row.far, b_top))
    mu, theta = family.eigenvalue(n), cfg.vertical_family().eigenvalue(n)
    w = theta + 1.0 / theta if row.detuned else (_PI / 2.0 if row.far is _N else _PI)
    k = math.sqrt(mu * mu + w * w)
    energy = row.energy(k, mu, w)
    expected, expected_sq, lower = (None, *energy) if row.detuned else (energy, None, None)
    return SharpnessCase(case_id, n, k, row.theorem, cfg, Spectrum.from_pairs(family, [(n, 1.0)]),
                         expected, expected_sq, lower)


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
    eigenvalue lattice) (_boundary_trials), the source theorem from one
    SourceTable per k (_source_trials), and every certificate is the one
    certify gives for the same datum, bit for bit.  Every failing
    certificate lands in the report, in (k, trial) order.  An empty grid,
    or an argument _check_sweep refuses, raises ValueError naming it.
    """
    if len(k_grid) == 0:
        raise ValueError("sweep k_grid is empty; the sweep would certify nothing")
    ks = [_check_wavenumber(k) for k in k_grid]
    _check_sweep(theorem, ks, modes, trials, seed)
    trials_at = _source_trials if THEOREMS[theorem].side is None else _boundary_trials
    rng = np.random.default_rng(seed)
    certs: list[BoundCertificate] = []
    for k in ks:
        certs += trials_at(rng, theorem, k, modes, trials)
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
    boundary data past MAX_MODE, which certify refuses.  Data run over
    `modes` members from their family's first_nonzero."""
    for name, value in (("trials", trials), ("modes", modes)):
        if value < 1:
            raise ValueError(f"{prefix}{name} must be at least 1, got {value}")
    if seed < 0:
        raise ValueError(f"{prefix}seed must be nonnegative, got {seed}")
    if THEOREMS[theorem].side is not None and modes > MAX_MODE:
        top = max(modes - 1 + _trial_config(theorem, t, k)[1].first_nonzero
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
        start = fam.first_nonzero
        c /= np.linalg.norm(c)
        certs.append(_certificate(theorem, k, np.abs(c) ** 2, tables[key],
                                  slice(start, start + modes)))
    return certs


def _source_trials(rng: np.random.Generator, theorem: TheoremId, k: float, modes: int,
                   trials: int) -> list[BoundCertificate]:
    """The certificates of one k's trials of the source theorem, in trial
    order.  Trial t draws an operator pair, 1 to min(6, modes) of the first
    12 modes of its family and, mode by mode, the profile
    c0 + c1 sin(omega x) + c2 x^2 on the panel nodes; both sides of the
    bound scale with the source, so it is certified as drawn.  A SourceTable
    row depends only on k, its eigenvalue and its samples, so the trials
    share one table, and each is certified by _certificate on its rows."""
    x = _NODES.ravel()
    samples = np.empty((trials * min(6, modes), x.size), dtype=complex)
    mu, rows = [], []
    for _ in range(trials):
        fam = select_eigenpairs(*_HORIZONTAL_PAIRS[int(rng.integers(0, 4))])
        count = int(rng.integers(1, min(6, modes) + 1))
        ns = np.arange(12) + fam.first_nonzero
        rows.append(slice(len(mu), len(mu) + count))
        mu.extend(fam.eigenvalue(np.sort(rng.choice(ns, size=count, replace=False))))
        for row in samples[rows[-1]]:
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            omega = float(rng.uniform(0.5, 2.5)) * math.pi
            row[:] = c[0] + c[1] * np.sin(omega * x) + c[2] * x ** 2
    table = SourceTable(k, mu, samples[:len(mu)])
    return [_certificate(theorem, k, np.ones(r.stop - r.start), table, r) for r in rows]
