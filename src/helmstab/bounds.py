"""Stability certificates: theorem constants, sharpness cases, and sweeps.

Each certified inequality bounds the energy ||grad u|| + k ||u|| by an
explicit k-power times data norms.  Certificates compare the modal energy of
an assembled solution against the bound; sharpness cases rebuild the
closed-form extremal solutions and their exact energies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .eigenbasis import (
    BasisFamily,
    BoundaryOperator,
    DataNormReport,
    Spectrum,
    data_norms,
    select_eigenpairs,
    _EIGENPAIRS,
)
from .modal1d import (
    EigenvalueFamily,
    Side,
    choose_lifting_family,
    mode_from_amplitudes,
    _check_wavenumber,
)
from .solver import (
    Block,
    BoundaryConfig,
    SeriesSolution,
    energy_parseval,
    energy_quadrature,
    solve_datum,
    solve_source,
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
    for name, want in (("right", row.right), ("bottom", row.bottom)):
        if want is not None and getattr(config, name) is not want:
            raise ValueError(f"{theorem.value} requires the {name} operator {want.value}, "
                             f"got {getattr(config, name).value}")
    if row.side is None:
        u = solve_source(data, config, k, truncation)
        # The norm of the source as solved, from the samples of its table.
        norms = DataNormReport(_source_norm(u.blocks[0].profiles.f), math.nan, math.nan)
        # quadrature cross-check folded in
        lhs = max(energy_parseval(u).energy, energy_quadrature(u, 25).energy)
    else:
        u = solve_datum(config, row.side, data, k, truncation)
        norms = data_norms(data)
        lhs = energy_parseval(u).energy
    return BoundCertificate.from_sides(theorem, k, lhs, rhs_bound(theorem, k, norms), norms)


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
    """One closed-form extremal solution with its exact energy."""

    case_id: str
    n: int
    k: float
    theorem: TheoremId
    config: BoundaryConfig
    datum: Spectrum
    exact: SeriesSolution
    expected_energy: Optional[float]
    expected_energy_sq: Optional[float]  # grad^2 + k^2 l2^2 for the >=-bounded cases
    lower_bound: Optional[float]

    @property
    def data_side(self) -> Side:
        """The side of the datum: the side of the case's theorem."""
        return THEOREMS[self.theorem].side


def _trig_profile(w: float, A: complex, B: complex):
    """Mode equal to A sin(w t) + B cos(w t) (propagating, w = k*lam), as
    (forward, backward) amplitudes."""
    c_minus = (B + 1j * A) / 2.0
    return (B - 1j * A) / 2.0, c_minus * cmath.exp(-1j * w)


def _trig_profile_from_end(w: float, A: complex, B: complex):
    """Mode equal to A sin(w (1-t)) + B cos(w (1-t)), as (forward, backward)
    amplitudes."""
    return (B + 1j * A) / 2.0 * cmath.exp(-1j * w), (B - 1j * A) / 2.0


def _one_term(cfg: BoundaryConfig, k: float, n: int, lifted: bool,
              family: BasisFamily, mu: float, amplitudes) -> SeriesSolution:
    """The solution 1 * profile * member n of `family`, the profile a
    one-row table built from its (forward, backward) amplitudes; the profile
    is the y factor when `lifted`."""
    profile = mode_from_amplitudes(k, mu, *amplitudes, n=n)
    block = Block(np.array([n], dtype=np.int64), np.ones(1, dtype=complex), profile, family, lifted)
    return SeriesSolution(cfg, k, n, (block,))


#: The (bottom, top) operator pair of each vertical basis family.
_VERTICAL_OPS = {family: pair for pair, family in _EIGENPAIRS.items()}


def sharpness_case(
    case_id: str, n: int, family: BasisFamily = BasisFamily.SIN_INT
) -> SharpnessCase:
    """Rebuild one extremal example: problem, transcribed solution, energy.

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
            prof = _trig_profile(pi, -1.0 / (2.0 * pi), 1j / (2.0 * k))
            expected = (sqrt2 / 2.0) * k * math.sqrt(1.0 / pi**2 + 1.0 / k**2)
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.3-2":
            k = math.sqrt(mu * mu + pi * pi / 4.0)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.NEUMANN, b_top)
            prof = _trig_profile(pi / 2.0, -2.0 / pi, 0.0)
            expected = (2.0 * sqrt2 / pi) * k
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.3-3":
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
            prof = _trig_profile(pi, -1.0 / pi, 0.0)
            expected = (sqrt2 / pi) * k
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.5-neumann":
            k = math.sqrt(mu * mu + pi * pi / 4.0)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.NEUMANN, b_top)
            prof = _trig_profile(pi / 2.0, 4j * k / pi**2, -2.0 / pi)
            expected = (4.0 * sqrt2 / pi) * k * k * math.sqrt(1.0 / pi**2 + 1.0 / (4.0 * k * k))
            theorem = TheoremId.T2_G2_NEU
        else:  # ex2.5-dirichlet
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
            prof = _trig_profile(pi, 1j * k / pi, -1.0)
            expected = (sqrt2 / pi) * math.sqrt(k**4 + pi**2 * k**2)
            theorem = TheoremId.T2_G2_DIR
        exact = _one_term(cfg, k, n, False, family, mu, prof)
        return SharpnessCase(case_id, n, k, theorem, cfg, datum, exact, expected, None, None)

    # lifting cases: integer eigenvalue lattice, sine or cosine x-basis
    if family not in (BasisFamily.SIN_INT, BasisFamily.COS_INT):
        raise ValueError("the lifting examples use the integer-eigenvalue basis")
    mu = n * pi
    datum = Spectrum.from_pairs(family, [(n, 1.0)])
    D, N = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN
    if case_id == "lift-nn":
        k = math.sqrt(mu * mu + pi * pi / 4.0)
        cfg = BoundaryConfig(N, D, N)
        prof = _trig_profile_from_end(pi / 2.0, 0.0, -2.0 / pi)
        expected, expected_sq, lower = (2.0 * sqrt2 / pi) * k, None, None
        theorem = TheoremId.T3_LIFT_NEU
    elif case_id == "lift-nd":
        k = math.sqrt(mu * mu + pi * pi)
        cfg = BoundaryConfig(N, D, D)
        prof = _trig_profile_from_end(pi, -1.0 / pi, 0.0)
        expected, expected_sq, lower = (sqrt2 / pi) * k, None, None
        theorem = TheoremId.T3_LIFT_NEU
    elif case_id == "lift-dn":
        theta = (n + 0.5) * pi
        w = theta + 1.0 / theta
        k = math.sqrt(w * w + mu * mu)
        cfg = BoundaryConfig(D, D, N)
        prof = _trig_profile_from_end(w, 0.0, 1.0 / math.cos(w))
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
        prof = _trig_profile_from_end(w, 1.0 / math.sin(w), 0.0)
        expected = None
        expected_sq = (k * k - theta * theta * math.sin(2.0 * w) / (2.0 * w)) / math.sin(w) ** 2
        lower = (pi**2 / (2.0 * sqrt2 * (pi**2 + 1.0))) * (k * k + math.sqrt(k) * math.sqrt(theta))
        theorem = TheoremId.T3_LIFT_DIR
    exact = _one_term(cfg, k, n, True, family, mu, prof)
    return SharpnessCase(case_id, n, k, theorem, cfg, datum, exact,
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

def _random_spectrum(rng: np.random.Generator, family: BasisFamily, modes: int) -> Spectrum:
    start = 1 if family is BasisFamily.SIN_INT else 0
    coeffs = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    coeffs /= np.linalg.norm(coeffs)
    return Spectrum(family, np.arange(start, start + modes), coeffs)


def _trial_config(theorem: TheoremId, trial: int, k: float) -> tuple[BoundaryConfig, BasisFamily]:
    row = THEOREMS[theorem]
    right = row.right or _D
    if row.side is Side.BOTTOM:
        b_top = (_D, _N)[trial % 2]
        cfg = BoundaryConfig(row.bottom, right, b_top)
        choice = choose_lifting_family(k, row.bottom, b_top)
        if choice.family is EigenvalueFamily.INTEGER:
            fam = (BasisFamily.COS_INT, BasisFamily.SIN_INT)[(trial // 2) % 2]
        else:
            fam = (BasisFamily.COS_HALF, BasisFamily.SIN_HALF)[(trial // 2) % 2]
        return cfg, fam
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
    one in the source) and certifies the bound.  Every failing certificate
    lands in the report.
    """
    for k in k_grid:
        _check_wavenumber(k)
    source = THEOREMS[theorem].side is None
    rng = np.random.default_rng(seed)
    failures: list[BoundCertificate] = []
    max_ratio = -1.0
    argmax: tuple[Optional[float], Optional[int]] = (None, None)
    count = 0
    for k in k_grid:
        for trial in range(trials):
            if source:
                cert = _source_trial(rng, theorem, k, modes)
            else:
                cfg, fam = _trial_config(theorem, trial, float(k))
                data = _random_spectrum(rng, fam, modes)
                cert = certify(theorem, cfg, data, float(k))
            count += 1
            if cert.ratio > max_ratio:
                max_ratio = cert.ratio
                argmax = (float(k), trial)
            if not cert.passed:
                failures.append(cert)
    return SweepReport(
        theorem=theorem,
        k_grid=tuple(float(k) for k in k_grid),
        modes=modes,
        trials=trials,
        seed=seed,
        certificates=count,
        all_passed=not failures,
        max_ratio=max_ratio if count else 0.0,
        argmax_k=argmax[0],
        argmax_trial=argmax[1],
        failures=tuple(failures),
    )


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
