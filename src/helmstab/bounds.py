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
    Provenance,
    SeriesSolution,
    energy_parseval,
    energy_quadrature,
    lift_horizontal_data,
    solve_source,
    solve_vertical_data,
    source_l2_norm,
)

#: Relative slack distinguishing roundoff from a genuine bound violation.
CERT_SLACK = 1e-9


class TheoremId(Enum):
    T1_G4 = "T1_G4"              # impedance datum, left side
    T2_G2_IMP = "T2_G2_IMP"      # impedance datum, right side
    T2_G2_NEU = "T2_G2_NEU"      # Neumann datum, right side
    T2_G2_DIR = "T2_G2_DIR"      # Dirichlet datum, right side
    TF_SOURCE = "TF_SOURCE"      # volumetric source, homogeneous data
    T3_LIFT_NEU = "T3_LIFT_NEU"  # Neumann datum, bottom side (lifting)
    T3_LIFT_DIR = "T3_LIFT_DIR"  # Dirichlet datum, bottom side (lifting)


def rhs_bound(theorem: TheoremId, k: float, norms: DataNormReport) -> float:
    """Right-hand side of the theorem's stability inequality."""
    k = _check_wavenumber(k)
    mk = max(k, 1.0)
    mk2 = max(k * k, 1.0)
    mk_half = max(math.sqrt(k), 1.0)
    if theorem is TheoremId.T1_G4 or theorem is TheoremId.T2_G2_IMP:
        return math.sqrt(12.0) * mk * norms.l2
    if theorem is TheoremId.T2_G2_NEU:
        return math.sqrt(20.0) * mk2 * norms.l2
    if theorem is TheoremId.T2_G2_DIR:
        _require_fractional(norms)
        return math.sqrt(14.0) * (mk2 * norms.l2 + mk_half * norms.fractional_half)
    if theorem is TheoremId.TF_SOURCE:
        return math.sqrt(30.0) * mk2 * norms.l2
    if theorem is TheoremId.T3_LIFT_NEU:
        return 2.0 * math.sqrt(717.0) * mk * norms.l2
    if theorem is TheoremId.T3_LIFT_DIR:
        _require_fractional(norms)
        return 2.0 * math.sqrt(43.0) * (mk2 * norms.l2 + mk_half * norms.fractional_half)
    raise ValueError(f"unknown theorem {theorem}")


def _require_fractional(norms: DataNormReport) -> None:
    if norms.fractional_half is None or not math.isfinite(norms.fractional_half):
        raise ValueError("this bound consumes the fractional-order data norm")


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


#: The side carrying each boundary theorem's datum.
DATUM_SIDE = {
    TheoremId.T1_G4: Side.LEFT,
    TheoremId.T2_G2_IMP: Side.RIGHT,
    TheoremId.T2_G2_NEU: Side.RIGHT,
    TheoremId.T2_G2_DIR: Side.RIGHT,
    TheoremId.T3_LIFT_NEU: Side.BOTTOM,
    TheoremId.T3_LIFT_DIR: Side.BOTTOM,
}

_RIGHT_OP_REQUIRED = {
    TheoremId.T2_G2_IMP: BoundaryOperator.IMPEDANCE,
    TheoremId.T2_G2_NEU: BoundaryOperator.NEUMANN,
    TheoremId.T2_G2_DIR: BoundaryOperator.DIRICHLET,
}


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
    if theorem is TheoremId.TF_SOURCE:
        if config.right is not BoundaryOperator.DIRICHLET:
            raise ValueError("the source bound requires a Dirichlet right side")
        u = solve_source(data, config, k, truncation)
        norms = DataNormReport(source_l2_norm(data, config), math.nan, math.nan)
        lhs_par = energy_parseval(u).energy
        lhs_quad = energy_quadrature(u, 25).energy
        lhs = max(lhs_par, lhs_quad)  # quadrature cross-check folded in
        return BoundCertificate.from_sides(theorem, k, lhs, rhs_bound(theorem, k, norms), norms)

    side = DATUM_SIDE[theorem]
    want_right = _RIGHT_OP_REQUIRED.get(theorem)
    if want_right is not None and config.right is not want_right:
        raise ValueError(f"{theorem.value} requires the right operator {want_right.value}")
    if theorem is TheoremId.T3_LIFT_NEU and config.bottom is not BoundaryOperator.NEUMANN:
        raise ValueError("T3_LIFT_NEU requires a Neumann bottom operator")
    if theorem is TheoremId.T3_LIFT_DIR and config.bottom is not BoundaryOperator.DIRICHLET:
        raise ValueError("T3_LIFT_DIR requires a Dirichlet bottom operator")
    if side in (Side.LEFT, Side.RIGHT):
        u = solve_vertical_data(config, side, data, k, truncation)
    else:
        u = lift_horizontal_data(data, side, config, k, truncation)
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
    data_side: Side
    datum: Spectrum
    exact: SeriesSolution
    expected_energy: Optional[float]
    expected_energy_sq: Optional[float]  # grad^2 + k^2 l2^2 for the >=-bounded cases
    lower_bound: Optional[float]


def _trig_profile(w: float, A: complex, B: complex):
    """Mode equal to A sin(w t) + B cos(w t) (propagating, w = k*lam), as
    (forward, backward) amplitudes."""
    c_minus = (B + 1j * A) / 2.0
    return (B - 1j * A) / 2.0, c_minus * cmath.exp(-1j * w)


def _trig_profile_from_end(w: float, A: complex, B: complex):
    """Mode equal to A sin(w (1-t)) + B cos(w (1-t)), as (forward, backward)
    amplitudes."""
    return (B + 1j * A) / 2.0 * cmath.exp(-1j * w), (B - 1j * A) / 2.0


def _one_term(cfg: BoundaryConfig, k: float, n: int, provenance: Provenance,
              family: BasisFamily, mu: float, amplitudes) -> SeriesSolution:
    """The solution 1 * profile * member n of `family`, the profile a
    one-row table built from its (forward, backward) amplitudes; the profile
    is the y factor of a lifted solution."""
    profile = mode_from_amplitudes(k, mu, *amplitudes, n=n)
    block = Block(np.array([n], dtype=np.int64), np.ones(1, dtype=complex), profile, family,
                  lifted=provenance is Provenance.LIFTED_HORIZONTAL_DATA)
    return SeriesSolution(cfg, k, n, provenance, (block,))


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
            side = Side.LEFT
            prof = _trig_profile(pi, -1.0 / (2.0 * pi), 1j / (2.0 * k))
            expected = (sqrt2 / 2.0) * k * math.sqrt(1.0 / pi**2 + 1.0 / k**2)
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.3-2":
            k = math.sqrt(mu * mu + pi * pi / 4.0)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.NEUMANN, b_top)
            side = Side.LEFT
            prof = _trig_profile(pi / 2.0, -2.0 / pi, 0.0)
            expected = (2.0 * sqrt2 / pi) * k
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.3-3":
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
            side = Side.LEFT
            prof = _trig_profile(pi, -1.0 / pi, 0.0)
            expected = (sqrt2 / pi) * k
            theorem = TheoremId.T1_G4
        elif case_id == "ex2.5-neumann":
            k = math.sqrt(mu * mu + pi * pi / 4.0)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.NEUMANN, b_top)
            side = Side.RIGHT
            prof = _trig_profile(pi / 2.0, 4j * k / pi**2, -2.0 / pi)
            expected = (4.0 * sqrt2 / pi) * k * k * math.sqrt(1.0 / pi**2 + 1.0 / (4.0 * k * k))
            theorem = TheoremId.T2_G2_NEU
        else:  # ex2.5-dirichlet
            k = math.sqrt(mu * mu + pi * pi)
            cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
            side = Side.RIGHT
            prof = _trig_profile(pi, 1j * k / pi, -1.0)
            expected = (sqrt2 / pi) * math.sqrt(k**4 + pi**2 * k**2)
            theorem = TheoremId.T2_G2_DIR
        exact = _one_term(cfg, k, n, Provenance.VERTICAL_DATA, family, mu, prof)
        return SharpnessCase(case_id, n, k, theorem, cfg, side, datum, exact,
                             expected, None, None)

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
    exact = _one_term(cfg, k, n, Provenance.LIFTED_HORIZONTAL_DATA, family, mu, prof)
    return SharpnessCase(case_id, n, k, theorem, cfg, Side.BOTTOM, datum, exact,
                         expected, expected_sq, lower)


# --------------------------------------------------------------------------
# randomized sweeps
# --------------------------------------------------------------------------


class CertificateViolation(AssertionError):
    """A sweep certificate failed its bound; carries the full certificate."""

    def __init__(self, certificate: BoundCertificate, k: float, trial: int):
        self.certificate = certificate
        self.k = k
        self.trial = trial
        super().__init__(
            f"{certificate.theorem.value} violated at k={k!r}, trial {trial}: "
            f"lhs={certificate.lhs!r} > rhs={certificate.rhs!r} "
            f"(ratio {certificate.ratio!r})"
        )


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

_B2_CHOICES = (
    BoundaryOperator.IMPEDANCE,
    BoundaryOperator.NEUMANN,
    BoundaryOperator.DIRICHLET,
)


def _random_spectrum(rng: np.random.Generator, family: BasisFamily, modes: int) -> Spectrum:
    start = 1 if family is BasisFamily.SIN_INT else 0
    coeffs = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    coeffs /= np.linalg.norm(coeffs)
    return Spectrum(family, np.arange(start, start + modes), coeffs)


def _trial_config(theorem: TheoremId, trial: int, k: float) -> tuple[BoundaryConfig, BasisFamily]:
    D, N = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN
    if theorem in (TheoremId.T3_LIFT_NEU, TheoremId.T3_LIFT_DIR):
        b_bottom = N if theorem is TheoremId.T3_LIFT_NEU else D
        b_top = (D, N)[trial % 2]
        cfg = BoundaryConfig(b_bottom, BoundaryOperator.DIRICHLET, b_top)
        choice = choose_lifting_family(k, b_bottom, b_top)
        if choice.family is EigenvalueFamily.INTEGER:
            fam = (BasisFamily.COS_INT, BasisFamily.SIN_INT)[(trial // 2) % 2]
        else:
            fam = (BasisFamily.COS_HALF, BasisFamily.SIN_HALF)[(trial // 2) % 2]
        return cfg, fam
    pair = _HORIZONTAL_PAIRS[trial % 4]
    if theorem is TheoremId.T1_G4:
        b2 = _B2_CHOICES[(trial // 4) % 3]
    else:
        b2 = _RIGHT_OP_REQUIRED.get(theorem, BoundaryOperator.DIRICHLET)
    cfg = BoundaryConfig(pair[0], b2, pair[1])
    return cfg, select_eigenpairs(*pair)


def sweep(
    theorem: TheoremId,
    k_grid: Sequence[float],
    modes: int = 64,
    trials: int = 50,
    seed: int = 0,
    collect_failures: bool = False,
) -> SweepReport:
    """Seeded randomized certification sweep over a wavenumber grid.

    Every (k, trial) pair draws unit-norm data (or a smooth modal source of
    random norm for the source theorem; its bound is homogeneous of degree
    one in the source) and certifies the bound.  A failing
    certificate aborts with CertificateViolation carrying the certificate,
    unless collect_failures is set, in which case all failures land in the
    report.
    """
    for k in k_grid:
        _check_wavenumber(k)
    rng = np.random.default_rng(seed)
    failures: list[BoundCertificate] = []
    max_ratio = -1.0
    argmax: tuple[Optional[float], Optional[int]] = (None, None)
    count = 0
    for k in k_grid:
        for trial in range(trials):
            if theorem is TheoremId.TF_SOURCE:
                cert = _source_trial(rng, k, modes)
            else:
                cfg, fam = _trial_config(theorem, trial, float(k))
                data = _random_spectrum(rng, fam, modes)
                cert = certify(theorem, cfg, data, float(k))
            count += 1
            if cert.ratio > max_ratio:
                max_ratio = cert.ratio
                argmax = (float(k), trial)
            if not cert.passed:
                if not collect_failures:
                    raise CertificateViolation(cert, float(k), trial)
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


def _source_trial(rng: np.random.Generator, k: float, modes: int) -> BoundCertificate:
    """Certificate of a random smooth modal source.  Both sides of the
    bound scale with the source, so it is certified as drawn."""
    pair = _HORIZONTAL_PAIRS[int(rng.integers(0, 4))]
    cfg = BoundaryConfig(pair[0], BoundaryOperator.DIRICHLET, pair[1])
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
    return certify(TheoremId.TF_SOURCE, cfg, source, k)
