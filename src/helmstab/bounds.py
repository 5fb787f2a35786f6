"""Stability certificates: theorem constants, sharpness cases, and sweeps.

Each certified inequality bounds the energy ||grad u|| + k ||u|| by an
explicit k-power times data norms.  Certificates compare the modal energy of
an assembled solution against the bound; sharpness cases rebuild the
closed-form extremal examples and their exact energies, and give the
verdict on a solve of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
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
    _fsums,
    _sqrt,
    _weighted_norms,
)
from .modal1d import (
    ModeTable,
    Side,
    choose_lifting_family,
    mode_table,
    _check_wavenumber,
)
from .solver import (
    BoundaryConfig,
    EnergyReport,
    SourceTable,
    solve_datum,
    solve_source,
    _NODES,
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


def rhs_bound(theorem: TheoremId, k, norms: DataNormReport):
    """Right-hand side of the theorem's stability inequality: a float, or
    one per row for a k per row and norms of row arrays."""
    k = _check_wavenumber(k)
    row = THEOREMS[theorem]
    mk = np.maximum(k, 1.0) if row.k_power == 1 else np.maximum(k * k, 1.0)
    if not row.half_term:
        return row.constant * mk * norms.l2
    if norms.fractional_half is None or not np.all(np.isfinite(norms.fractional_half)):
        raise ValueError(f"{theorem.value} consumes the fractional-order data norm")
    return row.constant * (mk * norms.l2 + np.maximum(_sqrt(k), 1.0) * norms.fractional_half)


@dataclass(frozen=True)
class BoundCertificate:
    """The check lhs <= rhs of a datum's stability bound.  from_sides makes
    the certificates of many data at once, every field but the theorem an
    array over their rows; row(i) is certificate i."""

    theorem: TheoremId
    k: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    datum_norms: DataNormReport

    @staticmethod
    def from_sides(theorem: TheoremId, k, lhs, rhs, norms: DataNormReport) -> "BoundCertificate":
        """The certificates lhs <= rhs of rows: k, lhs, rhs and the fields
        of norms are arrays over the rows.  A non-finite side raises
        ValueError naming the first such row, as it would read as a
        violation."""
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        if not np.all(finite):
            k, lhs, rhs = (np.ravel(x)[np.argmin(finite)].item() for x in (k, lhs, rhs))
            raise ValueError(f"{theorem.value} certificate at k={k!r} has a non-finite side "
                             f"(lhs={lhs!r}, rhs={rhs!r})")
        ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=(lhs != 0.0) | (rhs != 0.0))
        return BoundCertificate(theorem, k, lhs, rhs, ratio, lhs <= rhs * (1.0 + CERT_SLACK),
                                norms)

    def row(self, i: int) -> "BoundCertificate":
        """Certificate i of a certificate of rows, in Python scalars; a
        norm that is one float for every row (a source's unused NaN half norm)
        stays that float."""
        def pick(x):
            return x[i].item() if isinstance(x, np.ndarray) else x

        n = self.datum_norms
        return BoundCertificate(
            self.theorem, *(pick(x) for x in (self.k, self.lhs, self.rhs, self.ratio,
                                               self.passed)),
            DataNormReport(pick(n.l2), pick(n.fractional_half)))


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
    `truncation` raises ValueError from the solve instead of being dropped,
    and so does data the certificate would pass vacuously (_check_data).
    The solve's block is certified by _certificate as one row, the way a
    sweep certifies all its trials.
    """
    k = _check_wavenumber(k)
    row = THEOREMS[theorem]
    _check_operators(theorem, config)
    _check_data(theorem, data)
    block = (solve_source(data, config, k, truncation) if row.side is None
             else solve_datum(config, row.side, data, k, truncation)).blocks[0]
    w = np.abs(block.c) ** 2
    return _certificate(theorem, np.array([k]), w[None], block.profiles, slice(None)).row(0)


def _certificate(theorem: TheoremId, k: np.ndarray, w: np.ndarray, table,
                 rows) -> BoundCertificate:
    """The certificates of the data with squared coefficient moduli w, one
    datum per row of w at the k of that row, on the given rows of their
    profile table (an index array shaped like w, or a slice), as row
    arrays: the Parseval energy of each solution against rhs_bound of its
    norms, a source's from its rows' samples (SourceTable.f_norm_sq).  The
    one certificate of certify and of every sweep trial."""
    lhs = _parseval_energy(w, table, k, rows).energy
    if THEOREMS[theorem].side is None:
        norms = DataNormReport(np.sqrt(_fsums(w * table.f_norm_sq[rows])), math.nan)
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


def _check_data(theorem: TheoremId, data) -> None:
    """Raise ValueError naming the theorem for data whose certificate
    would read 0 <= 0, a pass that checks nothing: a source with no mode,
    or a datum with no nonzero coefficient.  None is no data."""
    if THEOREMS[theorem].side is None:
        if not data:
            raise ValueError(f"{theorem.value} certifies a source; none given")
    elif data is None or not np.any(data.c):
        raise ValueError(f"{theorem.value} certifies a nonzero datum on this side; none given")


# --------------------------------------------------------------------------
# sharpness cases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Example:
    """One extremal example as the paper gives it: its theorem, the operator
    of its far side (the right side, or the top side of a lifting example),
    whether its wavenumber is detuned, and its exact energy in (k, mu, w)
    with w = sqrt(k^2 - mu^2) of the float k, for a detuned example
    (grad^2 + k^2 l2^2, a lower bound of the energy)."""

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


#: The relative difference within which a sharpness solve matches its case.
SHARPNESS_RTOL = 1e-8


@dataclass(frozen=True)
class SharpnessCase:
    """One closed-form extremal example: its problem, its exact `expected`
    value (the energy, or for a detuned case grad^2 + k^2 l2^2) and, for a
    detuned case only, the `lower_bound` of its energy."""

    case_id: str
    n: int
    k: float
    theorem: TheoremId
    config: BoundaryConfig
    datum: Spectrum
    expected: float
    lower_bound: Optional[float]

    def verdict(self, rep: EnergyReport) -> tuple[float, float, bool]:
        """The solve's value of `expected` from its energy report, the
        relative difference between the two, and whether that is at most
        SHARPNESS_RTOL and the energy reaches any `lower_bound`."""
        computed = (rep.energy if self.lower_bound is None
                    else rep.grad_norm**2 + self.k**2 * rep.l2_norm**2)
        rel = abs(computed - self.expected) / self.expected
        passed = rel <= SHARPNESS_RTOL and (self.lower_bound is None
                                            or rep.energy >= self.lower_bound)
        return computed, rel, passed

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
    _check_case_mode(n)
    _check_case_family(case_id, family)
    row = EXAMPLES[case_id]
    lifting = THEOREMS[row.theorem].side is Side.BOTTOM
    b_bottom, b_top = homogeneous_operators(family)
    cfg = (BoundaryConfig(THEOREMS[row.theorem].bottom, _D, row.far) if lifting
           else BoundaryConfig(b_bottom, row.far, b_top))
    mu, theta = family.eigenvalue(n), cfg.vertical_family().eigenvalue(n)
    w = theta + 1.0 / theta if row.detuned else (_PI / 2.0 if row.far is _N else _PI)
    k = math.sqrt(mu * mu + w * w)
    energy = row.energy(k, mu, math.sqrt((k - mu) * (k + mu)))
    expected, lower = energy if row.detuned else (energy, None)
    return SharpnessCase(case_id, n, k, row.theorem, cfg, Spectrum.from_pairs(family, [(n, 1.0)]),
                         expected, lower)


def _check_case_mode(n: int) -> None:
    """Raise ValueError unless n is a mode index of a sharpness case."""
    if not 1 <= n <= MAX_MODE:
        raise ValueError(f"sharpness cases are stated for mode index n in [1, {MAX_MODE}], got {n}")


def _check_case_family(case_id: str, family: BasisFamily) -> None:
    """Raise ValueError for a half-integer family in a lifting example."""
    if THEOREMS[EXAMPLES[case_id].theorem].side is Side.BOTTOM and family.half_integer:
        raise ValueError("the lifting examples use the integer-eigenvalue basis")


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

#: Trial t has the config of trial t mod _CYCLE: _trial_config cycles 4
#: operator pairs and 3 right operators, or 2 top operators and 2 families.
_CYCLE = 12

#: Drawn coefficients per chunk of a boundary sweep.  A chunk takes
#: max(1, _SWEEP_CHUNK // (trials * modes)) wavenumbers, which bounds its
#: draws, weights and tables whatever the grid.
_SWEEP_CHUNK = 1 << 15


def _trial_config(theorem: TheoremId, trial: int, k: float,
                  lifting=choose_lifting_family) -> tuple[BoundaryConfig, BasisFamily]:
    """The config and data family of trial `trial` at k; `lifting` picks a
    lifting lattice as choose_lifting_family does."""
    row = THEOREMS[theorem]
    right = row.right or _D
    if row.side is Side.BOTTOM:
        b_top = (_D, _N)[trial % 2]
        cfg = BoundaryConfig(row.bottom, right, b_top)
        cosine = lifting(k, row.bottom, b_top).basis
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
    certify a chunk of k at a time (_SWEEP_CHUNK), all its trials as row
    arrays from one mode table per (operator pair, eigenvalue lattice) with
    a k per row (_boundary_chunk); the source theorem certifies one k at a
    time from one SourceTable (_source_trials).  Every certificate is the
    one certify gives for the same datum, bit for bit, and only the failing
    ones are built as BoundCertificate objects: every one lands in the
    report, in (k, trial) order.  The argmax is the first maximum ratio in
    that order.  An empty grid, or an argument _check_sweep refuses, raises
    ValueError naming it.
    """
    if len(k_grid) == 0:
        raise ValueError("sweep k_grid is empty; the sweep would certify nothing")
    ks = [_check_wavenumber(k) for k in k_grid]
    _check_sweep(theorem, ks, modes, trials, seed)
    source = THEOREMS[theorem].side is None
    per_chunk = 1 if source else max(1, _SWEEP_CHUNK // (trials * modes))
    rng = np.random.default_rng(seed)
    failures: list[BoundCertificate] = []
    max_ratio = -1.0
    argmax: tuple[Optional[float], Optional[int]] = (None, None)
    for lo in range(0, len(ks), per_chunk):
        certs = (_source_trials(rng, theorem, ks[lo], modes, trials) if source
                 else _boundary_chunk(rng, theorem, ks[lo:lo + per_chunk], modes, trials))
        best = int(np.argmax(certs.ratio))
        if certs.ratio[best] > max_ratio:
            max_ratio, argmax = certs.ratio[best].item(), (ks[lo + best // trials], best % trials)
        failures += [certs.row(i) for i in np.flatnonzero(~certs.passed)]
    return SweepReport(
        theorem=theorem,
        k_grid=tuple(ks),
        modes=modes,
        trials=trials,
        seed=seed,
        certificates=len(ks) * trials,
        all_passed=not failures,
        max_ratio=max_ratio,
        argmax_k=argmax[0],
        argmax_trial=argmax[1],
        failures=tuple(failures),
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


def _boundary_chunk(rng: np.random.Generator, theorem: TheoremId, ks: list[float],
                    modes: int, trials: int) -> BoundCertificate:
    """The certificates of a boundary theorem's trials at the wavenumbers
    ks, as row arrays in (k, trial) order.

    Trial t draws `modes` complex coefficients, real parts then imaginary
    parts, and scales them to unit norm; the chunk draws at once, which is
    the same stream as drawing k by k.  Trial t at k has the config of
    trial t mod _CYCLE, and choose_lifting_family runs once per (k, top
    operator).  A table row depends only on its k, the operators at the
    profile's ends and its eigenvalue, and the sine and cosine families of
    a lattice have the same eigenvalues.  So the chunk builds one mode_table
    per (operators, lattice), in the lattice's cosine family with a k per
    row, over the rows its trials read at each k that has such a trial:
    0..modes on the integer lattice, 0..modes-1 on the half-integer one.
    The tables are stacked into one, and _certificate certifies every trial
    from its rows, as it certifies certify's one datum.
    """
    side = THEOREMS[theorem].side
    draws = rng.standard_normal((len(ks), trials, 2, modes)).reshape(-1, 2, modes)
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    # One ddot per row, as np.linalg.norm takes it, so each norm keeps its bytes.
    re, im = coeffs.real[:, None], coeffs.imag[:, None]
    coeffs /= np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)).reshape(-1, 1)
    lifting = functools.cache(choose_lifting_family)
    cycle = min(trials, _CYCLE)
    # (operators, lattice) -> {k index: its block}
    found: dict = {}
    # (operators, lattice, block of the k, data family's first_nonzero) per (k, config)
    slots = []
    for i, k in enumerate(ks):
        for c in range(cycle):
            cfg, fam = _trial_config(theorem, c, k, lifting)
            key = (_profile_ends(cfg, side), fam.half_integer)
            blocks = found.setdefault(key, {})
            slots.append((key, blocks.setdefault(i, len(blocks)), fam.first_nonzero))
    tables, first = [], {}  # (operators, lattice) -> (its first row, rows per block)
    for (ends, half), blocks in found.items():
        size = modes + (not half)
        first[ends, half] = (sum(map(len, tables)), size)
        cos = BasisFamily.COS_HALF if half else BasisFamily.COS_INT
        tables.append(mode_table(np.tile(np.arange(size), len(blocks)),
                                 np.repeat([ks[i] for i in blocks], size), ends, side, cos))
    table = ModeTable(*(np.concatenate([getattr(t, f.name) for t in tables])
                        for f in fields(ModeTable)))
    base = np.reshape([first[key][0] + block * first[key][1] + start
                       for key, block, start in slots], (len(ks), cycle))
    rows = base[:, np.arange(trials) % cycle].reshape(-1, 1) + np.arange(modes)
    return _certificate(theorem, np.repeat(ks, trials), np.abs(coeffs) ** 2, table, rows)


def _source_trials(rng: np.random.Generator, theorem: TheoremId, k: float, modes: int,
                   trials: int) -> BoundCertificate:
    """The certificates of one k's trials of the source theorem, as row
    arrays in trial order.  Trial t draws an operator pair, 1 to
    min(6, modes) of the first 12 modes of its family and, mode by mode,
    the profile c0 + c1 sin(omega x) + c2 x^2 on the panel nodes; both
    sides of the bound scale with the source, so it is certified as drawn.
    A SourceTable row depends only on k, its eigenvalue and its samples, so
    the trials share one table, and _certificate certifies each on its
    rows: weight 1 on them, 0 on the padding up to min(6, modes) rows."""
    x = _NODES.ravel()
    most = min(6, modes)
    samples = np.empty((trials * most, x.size), dtype=complex)
    mu, first, counts = [], [], []
    for _ in range(trials):
        fam = select_eigenpairs(*_HORIZONTAL_PAIRS[int(rng.integers(0, 4))])
        count = int(rng.integers(1, most + 1))
        ns = np.arange(12) + fam.first_nonzero
        first.append(len(mu))
        counts.append(count)
        mu.extend(fam.eigenvalue(np.sort(rng.choice(ns, size=count, replace=False))))
        for row in samples[first[-1]:len(mu)]:
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            omega = float(rng.uniform(0.5, 2.5)) * math.pi
            row[:] = c[0] + c[1] * np.sin(omega * x) + c[2] * x ** 2
    table = SourceTable(k, mu, samples[:len(mu)])
    span = np.arange(most)
    w = (span < np.array(counts)[:, None]).astype(float)
    rows = np.minimum(np.array(first)[:, None] + span, len(mu) - 1)
    return _certificate(theorem, np.full(trials, k), w, table, rows)
