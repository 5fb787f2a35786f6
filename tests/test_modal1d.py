"""1D modal solutions: norms, residuals, regimes, lifting selection."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.eigenbasis import BasisFamily, BoundaryOperator
from helmstab.modal1d import (
    CUTOFF,
    EigenvalueFamily,
    LiftingFamilyChoice,
    Regime,
    ResonantLiftingError,
    Side,
    classify_mode,
    choose_lifting_family,
    gap_lower_bound,
    mode_from_amplitudes,
    proof_quantities,
    x_modes,
    y_modes_lifting,
)

D, N, I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE
PI = math.pi


def quad_norm_sq(f, panels=256, nodes=12):
    """Composite Gauss-Legendre quadrature oracle for |f|^2 on [0,1]."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        h = 0.5 * (b - a)
        t = a + h * (xg + 1.0)
        total += h * float(np.sum(wg * np.abs(f(t)) ** 2))
    return total


def row_functions(table, i=0):
    """Row i of a table as its value and derivative, functions of an array t."""
    return (lambda t: table.value_and_derivative(t)[0][i],
            lambda t: table.value_and_derivative(t)[1][i])


def boundary_residual(table, op, end, k):
    """op applied to row 0 of a table at t = end."""
    value, derivative = table.value_and_derivative([float(end)])
    v, d = complex(value[0, 0]), complex(derivative[0, 0])
    nrm = d if end == 1 else -d
    if op is D:
        return v
    if op is N:
        return nrm
    return nrm - 1j * k * v


# --------------------------------------------------------------------------
# regimes
# --------------------------------------------------------------------------


def test_classify_examples():
    reg = classify_mode(2 * PI, PI)
    assert reg.kind is Regime.PROPAGATING
    assert reg.lam == pytest.approx(math.sqrt(3) / 2, rel=1e-15)

    reg = classify_mode(PI, PI)
    assert reg.kind is Regime.CUTOFF
    assert reg.lam == 0.0

    reg = classify_mode(1.0, PI)
    assert reg.kind is Regime.EVANESCENT
    assert reg.z == pytest.approx(math.sqrt(PI**2 - 1), rel=1e-15)


def test_cutoff_tolerance_band():
    k = 10.0
    assert classify_mode(k, k * (1 + 1e-9)).kind is Regime.CUTOFF
    assert classify_mode(k, k * (1 + 1e-7)).kind is Regime.EVANESCENT
    with pytest.raises(ValueError):
        classify_mode(0.0, 1.0)


# --------------------------------------------------------------------------
# x modes
# --------------------------------------------------------------------------


def test_plane_wave_mode():
    k = 3.7
    mode = x_modes([0], k, I, Side.LEFT, BasisFamily.COS_INT)
    x = np.array([0.0, 0.31, 0.77, 1.0])
    expect = (1j / (2 * k)) * np.exp(1j * k * x)
    assert np.max(np.abs(mode.value_and_derivative(x)[0][0] - expect)) < 1e-14


CASES = [
    (I, Side.LEFT), (I, Side.RIGHT),
    (N, Side.LEFT), (N, Side.RIGHT),
    (D, Side.LEFT), (D, Side.RIGHT),
]


@pytest.mark.parametrize("b2,side", CASES)
@pytest.mark.parametrize("k,n,family", [
    (2.7, 0, BasisFamily.SIN_HALF),       # propagating
    (9.4, 2, BasisFamily.COS_INT),        # propagating, larger z
    (2.0, 2, BasisFamily.COS_INT),        # evanescent
    (0.3, 1, BasisFamily.SIN_HALF),       # evanescent, small k
    (60.0, 22, BasisFamily.SIN_INT),      # evanescent, large z
])
def test_x_mode_norms_match_quadrature(b2, side, k, n, family):
    mode = x_modes([n], k, b2, side, family)
    value, derivative = row_functions(mode)
    assert abs(mode.norm_sq[0] - quad_norm_sq(value)) <= 1e-10 * mode.norm_sq[0]
    assert abs(mode.dnorm_sq[0] - quad_norm_sq(derivative)) <= 1e-10 * mode.dnorm_sq[0]


@pytest.mark.parametrize("b2,side", CASES)
def test_x_mode_boundary_conditions(b2, side):
    k = 6.1
    for n, family in ((1, BasisFamily.SIN_INT), (4, BasisFamily.COS_HALF)):
        mode = x_modes([n], k, b2, side, family)
        datum_at_left = 1.0 if side is Side.LEFT else 0.0
        assert abs(boundary_residual(mode, I, 0, k) - datum_at_left) < 1e-10 * (1 + k)
        assert abs(boundary_residual(mode, b2, 1, k) - (1.0 - datum_at_left)) < 1e-10 * (1 + k)


@pytest.mark.parametrize("b2,side", CASES)
def test_x_mode_ode_residual(b2, side):
    """Fourth-order finite differences of the closed form satisfy the ODE."""
    k, n, family = 8.3, 2, BasisFamily.COS_INT
    value, _ = row_functions(x_modes([n], k, b2, side, family))
    mu = family.eigenvalue(n)
    h = 1e-3
    ts = 0.5 * (1.0 - np.cos(PI * np.arange(33) / 32))
    ts = np.clip(ts, 2 * h, 1.0 - 2 * h)
    scale = np.max(np.abs(value(ts)))
    stencil = (
        -value(ts - 2 * h) + 16 * value(ts - h) - 30 * value(ts) + 16 * value(ts + h)
        - value(ts + 2 * h)
    ) / (12 * h * h)
    resid = stencil + (k * k - mu * mu) * value(ts)
    assert np.max(np.abs(resid)) < 1e-8 * (1 + k * k) * scale


def test_x_mode_cutoff_theta_values():
    """Cutoff energy densities match the stated constants."""
    fam = BasisFamily.SIN_INT
    n = 3
    k = fam.eigenvalue(n)

    def theta(mode):
        return mode.dnorm_sq[0] + (fam.eigenvalue(n) ** 2 + k * k) * mode.norm_sq[0]

    assert theta(x_modes([n], k, I, Side.LEFT, fam)) == pytest.approx(
        (2 * k**2 + 9) / (3 * k**2 + 12), rel=1e-12
    )
    assert theta(x_modes([n], k, N, Side.LEFT, fam)) == pytest.approx(2.0, rel=1e-12)
    assert theta(x_modes([n], k, D, Side.LEFT, fam)) == pytest.approx(
        (2 * k**2 + 3) / (3 * k**2 + 3), rel=1e-12
    )
    assert theta(x_modes([n], k, N, Side.RIGHT, fam)) == pytest.approx(
        (2 / 3) * k**2 + 3, rel=1e-12
    )
    assert theta(x_modes([n], k, D, Side.RIGHT, fam)) == pytest.approx(
        k**2 * (2 * k**2 + 9) / (3 * (k**2 + 1)), rel=1e-12
    )


def test_x_mode_continuity_across_cutoff():
    fam = BasisFamily.SIN_INT
    n = 2
    mu = fam.eigenvalue(n)
    cut = x_modes([n], mu, D, Side.LEFT, fam)
    assert cut.regime[0] == CUTOFF
    for relgap, tol in ((1e-4, 1e-3), (1e-6, 1e-5)):
        for sign in (+1, -1):
            k = mu * math.sqrt(1.0 + sign * relgap)
            near = x_modes([n], k, D, Side.LEFT, fam)
            assert near.regime[0] != CUTOFF
            assert abs(near.norm_sq[0] - cut.norm_sq[0]) <= tol * cut.norm_sq[0]
            assert abs(near.dnorm_sq[0] - cut.dnorm_sq[0]) <= tol * cut.dnorm_sq[0]


def test_x_mode_near_cutoff_norms_match_quadrature():
    fam = BasisFamily.SIN_INT
    n = 2
    mu = fam.eigenvalue(n)
    for relgap in (1e-4, 1e-6):
        for sign in (+1, -1):
            k = mu * math.sqrt(1.0 + sign * relgap)
            for b2, side in CASES:
                mode = x_modes([n], k, b2, side, fam)
                value, derivative = row_functions(mode)
                assert abs(mode.norm_sq[0] - quad_norm_sq(value)) <= 1e-10 * mode.norm_sq[0]
                assert abs(mode.dnorm_sq[0] - quad_norm_sq(derivative)) <= 1e-10 * mode.dnorm_sq[0]


def test_mode_from_amplitudes_matches_lemma_norms():
    k, n, family = 7.7, 1, BasisFamily.COS_INT
    mode = x_modes([n], k, I, Side.LEFT, family)
    rebuilt = mode_from_amplitudes(k, family.eigenvalue(n), mode.forward[0], mode.backward[0])
    assert len(rebuilt) == 1
    assert rebuilt.norm_sq[0] == pytest.approx(mode.norm_sq[0], rel=1e-12)
    assert rebuilt.dnorm_sq[0] == pytest.approx(mode.dnorm_sq[0], rel=1e-12)
    x = np.linspace(0.0, 1.0, 7)
    for got, want in zip(rebuilt.value_and_derivative(x), mode.value_and_derivative(x)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --------------------------------------------------------------------------
# lifting family and modes
# --------------------------------------------------------------------------


def test_choose_lifting_family_examples():
    ch = choose_lifting_family(PI, N, N)
    assert ch.family is EigenvalueFamily.HALF_INTEGER and ch.case_index == 1
    assert ch.d0 == pytest.approx(0.0, abs=1e-12)

    ch = choose_lifting_family(math.sqrt(PI**2 / 2), D, D)
    assert ch.family is EigenvalueFamily.INTEGER and ch.case_index == 2

    ch = choose_lifting_family(math.sqrt(PI**2 / 2), D, N)
    assert ch.family is EigenvalueFamily.INTEGER and ch.case_index == 3


@settings(max_examples=60, deadline=None)
@given(k=st.floats(min_value=0.05, max_value=200.0, allow_nan=False))
def test_d0_d1_complement(k):
    ch = choose_lifting_family(k, D, D)
    assert 0.0 <= ch.d0 <= PI**2 / 2 + 1e-12
    assert 0.0 <= ch.d1 <= PI**2 / 2 + 1e-12
    assert abs(ch.d0 + ch.d1 - PI**2 / 2) < 1e-12 * max(1.0, k * k)


def test_y_mode_cutoff_neumann_polynomial_norms():
    # place the cutoff exactly on the half-integer lattice the choice picks
    k = 2.5 * PI
    ch = choose_lifting_family(k, N, D)
    assert ch.family is EigenvalueFamily.HALF_INTEGER
    mode = y_modes_lifting([2], k, N, D, Side.BOTTOM, ch)  # mu = 2.5*pi = k
    assert mode.regime[0] == CUTOFF
    assert np.any(mode.poly[0] != 0) and mode.forward[0] == mode.backward[0] == 0
    assert mode.norm_sq[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert mode.dnorm_sq[0] == pytest.approx(1.0, rel=1e-14)

    ch_nn = choose_lifting_family(k, N, N)
    # force the degenerate alpha=1 branch by constructing the choice by hand
    from helmstab.modal1d import LiftingFamilyChoice

    forced = LiftingFamilyChoice(d0=ch_nn.d0, d1=ch_nn.d1,
                                 family=EigenvalueFamily.HALF_INTEGER, case_index=1)
    mode = y_modes_lifting([2], k, N, N, Side.BOTTOM, forced)
    value, derivative = row_functions(mode)
    assert mode.norm_sq[0] == pytest.approx(2.0 / 15.0, rel=1e-14)
    assert mode.dnorm_sq[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert abs(mode.norm_sq[0] - quad_norm_sq(value)) < 1e-12
    assert abs(mode.dnorm_sq[0] - quad_norm_sq(derivative)) < 1e-12


@pytest.mark.parametrize("other", [N, D])
@pytest.mark.parametrize("side", [Side.BOTTOM, Side.TOP])
def test_y_mode_cutoff_dirichlet_polynomial(other, side):
    """At the cutoff a Dirichlet datum's profile solves Y'' = 0: measured
    from the datum side, Y = 1 - (1-alpha)*t, with alpha = 1 when the other
    side is Neumann."""
    k = 2.5 * PI
    forced = LiftingFamilyChoice(d0=0.0, d1=0.0, family=EigenvalueFamily.HALF_INTEGER,
                                 case_index=4)
    bb, bt = (D, other) if side is Side.BOTTOM else (other, D)
    mode = y_modes_lifting([2], k, bb, bt, side, forced)  # mu = 2.5*pi = k
    value, derivative = row_functions(mode)
    assert mode.regime[0] == CUTOFF
    assert np.any(mode.poly[0] != 0) and mode.forward[0] == mode.backward[0] == 0
    alpha = 1.0 if other is N else 0.0
    s = np.linspace(0.0, 1.0, 9)
    from_datum = s if side is Side.BOTTOM else 1.0 - s
    assert np.max(np.abs(value(s) - (1.0 - (1.0 - alpha) * from_datum))) < 1e-15
    datum_end, other_end = (0, 1) if side is Side.BOTTOM else (1, 0)
    assert abs(boundary_residual(mode, D, datum_end, k) - 1.0) < 1e-15
    assert abs(boundary_residual(mode, other, other_end, k)) < 1e-15
    assert mode.norm_sq[0] == pytest.approx(1.0 - 2.0 * (1.0 - alpha) / 3.0, rel=1e-15)
    assert mode.dnorm_sq[0] == 1.0 - alpha
    assert abs(mode.norm_sq[0] - quad_norm_sq(value)) < 1e-12
    assert abs(mode.dnorm_sq[0] - quad_norm_sq(derivative)) < 1e-12


def test_y_mode_propagating_boundary_residuals():
    k = 9.1
    for bb, bt in ((N, N), (N, D), (D, N), (D, D)):
        ch = choose_lifting_family(k, bb, bt)
        for n in (0, 1, 2):
            mode = y_modes_lifting([n], k, bb, bt, Side.BOTTOM, ch)
            datum = boundary_residual(mode, bb, 0, k)
            hom = boundary_residual(mode, bt, 1, k)
            assert abs(datum - 1.0) <= 1e-12 * (1 + mode.z[0] + k)
            assert abs(hom) <= 1e-12 * (1 + mode.z[0] + k)


def test_y_mode_top_datum_reflection():
    k = 9.1
    ch = choose_lifting_family(k, N, D)
    mode = y_modes_lifting([1], k, N, D, Side.TOP, ch)
    # datum rides on the top side through the top operator (Dirichlet here)
    assert abs(boundary_residual(mode, D, 1, k) - 1.0) < 1e-12 * (1 + k)
    assert abs(boundary_residual(mode, N, 0, k)) < 1e-12 * (1 + k)


@pytest.mark.parametrize("bb,bt", [(N, N), (N, D), (D, N), (D, D)])
def test_y_mode_norms_match_quadrature(bb, bt):
    for k in (0.7, 9.1, 44.0):
        ch = choose_lifting_family(k, bb, bt)
        table = y_modes_lifting((0, 3, 17), k, bb, bt, Side.BOTTOM, ch)
        for i in range(len(table)):
            value, derivative = row_functions(table, i)
            assert abs(table.norm_sq[i] - quad_norm_sq(value)) <= 1e-10 * table.norm_sq[i]
            assert abs(table.dnorm_sq[i] - quad_norm_sq(derivative)) <= 1e-10 * table.dnorm_sq[i]


# --------------------------------------------------------------------------
# gap bound
# --------------------------------------------------------------------------


def test_gap_example():
    obs, bound = gap_lower_bound(PI, PI / 2, True)
    assert obs == pytest.approx(abs(PI * math.sqrt(3) / 2 - PI), rel=1e-12)
    assert obs == pytest.approx(0.4209, abs=2e-4)
    assert bound == pytest.approx(0.1438, abs=2e-4)
    assert obs >= bound


def test_gap_mixed_ops_example():
    k = math.sqrt(PI**2 / 2)
    ch = choose_lifting_family(k, D, N)
    obs, bound = gap_lower_bound(k, ch.eigenvalue(0), False)
    assert obs >= bound


def test_gap_postcondition_small_sweep():
    for same in (True, False):
        ops = (N, N) if same else (D, N)
        for k in np.geomspace(0.05, 200.0, 40):
            ch = choose_lifting_family(float(k), *ops)
            for n in range(0, 64, 7):
                obs, bound = gap_lower_bound(float(k), ch.eigenvalue(n), same)
                assert obs >= bound


# --------------------------------------------------------------------------
# proof quantities
# --------------------------------------------------------------------------


def test_theta_examples():
    fam = BasisFamily.SIN_INT
    k = fam.eigenvalue(2)
    pq = proof_quantities(2, k, I, Side.LEFT, fam)
    assert pq.theta == pytest.approx((2 * k**2 + 9) / (3 * k**2 + 12), rel=1e-14)
    pq = proof_quantities(2, k, N, Side.RIGHT, fam)
    assert pq.theta == pytest.approx((2 / 3) * k**2 + 3, rel=1e-14)


def test_proof_quantities_match_mode_assembly():
    """The densities equal the exact exponential integrals of the same mode
    (mode_from_amplitudes), which do not use the closed-form norms."""
    rng = np.random.default_rng(42)
    fams = list(BasisFamily)
    checked = 0
    for _ in range(150):
        fam = fams[int(rng.integers(0, 4))]
        n = int(rng.integers(0, 40))
        if fam is BasisFamily.SIN_INT and n == 0:
            n = 1
        k = float(10 ** rng.uniform(-1.3, 2.3))
        b2 = (I, N, D)[int(rng.integers(0, 3))]
        side = Side.LEFT if b2 is I else (Side.LEFT, Side.RIGHT)[int(rng.integers(0, 2))]
        pq = proof_quantities(n, k, b2, side, fam)
        mode = x_modes([n], k, b2, side, fam)
        mu = fam.eigenvalue(n)
        assert pq.value == mode.dnorm_sq[0] + (mu * mu + k * k) * mode.norm_sq[0]
        if mode.regime[0] == CUTOFF:
            continue
        ref = mode_from_amplitudes(k, mu, mode.forward[0], mode.backward[0])
        assembled = ref.dnorm_sq[0] + (mu * mu + k * k) * ref.norm_sq[0]
        assert abs(pq.value - assembled) <= 1e-10 * assembled
        checked += 1
    assert checked > 140


def test_proof_quantity_sweep_bounds_small():
    """Spot versions of the energy-density bounds (full sweep in acceptance)."""
    ks = np.geomspace(0.05, 200.0, 16)
    fam = BasisFamily.COS_INT
    for k in ks:
        k = float(k)
        for n in range(0, 128, 5):
            pq = proof_quantities(n, k, I, Side.LEFT, fam)
            if pq.phi is not None:
                assert pq.phi <= 3 * max(k * k, 1.0) * (1 + 1e-9)
            if pq.psi is not None:
                assert pq.psi <= 3 * (1 + 1e-9)


# --------------------------------------------------------------------------
# mode tables
# --------------------------------------------------------------------------

X_PROBLEMS = [(b2, side) for b2 in (I, N, D) for side in (Side.LEFT, Side.RIGHT)]
LIFT_PAIRS = [(bb, bt) for bb in (D, N) for bt in (D, N)]
TABLE_FIELDS = ("n", "mu", "regime", "z", "sigma", "forward", "backward", "poly",
                "norm_sq", "dnorm_sq")

#: Exact cutoffs of either eigenvalue lattice: j*pi/2 is n*pi or (n+1/2)*pi.
cutoff_k = st.integers(1, 160).map(lambda j: j * PI / 2)
#: Relative gaps inside (1e-9) and just outside (1e-7 and up) the cutoff band.
near_cutoff_k = st.builds(
    lambda k, gap, sign: k * math.sqrt(1.0 + sign * gap),
    cutoff_k, st.sampled_from([1e-9, 1e-7, 1e-6, 1e-4]), st.sampled_from([-1.0, 1.0]),
)
wavenumbers = st.one_of(
    st.floats(-1.3, 2.4).map(lambda e: 10.0**e), cutoff_k, near_cutoff_k
)


def amplitude_scale(sigma, a, b):
    """||X||^2 with the two exponentials' magnitudes added instead of their
    values: the size of the terms mode_from_amplitudes sums.  Its rounding
    error is ~1e-16 of this, which near a cutoff, where large amplitudes
    cancel, exceeds 1e-12 of the norm itself."""
    r = -sigma.real
    e_same = 1.0 if r == 0 else -math.expm1(-2.0 * r) / (2.0 * r)
    return (abs(a) ** 2 + abs(b) ** 2) * e_same + 2.0 * abs(a) * abs(b) * math.exp(-r)


def assert_rows_match_exact_integrals(table):
    exponential = np.flatnonzero(table.regime != CUTOFF)
    for i in exponential:
        a, b, sigma = complex(table.forward[i]), complex(table.backward[i]), complex(table.sigma[i])
        ref = mode_from_amplitudes(table.k, float(table.mu[i]), a, b)
        scale = amplitude_scale(sigma, a, b)
        for got, want, size in ((table.norm_sq[i], ref.norm_sq[0], scale),
                                (table.dnorm_sq[i], ref.dnorm_sq[0], abs(sigma) ** 2 * scale)):
            assert abs(got - want) <= 1e-12 * max(got, size), (table.k, int(table.n[i]))


def assert_row_equals(whole, n, one):
    """Row n of `whole` equals the one-row table `one`, bit for bit."""
    for field in TABLE_FIELDS:
        assert np.array_equal(getattr(whole, field)[n], getattr(one, field)[0]), (field, n)


def build_or_error(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("family", list(BasisFamily))
@settings(max_examples=12, deadline=None)
@given(k=wavenumbers)
def test_x_table_rows_match_exact_integrals(family, k):
    for b2, side in X_PROBLEMS:
        assert_rows_match_exact_integrals(x_modes(range(257), k, b2, side, family))


@pytest.mark.parametrize("bb,bt", LIFT_PAIRS)
@settings(max_examples=12, deadline=None)
@given(k=wavenumbers)
def test_lifting_table_rows_match_exact_integrals(bb, bt, k):
    choice = choose_lifting_family(k, bb, bt)
    for side in (Side.BOTTOM, Side.TOP):
        table = build_or_error(y_modes_lifting, range(257), k, bb, bt, side, choice)
        if table is ResonantLiftingError:  # the cutoff of a Dirichlet datum
            continue
        assert_rows_match_exact_integrals(table)


@pytest.mark.parametrize("b2,side", X_PROBLEMS)
@settings(max_examples=3, deadline=None)
@given(k=wavenumbers, family=st.sampled_from(list(BasisFamily)))
def test_x_table_equals_one_mode_tables(b2, side, k, family):
    whole = x_modes(range(257), k, b2, side, family)
    for n in range(257):
        assert_row_equals(whole, n, x_modes([n], k, b2, side, family))


@pytest.mark.parametrize("bb,bt", LIFT_PAIRS)
@settings(max_examples=4, deadline=None)
@given(k=wavenumbers, side=st.sampled_from([Side.BOTTOM, Side.TOP]))
def test_lifting_table_equals_one_mode_tables(bb, bt, k, side):
    choice = choose_lifting_family(k, bb, bt)
    whole = build_or_error(y_modes_lifting, range(257), k, bb, bt, side, choice)
    ones = [build_or_error(y_modes_lifting, [n], k, bb, bt, side, choice) for n in range(257)]
    if whole is ResonantLiftingError:
        assert ResonantLiftingError in ones
        return
    for n, one in enumerate(ones):
        assert_row_equals(whole, n, one)


@pytest.mark.parametrize("bb,bt", LIFT_PAIRS)
@pytest.mark.parametrize("lattice", list(EigenvalueFamily))
@pytest.mark.parametrize("j", [1, 2, 3, 7])
def test_lifting_tables_raise_where_one_mode_builds_raise(bb, bt, lattice, j):
    """At exact lattice wavenumbers, with either lattice forced, some modes
    are resonant or Dirichlet-datum cutoffs; the batch raises exactly when a
    one-mode build does, and names one of those modes."""
    k = j * PI / 2
    forced = LiftingFamilyChoice(d0=0.0, d1=0.0, family=lattice, case_index=0)
    for side in (Side.BOTTOM, Side.TOP):
        failing = [n for n in range(12)
                   if build_or_error(y_modes_lifting, [n], k, bb, bt, side, forced)
                   is ResonantLiftingError]
        if failing:
            with pytest.raises(ResonantLiftingError) as info:
                y_modes_lifting(range(12), k, bb, bt, side, forced)
            assert int(re.search(r"mode (\d+) ", str(info.value)).group(1)) in failing
        else:
            y_modes_lifting(range(12), k, bb, bt, side, forced)


def test_tables_reject_what_one_mode_builds_reject():
    fam = BasisFamily.COS_INT
    choice = choose_lifting_family(3.0, N, D)
    bad = [
        (x_modes, ([2, -1], 3.0, D, Side.LEFT, fam)),
        (x_modes, ([2], 3.0, D, Side.TOP, fam)),
        (y_modes_lifting, ([0, -2], 3.0, N, D, Side.BOTTOM, choice)),
        (y_modes_lifting, ([0], 3.0, N, I, Side.BOTTOM, choice)),
        (y_modes_lifting, ([0], 3.0, N, D, Side.LEFT, choice)),
    ]
    for k in (math.nan, math.inf, 0.0, -1.0):
        bad.append((x_modes, ([1], k, D, Side.LEFT, fam)))
        bad.append((y_modes_lifting, ([1], k, N, D, Side.BOTTOM, choice)))
    for build, (ns, *rest) in bad:
        with pytest.raises(ValueError):
            build(ns, *rest)
        with pytest.raises(ValueError):
            for n in ns:
                build([n], *rest)
    # a negative index is named in the error
    with pytest.raises(ValueError, match="got -1"):
        x_modes([2, -1], 3.0, D, Side.LEFT, fam)
    with pytest.raises(ValueError, match="got -2"):
        y_modes_lifting([0, -2], 3.0, N, D, Side.BOTTOM, choice)


def test_empty_tables():
    table = x_modes([], 3.0, I, Side.LEFT, BasisFamily.COS_INT)
    assert len(table) == 0 and table.norm_sq.shape == (0,)
    choice = choose_lifting_family(3.0, N, D)
    assert len(y_modes_lifting([], 3.0, N, D, Side.TOP, choice)) == 0


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_nonfinite_wavenumber_is_rejected_by_name(k):
    with pytest.raises(ValueError, match="k="):
        classify_mode(k, 1.0)
    with pytest.raises(ValueError, match="k="):
        choose_lifting_family(k, N, D)


def test_lattice_eigenvalues_come_from_the_basis_families():
    """A lifting lattice's eigenvalues are those of the basis families on
    it, for scalar and array indices alike."""
    ns = np.arange(9)
    for lattice, basis in ((EigenvalueFamily.INTEGER, BasisFamily.SIN_INT),
                           (EigenvalueFamily.HALF_INTEGER, BasisFamily.COS_HALF)):
        assert np.array_equal(lattice.eigenvalue(ns), basis.eigenvalue(ns))
        assert lattice.eigenvalue(4) == basis.eigenvalue(4)
        with pytest.raises(ValueError, match="got -3"):
            lattice.eigenvalue(np.array([1, -3]))
