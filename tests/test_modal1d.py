"""1D modal solutions: norms, residuals, regimes, lifting selection."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.eigenbasis import BasisFamily, BoundaryOperator, Spectrum
from helmstab.modal1d import (
    CUTOFF,
    EVANESCENT,
    PROPAGATING,
    ModeTable,
    ResonantLiftingError,
    Side,
    choose_lifting_family,
    energy_densities,
    gap_lower_bound,
    mode_table,
    _regimes,
)
from helmstab.oracle import fdm_solve
from helmstab.solver import BoundaryConfig, solve_datum, solve_source
from transcribed import mode_from_amplitudes

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


def amplitudes(table, i=0):
    """Row i's (forward, backward) amplitudes of e^{sigma t} and
    e^{sigma (1-t)}: A a + B d with d = (e^{sigma (1+t)} - e^{sigma (1-t)})/(2 sigma)."""
    a, b, sigma = complex(table.A[i]), complex(table.B[i]), complex(table.sigma[i])
    backward = -b / (2.0 * sigma)
    return a - backward * complex(np.exp(sigma)), backward


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


def regime(k, mu):
    """The regime code and sigma of the one mode mu at k."""
    code, sigma = _regimes(k, np.array([mu]))
    return code[0], complex(sigma[0])


def test_regime_examples():
    code, sigma = regime(2 * PI, PI)
    assert code == PROPAGATING
    assert abs(sigma) / (2 * PI) == pytest.approx(math.sqrt(3) / 2, rel=1e-15)

    code, sigma = regime(PI, PI)
    assert code == CUTOFF
    assert sigma == 0.0

    code, sigma = regime(1.0, PI)
    assert code == EVANESCENT
    assert -sigma.real == pytest.approx(math.sqrt(PI**2 - 1), rel=1e-15)


def test_cutoff_tolerance_band():
    k = 10.0
    assert regime(k, k * (1 + 1e-9))[0] == CUTOFF
    assert regime(k, k * (1 + 1e-7))[0] == EVANESCENT
    with pytest.raises(ValueError):
        energy_densities([1], 0.0, I, Side.LEFT, BasisFamily.COS_INT)


# --------------------------------------------------------------------------
# x modes
# --------------------------------------------------------------------------


def test_plane_wave_mode():
    k = 3.7
    mode = mode_table([0], k, (I, I), Side.LEFT, BasisFamily.COS_INT)
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
    mode = mode_table([n], k, (I, b2), side, family)
    value, derivative = row_functions(mode)
    assert abs(mode.norm_sq[0] - quad_norm_sq(value)) <= 1e-10 * mode.norm_sq[0]
    assert abs(mode.dnorm_sq[0] - quad_norm_sq(derivative)) <= 1e-10 * mode.dnorm_sq[0]


@pytest.mark.parametrize("b2,side", CASES)
def test_x_mode_boundary_conditions(b2, side):
    k = 6.1
    for n, family in ((1, BasisFamily.SIN_INT), (4, BasisFamily.COS_HALF)):
        mode = mode_table([n], k, (I, b2), side, family)
        datum_at_left = 1.0 if side is Side.LEFT else 0.0
        assert abs(boundary_residual(mode, I, 0, k) - datum_at_left) < 1e-10 * (1 + k)
        assert abs(boundary_residual(mode, b2, 1, k) - (1.0 - datum_at_left)) < 1e-10 * (1 + k)


@pytest.mark.parametrize("b2,side", CASES)
def test_x_mode_ode_residual(b2, side):
    """Fourth-order finite differences of the closed form satisfy the ODE."""
    k, n, family = 8.3, 2, BasisFamily.COS_INT
    value, _ = row_functions(mode_table([n], k, (I, b2), side, family))
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

    assert theta(mode_table([n], k, (I, I), Side.LEFT, fam)) == pytest.approx(
        (2 * k**2 + 9) / (3 * k**2 + 12), rel=1e-12
    )
    assert theta(mode_table([n], k, (I, N), Side.LEFT, fam)) == pytest.approx(2.0, rel=1e-12)
    assert theta(mode_table([n], k, (I, D), Side.LEFT, fam)) == pytest.approx(
        (2 * k**2 + 3) / (3 * k**2 + 3), rel=1e-12
    )
    assert theta(mode_table([n], k, (I, N), Side.RIGHT, fam)) == pytest.approx(
        (2 / 3) * k**2 + 3, rel=1e-12
    )
    assert theta(mode_table([n], k, (I, D), Side.RIGHT, fam)) == pytest.approx(
        k**2 * (2 * k**2 + 9) / (3 * (k**2 + 1)), rel=1e-12
    )


def test_x_mode_continuity_across_cutoff():
    fam = BasisFamily.SIN_INT
    n = 2
    mu = fam.eigenvalue(n)
    cut = mode_table([n], mu, (I, D), Side.LEFT, fam)
    assert cut.regime[0] == CUTOFF
    for relgap, tol in ((1e-4, 1e-3), (1e-6, 1e-5)):
        for sign in (+1, -1):
            k = mu * math.sqrt(1.0 + sign * relgap)
            near = mode_table([n], k, (I, D), Side.LEFT, fam)
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
                mode = mode_table([n], k, (I, b2), side, fam)
                value, derivative = row_functions(mode)
                assert abs(mode.norm_sq[0] - quad_norm_sq(value)) <= 1e-10 * mode.norm_sq[0]
                assert abs(mode.dnorm_sq[0] - quad_norm_sq(derivative)) <= 1e-10 * mode.dnorm_sq[0]


def test_mode_from_amplitudes_matches_lemma_norms():
    k, n, family = 7.7, 1, BasisFamily.COS_INT
    mode = mode_table([n], k, (I, I), Side.LEFT, family)
    rebuilt = mode_from_amplitudes(k, family.eigenvalue(n), *amplitudes(mode))
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
    assert ch.basis is BasisFamily.COS_HALF and ch.case_index == 1
    assert ch.d0 == pytest.approx(0.0, abs=1e-12)

    ch = choose_lifting_family(math.sqrt(PI**2 / 2), D, D)
    assert ch.basis is BasisFamily.COS_INT and ch.case_index == 2

    ch = choose_lifting_family(math.sqrt(PI**2 / 2), D, N)
    assert ch.basis is BasisFamily.COS_INT and ch.case_index == 3

    # d0 = pi^2 |k^2/pi^2 - 1| lies strictly between pi^2/8 and 3 pi^2/8
    ch = choose_lifting_family(3.5, D, N)
    assert ch.basis is BasisFamily.COS_HALF and ch.case_index == 4


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
    assert ch.basis is BasisFamily.COS_HALF
    mode = mode_table([2], k, (N, D), Side.BOTTOM, ch.basis)  # mu = 2.5*pi = k
    assert mode.regime[0] == CUTOFF and mode.sigma[0] == 0
    assert (mode.A[0], mode.B[0]) == (1.0, -1.0)  # Y = 1 - t in the pair {1, t}
    assert mode.norm_sq[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert mode.dnorm_sq[0] == pytest.approx(1.0, rel=1e-14)

    # force the half-integer lattice, which the choice avoids for N/N here
    assert choose_lifting_family(k, N, N).basis is BasisFamily.COS_INT
    # Neumann on both sides at the cutoff is resonant: constants solve the
    # homogeneous problem, and Y'' = 0 has no solution with Y'(0) = -1, Y'(1) = 0.
    with pytest.raises(ResonantLiftingError, match="mode 2 "):
        mode_table([2], k, (N, N), Side.BOTTOM, BasisFamily.COS_HALF)


@pytest.mark.parametrize("other", [N, D])
@pytest.mark.parametrize("side", [Side.BOTTOM, Side.TOP])
def test_y_mode_cutoff_dirichlet_polynomial(other, side):
    """At the cutoff a Dirichlet datum's profile solves Y'' = 0: measured
    from the datum side, Y = 1 - (1-alpha)*t, with alpha = 1 when the other
    side is Neumann."""
    k = 2.5 * PI
    bb, bt = (D, other) if side is Side.BOTTOM else (other, D)
    mode = mode_table([2], k, (bb, bt), side, BasisFamily.COS_HALF)  # mu = 2.5*pi = k
    value, derivative = row_functions(mode)
    assert mode.regime[0] == CUTOFF and mode.sigma[0] == 0
    alpha = 1.0 if other is N else 0.0
    # Y = A + B t in the pair {1, t}
    assert (mode.A[0], mode.B[0]) == ((1.0, alpha - 1.0) if side is Side.BOTTOM
                                      else (alpha, 1.0 - alpha))
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
            mode = mode_table([n], k, (bb, bt), Side.BOTTOM, ch.basis)
            datum = boundary_residual(mode, bb, 0, k)
            hom = boundary_residual(mode, bt, 1, k)
            assert abs(datum - 1.0) <= 1e-12 * (1 + abs(mode.sigma[0]) + k)
            assert abs(hom) <= 1e-12 * (1 + abs(mode.sigma[0]) + k)


def test_y_mode_top_datum_reflection():
    k = 9.1
    ch = choose_lifting_family(k, N, D)
    mode = mode_table([1], k, (N, D), Side.TOP, ch.basis)
    # datum rides on the top side through the top operator (Dirichlet here)
    assert abs(boundary_residual(mode, D, 1, k) - 1.0) < 1e-12 * (1 + k)
    assert abs(boundary_residual(mode, N, 0, k)) < 1e-12 * (1 + k)


@pytest.mark.parametrize("bb,bt", [(N, N), (N, D), (D, N), (D, D)])
def test_y_mode_norms_match_quadrature(bb, bt):
    for k in (0.7, 9.1, 44.0):
        ch = choose_lifting_family(k, bb, bt)
        table = mode_table((0, 3, 17), k, (bb, bt), Side.BOTTOM, ch.basis)
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
    obs, bound = gap_lower_bound(k, ch.basis.eigenvalue(0), False)
    assert obs >= bound


def test_gap_postcondition_small_sweep():
    for same in (True, False):
        ops = (N, N) if same else (D, N)
        for k in np.geomspace(0.05, 200.0, 40):
            ch = choose_lifting_family(float(k), *ops)
            for n in range(0, 64, 7):
                obs, bound = gap_lower_bound(float(k), ch.basis.eigenvalue(n), same)
                assert obs >= bound


# --------------------------------------------------------------------------
# energy densities
# --------------------------------------------------------------------------


def test_theta_examples():
    fam = BasisFamily.SIN_INT
    k = fam.eigenvalue(2)
    theta, code = energy_densities([2], k, I, Side.LEFT, fam)
    assert code[0] == CUTOFF
    assert theta[0] == pytest.approx((2 * k**2 + 9) / (3 * k**2 + 12), rel=1e-14)
    theta, code = energy_densities([2], k, N, Side.RIGHT, fam)
    assert code[0] == CUTOFF
    assert theta[0] == pytest.approx((2 / 3) * k**2 + 3, rel=1e-14)


def test_energy_densities_match_mode_assembly():
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
        density, code = energy_densities([n], k, b2, side, fam)
        mode = mode_table([n], k, (I, b2), side, fam)
        mu = fam.eigenvalue(n)
        assert density[0] == mode.dnorm_sq[0] + (mu * mu + k * k) * mode.norm_sq[0]
        assert code[0] == mode.regime[0]
        if mode.regime[0] == CUTOFF:
            continue
        ref = mode_from_amplitudes(k, mu, *amplitudes(mode))
        assembled = ref.dnorm_sq[0] + (mu * mu + k * k) * ref.norm_sq[0]
        assert abs(density[0] - assembled) <= 1e-10 * assembled
        checked += 1
    assert checked > 140


def test_energy_density_sweep_bounds_small():
    """Spot versions of the energy-density bounds (full sweep in acceptance)."""
    ks = np.geomspace(0.05, 200.0, 16)
    fam = BasisFamily.COS_INT
    for k in ks:
        k = float(k)
        density, code = energy_densities(range(0, 128, 5), k, I, Side.LEFT, fam)
        assert np.all(density[code == PROPAGATING] <= 3 * max(k * k, 1.0) * (1 + 1e-9))
        assert np.all(density[code == EVANESCENT] <= 3 * (1 + 1e-9))


# --------------------------------------------------------------------------
# mode tables
# --------------------------------------------------------------------------

X_PROBLEMS = [(b2, side) for b2 in (I, N, D) for side in (Side.LEFT, Side.RIGHT)]
LIFT_PAIRS = [(bb, bt) for bb in (D, N) for bt in (D, N)]
TABLE_FIELDS = tuple(field.name for field in dataclasses.fields(ModeTable))

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
        (a, b), sigma = amplitudes(table, i), complex(table.sigma[i])
        ref = mode_from_amplitudes(float(table.k[i]), float(table.mu[i]), a, b)
        scale = amplitude_scale(sigma, a, b)
        for got, want, size in ((table.norm_sq[i], ref.norm_sq[0], scale),
                                (table.dnorm_sq[i], ref.dnorm_sq[0], abs(sigma) ** 2 * scale)):
            assert abs(got - want) <= 1e-12 * max(got, size), (table.k[i], int(table.n[i]))


def assert_row_equals(whole, n, one):
    """Row n of `whole` equals the one-row table `one`, bit for bit."""
    for field in TABLE_FIELDS:
        got, want = getattr(whole, field), getattr(one, field)
        if np.ndim(got):
            got, want = got[n], want[0]
        assert np.array_equal(got, want), (field, n)


def table_or_error(*args):
    try:
        return mode_table(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("family", list(BasisFamily))
@settings(max_examples=12, deadline=None)
@given(k=wavenumbers)
def test_x_table_rows_match_exact_integrals(family, k):
    for b2, side in X_PROBLEMS:
        assert_rows_match_exact_integrals(mode_table(range(257), k, (I, b2), side, family))


@pytest.mark.parametrize("bb,bt", LIFT_PAIRS)
@settings(max_examples=12, deadline=None)
@given(k=wavenumbers)
def test_lifting_table_rows_match_exact_integrals(bb, bt, k):
    basis = choose_lifting_family(k, bb, bt).basis
    for side in (Side.BOTTOM, Side.TOP):
        assert_rows_match_exact_integrals(mode_table(range(257), k, (bb, bt), side, basis))


@pytest.mark.parametrize("b2,side", X_PROBLEMS)
@settings(max_examples=3, deadline=None)
@given(k=wavenumbers, family=st.sampled_from(list(BasisFamily)))
def test_x_table_equals_one_mode_tables(b2, side, k, family):
    whole = mode_table(range(257), k, (I, b2), side, family)
    for n in range(257):
        assert_row_equals(whole, n, mode_table([n], k, (I, b2), side, family))


@pytest.mark.parametrize("bb,bt", LIFT_PAIRS)
@settings(max_examples=4, deadline=None)
@given(k=wavenumbers, side=st.sampled_from([Side.BOTTOM, Side.TOP]))
def test_lifting_table_equals_one_mode_tables(bb, bt, k, side):
    basis = choose_lifting_family(k, bb, bt).basis
    whole = table_or_error(range(257), k, (bb, bt), side, basis)
    ones = [table_or_error([n], k, (bb, bt), side, basis) for n in range(257)]
    if whole is ResonantLiftingError:
        assert ResonantLiftingError in ones
        return
    for n, one in enumerate(ones):
        assert_row_equals(whole, n, one)


def assert_rows_equal(table, rows, part):
    """The rows `rows` of `table` are the table `part`, every field bit for
    bit."""
    for field in TABLE_FIELDS:
        got, want = getattr(table, field), getattr(part, field)
        assert np.array_equal(got[rows] if np.ndim(got) else got, want), field


#: 67 geometric wavenumbers and the exact cutoffs of both lattices below 20.
STACK_KS = [*np.geomspace(0.05, 200.0, 67).tolist(), *(j * PI / 2 for j in range(1, 13))]

#: Per lattice (half-integer or not): the sine family and its members, the
#: cosine family and its members, and the rows of the cosine table that
#: hold the sine members.
LATTICES = {
    False: (BasisFamily.SIN_INT, np.arange(1, 65), BasisFamily.COS_INT, np.arange(65),
            slice(1, 65)),
    True: (BasisFamily.SIN_HALF, np.arange(64), BasisFamily.COS_HALF, np.arange(64),
           slice(0, 64)),
}


def test_sine_tables_are_rows_of_the_cosine_table_of_their_lattice():
    """A row depends on its eigenvalue alone, and the sine and cosine
    families of a lattice have the same eigenvalues, so the sine table is
    rows of the cosine table, bit for bit: what lets a sweep certify both
    families of a lattice from one build."""
    for k in STACK_KS:
        for sin, sin_ns, cos, cos_ns, rows in LATTICES.values():
            for b2, side in ((I, Side.LEFT), (N, Side.LEFT), (D, Side.RIGHT)):
                assert_rows_equal(mode_table(cos_ns, k, (I, b2), side, cos), rows,
                                  mode_table(sin_ns, k, (I, b2), side, sin))
        for bb, bt in LIFT_PAIRS:
            sin, sin_ns, cos, cos_ns, rows = LATTICES[
                choose_lifting_family(k, bb, bt).basis.half_integer]
            whole = table_or_error(cos_ns, k, (bb, bt), Side.BOTTOM, cos)
            part = table_or_error(sin_ns, k, (bb, bt), Side.BOTTOM, sin)
            if ResonantLiftingError in (whole, part):
                assert whole is part is ResonantLiftingError, (k, bb, bt)
                continue
            assert_rows_equal(whole, rows, part)


@pytest.mark.parametrize("bb,bt", LIFT_PAIRS)
@pytest.mark.parametrize("lattice", [BasisFamily.COS_INT, BasisFamily.COS_HALF])
@pytest.mark.parametrize("j", [1, 2, 3, 7])
def test_lifting_tables_raise_where_one_mode_builds_raise(bb, bt, lattice, j):
    """At exact lattice wavenumbers, with either lattice forced, some modes
    are resonant (Neumann/Neumann cutoffs among them); the batch raises
    exactly when a one-mode build does, and names one of those modes."""
    k = j * PI / 2
    for side in (Side.BOTTOM, Side.TOP):
        failing = [n for n in range(12)
                   if table_or_error([n], k, (bb, bt), side, lattice)
                   is ResonantLiftingError]
        if failing:
            with pytest.raises(ResonantLiftingError) as info:
                mode_table(range(12), k, (bb, bt), side, lattice)
            assert int(re.search(r"mode (\d+) ", str(info.value)).group(1)) in failing
        else:
            mode_table(range(12), k, (bb, bt), side, lattice)


def mp_norms(k, sigma, ops, data):
    """||X||^2 and ||X'||^2 of the mode with exponent sigma, solved from its
    two boundary conditions at 40 digits in the basis e^{+-sigma t} ({1, t}
    at sigma = 0) and integrated exactly."""
    with mpmath.workdps(40):
        s, k = mpmath.mpc(sigma.real, sigma.imag), mpmath.mpf(k)
        if s == 0:
            def at(t):  # values and derivatives of 1 and t
                return (1, t), (0, 1)
        else:
            def at(t):
                ep, em = mpmath.exp(s * t), mpmath.exp(-s * t)
                return (ep, em), (s * ep, -s * em)
        rows = []
        for end, op in enumerate(ops):
            values, derivatives = at(mpmath.mpf(end))
            normal = [dv if end else -dv for dv in derivatives]
            rows.append([v if op is D else dn if op is N else dn - 1j * k * v
                         for v, dn in zip(values, normal)])
        c = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(list(data)))
        if s == 0:
            return (abs(c[0]) ** 2 + mpmath.re(mpmath.conj(c[0]) * c[1]) + abs(c[1]) ** 2 / 3,
                    abs(c[1]) ** 2)

        def gram_form(coef):  # int |sum coef_i e^{lam_i t}|^2 over [0, 1]
            total = 0
            for ci, li in zip(coef, (s, -s)):
                for cj, lj in zip(coef, (s, -s)):
                    e = mpmath.conj(li) + lj
                    total += mpmath.conj(ci) * cj * (1 if e == 0 else mpmath.expm1(e) / e)
            return mpmath.re(total)

        return gram_form(c), gram_form([c[0] * s, -c[1] * s])


@pytest.mark.parametrize("j", [1, 2, 5, 11])
def test_table_rows_match_mpmath_through_the_cutoff_band(j):
    """The row at mu = j pi/2 of every x problem and every lifting problem
    on the lattice holding that cutoff, at relative gaps 0 (in the band,
    sigma = 0), +-1e-7, +-1e-6 and +-1e-4, against a 40-digit solve."""
    mu = j * PI / 2
    n = j // 2
    family = BasisFamily.COS_INT if j % 2 == 0 else BasisFamily.COS_HALF
    problems = [((I, b2), side) for b2, side in X_PROBLEMS]
    problems += [((bb, bt), side) for bb, bt in LIFT_PAIRS for side in (Side.BOTTOM, Side.TOP)]
    for gap in (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 1e-4, -1e-4):
        k = mu * math.sqrt(1.0 + gap)
        for ends, side in problems:
            if gap == 0 and ends == (N, N):
                with pytest.raises(ResonantLiftingError, match=f"mode {n} "):
                    mode_table([n], k, ends, side, family)
                continue
            table = mode_table([n], k, ends, side, family)
            assert float(table.mu[0]) == pytest.approx(mu, rel=1e-15)
            assert (table.sigma[0] == 0) == (gap == 0)
            data = (1, 0) if side in (Side.LEFT, Side.BOTTOM) else (0, 1)
            norm_sq, dnorm_sq = mp_norms(k, complex(table.sigma[0]), ends, data)
            density = dnorm_sq + (table.mu[0] ** 2 + k * k) * norm_sq
            case = (gap, ends, side)
            assert abs(table.norm_sq[0] - norm_sq) <= 1e-12 * norm_sq, case
            assert abs(table.dnorm_sq[0] - dnorm_sq) <= 1e-12 * density, case


def test_tables_reject_what_one_mode_builds_reject():
    fam = BasisFamily.COS_INT
    basis = choose_lifting_family(3.0, N, D).basis
    bad = [
        ([2, -1], 3.0, (I, D), Side.LEFT, fam),
        ([0, -2], 3.0, (N, D), Side.BOTTOM, basis),
    ]
    for k in (math.nan, math.inf, 0.0, -1.0):
        bad.append(([1], k, (I, D), Side.LEFT, fam))
        bad.append(([1], k, (N, D), Side.BOTTOM, basis))
    for ns, *rest in bad:
        with pytest.raises(ValueError):
            mode_table(ns, *rest)
        with pytest.raises(ValueError):
            for n in ns:
                mode_table([n], *rest)
    # a negative index is named in the error
    with pytest.raises(ValueError, match="got -1"):
        mode_table([2, -1], 3.0, (I, D), Side.LEFT, fam)
    with pytest.raises(ValueError, match="got -2"):
        mode_table([0, -2], 3.0, (N, D), Side.BOTTOM, basis)


def test_table_ends_are_operators_or_their_values():
    fam = BasisFamily.COS_INT
    assert_rows_equal(mode_table([0, 3], 3.0, ("impedance", "dirichlet"), "left", fam),
                      slice(None), mode_table([0, 3], 3.0, (I, D), Side.LEFT, fam))
    with pytest.raises(ValueError, match="^the operator at t = 1 must be one of "):
        mode_table([1], 3.0, (I, "Dirichlet"), Side.LEFT, fam)
    with pytest.raises(ValueError, match="^the operator at t = 0 must be one of "):
        mode_table([1], 3.0, (None, D), Side.BOTTOM, fam)
    with pytest.raises(ValueError):
        mode_table([1], 3.0, (N, D, D), Side.BOTTOM, fam)


@pytest.mark.parametrize("side", [Side.BOTTOM, Side.TOP])
def test_energy_densities_refuse_a_horizontal_side(side):
    with pytest.raises(ValueError, match="LEFT or RIGHT"):
        energy_densities([1], 3.0, D, side, BasisFamily.COS_INT)


def test_empty_tables():
    table = mode_table([], 3.0, (I, I), Side.LEFT, BasisFamily.COS_INT)
    assert len(table) == 0 and table.norm_sq.shape == (0,)
    basis = choose_lifting_family(3.0, N, D).basis
    assert len(mode_table([], 3.0, (N, D), Side.TOP, basis)) == 0


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, -3.0])
def test_nonfinite_wavenumber_is_rejected_by_name(k):
    with pytest.raises(ValueError, match="k="):
        energy_densities([1], k, I, Side.LEFT, BasisFamily.COS_INT)
    with pytest.raises(ValueError, match="k="):
        choose_lifting_family(k, N, D)
    with pytest.raises(ValueError, match="k="):
        gap_lower_bound(k, 1.0, True)
    with pytest.raises(ValueError, match="k="):
        fdm_solve(BoundaryConfig(N, I, N), k=k, n=17)
    # the solves' default truncation names k before any table is built
    with pytest.raises(ValueError, match="k="):
        solve_datum(BoundaryConfig(N, I, N), Side.LEFT, Spectrum.zero(BasisFamily.COS_INT), k)
    with pytest.raises(ValueError, match="k="):
        solve_source([(1, np.cos)], BoundaryConfig(D, D, D), k)
    # a non-finite or negative transverse eigenvalue is rejected the same way
    mu = -1.0 if k < 0 else k
    with pytest.raises(ValueError, match="mu_tilde="):
        gap_lower_bound(2.0, mu, True)


def test_lifting_basis_is_the_cosine_family_on_the_chosen_lattice():
    """A lifting choice's basis is the cosine family on its lattice, whose
    eigenvalues are n*pi or (n+1/2)*pi."""
    ns = np.arange(9)
    for k in np.geomspace(0.05, 200.0, 40):
        for bb, bt in LIFT_PAIRS:
            basis = choose_lifting_family(float(k), bb, bt).basis
            assert basis in (BasisFamily.COS_INT, BasisFamily.COS_HALF)
            offset = 0.5 if basis.half_integer else 0.0
            assert np.array_equal(basis.eigenvalue(ns), (ns + offset) * PI)
