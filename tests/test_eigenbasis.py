"""Bases, projection, and data-norm tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helmstab import eigenbasis
from helmstab.eigenbasis import (
    MAX_MODE,
    BasisFamily,
    BoundaryOperator,
    Spectrum,
    basis_derivative,
    basis_value,
    homogeneous_operators,
    project,
    quadrature_rule,
    select_eigenpairs,
    _contract,
    _fsums,
    _project_samples,
    _weighted_norms,
)

D, N = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN
FAMILIES = list(BasisFamily)


def test_basis_value_examples():
    assert basis_value(BasisFamily.COS_INT, 0, 0.37) == 1.0
    assert basis_value(BasisFamily.SIN_INT, 0, 0.5) == 0.0
    assert basis_value(BasisFamily.SIN_INT, 1, 0.5) == pytest.approx(math.sqrt(2), abs=1e-15)


def _zero_member_zeroed(family, pairs):
    """The pairs with a zero coefficient on the family's zero member, the
    only coefficient a Spectrum takes there."""
    return {n: c if n >= family.first_nonzero else 0j for n, c in pairs.items()}


@pytest.mark.parametrize("family", FAMILIES)
def test_first_nonzero_is_the_first_member_that_is_not_zero(family):
    """Every member below first_nonzero vanishes at every node, the member
    at it does not, and a spectrum drops a zero coefficient below it and
    refuses a nonzero one."""
    t = np.linspace(0.0, 1.0, 33)
    first = family.first_nonzero
    assert np.all(basis_value(family, np.arange(first), t[:, None]) == 0.0)
    assert np.any(basis_value(family, first, t) != 0.0)
    assert Spectrum.from_pairs(family, [(0, 0.0), (2, 1.0)]).n.tolist() == [0, 2][first:]
    if first:
        with pytest.raises(ValueError, match=f"mode 0 of {family.value} is the zero function"):
            Spectrum.from_pairs(family, [(2, 1.0), (0, 1.0)])


@pytest.mark.parametrize("family", FAMILIES)
def test_basis_matrix_equals_member_rows(family):
    """basis_value over an array of modes is the one-member evaluation, bit
    for bit, column by column; negative modes are rejected in both forms."""
    t, _ = quadrature_rule(12)
    ns = np.arange(13)
    matrix = basis_value(family, ns, t[:, None])
    assert matrix.shape == (len(t), 13)
    for n in ns:
        assert np.array_equal(matrix[:, n], basis_value(family, int(n), t))
        assert matrix[3, n] == basis_value(family, int(n), float(t[3]))
    with pytest.raises(ValueError):
        basis_value(family, np.array([0, -1]), t)
    with pytest.raises(ValueError):
        basis_value(family, -1, 0.5)


def test_eigenvalue_rule():
    assert BasisFamily.SIN_INT.eigenvalue(3) == pytest.approx(3 * math.pi)
    assert BasisFamily.COS_INT.eigenvalue(0) == 0.0
    assert BasisFamily.SIN_HALF.eigenvalue(2) == pytest.approx(2.5 * math.pi)
    assert BasisFamily.COS_HALF.eigenvalue(0) == pytest.approx(0.5 * math.pi)


def test_select_eigenpairs_table():
    assert select_eigenpairs(D, D) is BasisFamily.SIN_INT
    assert select_eigenpairs(N, N) is BasisFamily.COS_INT
    assert select_eigenpairs(D, N) is BasisFamily.SIN_HALF
    assert select_eigenpairs(N, D) is BasisFamily.COS_HALF
    with pytest.raises(ValueError):
        select_eigenpairs(BoundaryOperator.IMPEDANCE, D)


def test_homogeneous_operators_invert_select_eigenpairs():
    for family in FAMILIES:
        assert select_eigenpairs(*homogeneous_operators(family)) is family


@pytest.mark.parametrize("shape", [(608, 2, 74), (129, 129, 129), (73, 2, 128)])
def test_contract_against_a_real_operand_is_the_complex_contraction(shape):
    """With one real operand, in either place, the contraction is the
    bytes of numpy's complex einsum with that operand made complex: on
    random data with zeros, signed zeros and negative values, and on the
    layouts the projections and the oracle pass: a transposed complex view,
    (w * samples).T and (reduced * w).T, against a real basis, and coeffs.T
    against basis.T.  On the last, a copy of the complex operand's parts
    that made the summed axis contiguous would change the order of
    summation."""
    rng = np.random.default_rng(11)
    t, i, j = shape

    def complex_data(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        z[rng.random((rows, cols)) < 0.2] = 0.0
        z.real[rng.random((rows, cols)) < 0.1] = -0.0
        z.imag[rng.random((rows, cols)) < 0.1] = 0.0
        return z

    def real_data(rows, cols):
        r = rng.standard_normal((rows, cols))
        r[rng.random((rows, cols)) < 0.2] = 0.0
        r[rng.random((rows, cols)) < 0.1] = -0.0
        return r

    def reference(a, b):
        return np.einsum("ti,tj->ij", a.astype(complex), b.astype(complex), optimize=False)

    z, r = complex_data(t, i), real_data(t, j)
    assert _contract(z, r).tobytes() == reference(z, r).tobytes()
    r2, z2 = real_data(t, i), complex_data(t, j)
    assert _contract(r2, z2).tobytes() == reference(r2, z2).tobytes()
    zt = np.ascontiguousarray(z.T).T  # a transposed view, as (w * samples).T
    assert _contract(zt, r).tobytes() == reference(zt, r).tobytes()
    rt = np.ascontiguousarray(r.T).T  # both transposed, as coeffs.T and basis.T
    assert _contract(zt, rt).tobytes() == reference(zt, rt).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_orthonormality(family):
    t, w = quadrature_rule(32)
    vals = {}
    for n in range(33):
        if family is BasisFamily.SIN_INT and n == 0:
            continue
        vals[n] = basis_value(family, n, t)
    for m, zm in vals.items():
        for n, zn in vals.items():
            got = np.sum(w * zm * zn)
            assert abs(got - (1.0 if m == n else 0.0)) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_derivative_orthogonality(family):
    t, w = quadrature_rule(32)
    for m in range(0, 33, 4):
        if family is BasisFamily.SIN_INT and m == 0:
            continue
        dm = basis_derivative(family, m, t)
        for n in range(0, 33, 4):
            if family is BasisFamily.SIN_INT and n == 0:
                continue
            dn = basis_derivative(family, n, t)
            got = np.sum(w * dm * dn)
            mu_m, mu_n = family.eigenvalue(m), family.eigenvalue(n)
            if m == n:
                if mu_n > 0:
                    assert abs(got - mu_n**2) < 1e-10 * mu_n**2
                else:
                    assert abs(got) < 1e-12
            else:
                assert abs(got) < 1e-10 * max(mu_m * mu_n, 1.0)


def test_project_single_basis_function():
    g = lambda t: basis_value(BasisFamily.SIN_INT, 3, t)
    spec = project(g, BasisFamily.SIN_INT, 8)
    for n, c in spec:
        if n == 3:
            assert abs(c - 1.0) < 1e-12
        else:
            assert abs(c) <= 1e-12


def test_project_constant_against_analytic_and_adaptive_quadrature():
    spec = project(lambda t: 1.0, BasisFamily.SIN_INT, 4)
    for n in range(1, 5):
        analytic = math.sqrt(2) * (1 - (-1) ** n) / (n * math.pi)
        adaptive, _ = quad(lambda t, n=n: math.sqrt(2) * math.sin(n * math.pi * t), 0, 1)
        assert abs(analytic - adaptive) < 1e-13
        assert abs(dict(spec)[n] - analytic) < 1e-13


@pytest.mark.parametrize("family", FAMILIES)
def test_project_samples_match_fsum_reference(family, monkeypatch):
    """The basis-matrix projection of several sample rows at once equals the
    correctly rounded per-mode sums to 1e-14 of the largest coefficient, and
    drops exactly the coefficients that are exactly zero: with the basis in
    one block, in blocks of one mode, and in blocks of 5 modes (the last of
    3 modes)."""
    depth = 72
    t, w = quadrature_rule(depth)
    rows = np.stack([
        np.exp(60j * t) * (1.0 + t * t),
        np.cos(7.3 * t) - 2j * t ** 3,
        np.zeros_like(t, dtype=complex),
    ])
    references = []
    for row in rows:
        reference = {}
        for n in range(depth + 1):
            products = w * row * basis_value(family, n, t)
            c = complex(math.fsum(products.real), math.fsum(products.imag))
            if c != 0:
                reference[n] = c
        references.append(reference)
    for block in (None, 1, 5):
        if block is not None:
            monkeypatch.setattr(eigenbasis, "_PROJECTION_CHUNK", block * len(t))
        projected = _project_samples(rows, family, depth)
        assert len(projected) == len(rows)
        for reference, spectrum in zip(references, projected):
            assert spectrum.family is family
            assert [n for n, _ in spectrum] == sorted(reference)
            scale = max((abs(c) for c in reference.values()), default=0.0)
            for n, c in spectrum:
                assert abs(c - reference[n]) <= 1e-14 * scale
        assert len(projected[2]) == 0
        assert (0 in dict(projected[0])) is (family is not BasisFamily.SIN_INT)


def test_project_zero_gives_empty():
    assert len(project(lambda t: 0.0, BasisFamily.SIN_HALF, 6)) == 0


def test_project_refuses_a_spectrum():
    """project takes only a callable; a Spectrum is refused by its type,
    not passed through with its modes above the depth dropped."""
    s = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0), (5, 2.0), (9, 1j)])
    for family in (BasisFamily.COS_INT, BasisFamily.SIN_INT):
        with pytest.raises(TypeError, match=r"project takes a callable g\(t\), not a Spectrum"):
            project(s, family, 6)


def test_project_rejects_nonfinite_and_cap():
    with pytest.raises(ValueError):
        project(lambda t: math.inf, BasisFamily.SIN_INT, 4)
    with pytest.raises(ValueError):
        project(lambda t: 1.0, BasisFamily.SIN_INT, MAX_MODE + 1)
    for bad_depth in (-1, MAX_MODE + 1):
        with pytest.raises(ValueError):
            quadrature_rule(bad_depth)


def test_spectrum_invariants():
    s = Spectrum.from_pairs(BasisFamily.SIN_INT, [(0, 0.0), (2, 1.0)])
    assert [n for n, _ in s] == [2]  # a zero coefficient on the zero member is dropped
    with pytest.raises(ValueError, match="mode 0 of sin-int is the zero function"):
        Spectrum.from_pairs(BasisFamily.SIN_INT, [(0, 5.0), (2, 1.0)])
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(BasisFamily.SIN_INT, [3, 3], [1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(BasisFamily.SIN_INT, [4, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match="outside"):
        Spectrum(BasisFamily.SIN_INT, [MAX_MODE + 1], [1.0])
    with pytest.raises(ValueError, match="different basis families"):
        s.minus(Spectrum.from_pairs(BasisFamily.COS_INT, [(2, 1.0)]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf),
                                 complex(math.nan, 0.0)])
def test_spectrum_rejects_nonfinite_coefficients(bad):
    with pytest.raises(ValueError, match="mode 3"):
        Spectrum.from_pairs(BasisFamily.COS_INT, [(1, 1.0), (3, bad)])
    with pytest.raises(ValueError, match="mode 0"):
        Spectrum(BasisFamily.SIN_INT, [0], [bad])


def spectrum_norms(s: Spectrum):
    """The L2 and fractional-half norms of a spectrum, as a certificate
    takes them from its coefficients and eigenvalues (_weighted_norms)."""
    return _weighted_norms(np.abs(s.c) ** 2, s.family.eigenvalue(s.n))


def test_spectrum_norms_examples():
    single = Spectrum.from_pairs(BasisFamily.SIN_INT, [(2, 1.0)])
    rep = spectrum_norms(single)
    assert rep.l2 == pytest.approx(1.0, abs=1e-15)
    assert rep.fractional_half == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)

    empty = Spectrum.zero(BasisFamily.COS_HALF)
    rep0 = spectrum_norms(empty)
    assert rep0.l2 == rep0.fractional_half == 0.0

    two = Spectrum.from_pairs(BasisFamily.SIN_INT, [(1, 1.0), (2, 1.0)])
    assert spectrum_norms(two).fractional_half ** 2 == pytest.approx(3 * math.pi, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    pairs=st.dictionaries(
        st.integers(min_value=0, max_value=24),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
)
def test_project_expand_roundtrip(family, pairs):
    s = Spectrum.from_pairs(family, _zero_member_zeroed(family, pairs).items())
    recovered, expected = dict(project(s.expand, family, 24)), dict(s)
    for n in range(25):
        assert abs(recovered.get(n, 0) - expected.get(n, 0)) < 1e-12 * (
            1.0 + max(abs(c) for c in pairs.values())
        )


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.dictionaries(
        st.integers(min_value=0, max_value=16),
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_parseval_identity(pairs):
    s = Spectrum.from_pairs(BasisFamily.COS_HALF, pairs.items())
    t, w = quadrature_rule(32)
    samples = s.expand(t)
    quad_norm_sq = float(np.sum(w * np.abs(samples) ** 2))
    assert spectrum_norms(s).l2 ** 2 == pytest.approx(quad_norm_sq, rel=1e-10, abs=1e-12)


def test_l2_norm_converges_for_smooth_function():
    # g mismatches the family's endpoint conditions, so the modal tail decays
    # algebraically (~1/M in captured energy); the norms must track that.
    g = lambda t: math.exp(-t) * math.sin(2.4 * t + 0.3)
    ref_sq, _ = quad(lambda t: g(t) ** 2, 0, 1, epsabs=1e-14)
    errs = []
    for max_mode in (8, 32, 128):
        rep = spectrum_norms(project(g, BasisFamily.COS_HALF, max_mode))
        errs.append(abs(rep.l2**2 - ref_sq))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2e-4 * ref_sq
    assert errs[0] / errs[2] > 8.0  # consistent with the 1/M energy tail


# --------------------------------------------------------------------------
# array spectra against a plain-dict reference
# --------------------------------------------------------------------------

coefficient_maps = st.dictionaries(
    st.integers(0, 40),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(a=coefficient_maps, b=coefficient_maps, family=st.sampled_from(FAMILIES),
       t=st.floats(0.0, 1.0))
def test_array_spectrum_matches_dict_reference(a, b, family, t):
    """from_pairs, minus, expand and the norms of the array
    Spectrum against the same operations on a dict of Python numbers."""
    a, b = _zero_member_zeroed(family, a), _zero_member_zeroed(family, b)

    def reference(pairs):
        return {n: complex(c) for n, c in pairs.items()
                if not (family is BasisFamily.SIN_INT and n == 0)}

    ra, rb = reference(a), reference(b)
    sa = Spectrum.from_pairs(family, a.items())
    sb = Spectrum.from_pairs(family, reversed(list(b.items())))
    assert list(sa) == sorted(ra.items())
    assert sa.n.dtype == np.int64 and sa.c.dtype == complex
    assert sa.top_mode == max(ra, default=0)
    diff = {n: ra.get(n, 0j) - rb.get(n, 0j) for n in ra.keys() | rb.keys()}
    assert list(sa.minus(sb)) == sorted(diff.items())
    want = sum((c * basis_value(family, n, t) for n, c in ra.items()), 0j)
    scale = 1.0 + sum(abs(c) for c in ra.values())
    assert abs(sa.expand(t) - want) <= 1e-14 * scale
    grid = np.linspace(0.0, 1.0, 5)
    assert np.max(np.abs(sa.expand(grid) - [complex(sa.expand(x)) for x in grid])) <= 1e-14 * scale
    sq = [abs(c) ** 2 for c in ra.values()]
    mu = [family.eigenvalue(n) for n in ra]
    rep = spectrum_norms(sa)
    # numpy's complex abs and Python's hypot may differ in the last bit
    assert rep.l2 == pytest.approx(math.sqrt(math.fsum(sq)), rel=1e-15)
    assert rep.fractional_half == pytest.approx(
        math.sqrt(math.fsum(q * m for q, m in zip(sq, mu))), rel=1e-15)


def test_spectrum_arrays_are_read_only_copies():
    n, c = np.array([1, 4]), np.array([1.0, 2.0j])
    s = Spectrum(BasisFamily.COS_INT, n, c)
    n[0], c[0] = 7, 9.0
    assert list(s) == [(1, 1.0), (4, 2j)]
    with pytest.raises(ValueError):
        s.c[0] = 3.0
    with pytest.raises(ValueError, match="2 mode indices for 1 coefficients"):
        Spectrum(BasisFamily.COS_INT, [1, 2], [1.0])


def test_project_samples_a_callable_in_one_array_call():
    """An array-capable datum is called once, on all quadrature nodes, with
    no probe; a scalar-only one gives the same coefficients."""
    calls = []

    def g(t):
        calls.append(np.shape(t))
        return np.exp(2j * t) * (1.0 + t)

    def scalar_only(t):
        return complex(np.exp(2j * float(t)) * (1.0 + float(t)))

    with pytest.raises(TypeError):
        scalar_only(np.array([0.25, 0.75]))
    depth = 64
    got = project(g, BasisFamily.COS_HALF, depth)
    assert calls == [quadrature_rule(depth)[0].shape]
    ref = project(scalar_only, BasisFamily.COS_HALF, depth)
    assert np.array_equal(got.n, ref.n)
    assert np.max(np.abs(got.c - ref.c)) <= 1e-14 * np.max(np.abs(ref.c))


@pytest.mark.parametrize("family", FAMILIES)
def test_basis_derivative_is_the_calculus_derivative(family):
    """mu times the member a quarter period ahead equals the derivative of
    sqrt(2) sin / sqrt(2) cos written out, for arrays and scalars."""
    t = np.linspace(0.0, 1.0, 33)
    ns = np.arange(0, 40)
    mu = family.eigenvalue(ns)[:, None]
    scale = np.where((ns == 0) & (family is BasisFamily.COS_INT), 1.0, math.sqrt(2.0))[:, None]
    if family in (BasisFamily.SIN_INT, BasisFamily.SIN_HALF):
        want = scale * mu * np.cos(mu * t)
    else:
        want = -scale * mu * np.sin(mu * t)
    got = basis_derivative(family, ns[:, None], t)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert float(basis_derivative(family, 3, float(t[13]))) == pytest.approx(got[3, 13], rel=1e-13)


# --------------------------------------------------------------------------
# correctly rounded row sums
# --------------------------------------------------------------------------

def _fsums_reference(a):
    """One math.fsum per row: the reference _fsums must equal bit for bit."""
    if a.ndim == 1:
        return math.fsum(a.tolist())
    return np.array([math.fsum(row) for row in a.tolist()])


@pytest.fixture
def fsum_calls(monkeypatch):
    """The rows _fsums hands to math.fsum, as lists."""
    from types import SimpleNamespace

    from helmstab import eigenbasis

    calls = []
    monkeypatch.setattr(eigenbasis, "math", SimpleNamespace(
        fsum=lambda row: calls.append(row) or math.fsum(row)))
    return calls


_HALF = 2.0 ** -53  # half a spacing above 1.0, a quarter below 2.0
_MAX = float(np.finfo(float).max)

#: Rows whose pairwise sum can miss the correctly rounded one: exact ties,
#: sums just off a tie or just below a power of two, subnormal sums, zeros
#: of either sign, and cancelling mixed signs.
_ADVERSARIAL = [
    [1.0, _HALF], [1.0, 3 * _HALF], [-1.0, -_HALF],
    [1.0, _HALF, 2.0 ** -200], [1.0, _HALF, -2.0 ** -200], [1.0, 2.0 ** -200, _HALF],
    [1.0 + 2 * _HALF, _HALF, -2.0 ** -200], [1.0 + 2 * _HALF, _HALF, 2.0 ** -200],
    [2.0, -_HALF], [2.0, -_HALF, -2.0 ** -200], [2.0, -_HALF, 2.0 ** -200],
    [2.0, -_HALF / 2, -2.0 ** -300], [2.0, -_HALF / 2, 2.0 ** -300], [4.0, -2 * _HALF],
    [2.0 ** -1074], [2.0 ** -1074, 2.0 ** -1074, -2.0 ** -1073, 2.0 ** -1074],
    [2.0 ** -1022, -2.0 ** -1074], [1e-310, 3e-310, -2e-310], [2.0 ** -1022, 2.0 ** -1074],
    [0.0], [-0.0], [0.0, 0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, -0.0, -0.0, -0.0],
    [1e16, 1.0, -1e16], [1e100, 1.0, -1e100, 1e-100], [1.0, -1.0, 2.0 ** -1074],
    [0.1, 0.2, 0.3, -0.6], [1.0, -1.0], [3.0, -1e-17, 1e-17, -4 * _HALF],
    [1e300, 1e-300, -1e300, 1e-300],
]


def _rows_of_width(width: int, rng: np.random.Generator) -> np.ndarray:
    """Each adversarial row that fits in `width` columns, forwards and
    backwards, at random columns among zeros; and at width 4 or more rows
    whose exact sum is a tie, or a tie moved by 2^-150 of half a spacing,
    hidden among terms that cancel."""
    rows = []
    for terms in _ADVERSARIAL:
        for ordered in (terms, terms[::-1]):
            if len(ordered) <= width:
                row = np.zeros(width)
                row[np.sort(rng.permutation(width)[:len(ordered)])] = ordered
                rows.append(row)
    for _ in range(200 if width >= 4 else 0):
        x = float(rng.uniform(1.0, 2.0)) * 2.0 ** int(rng.integers(-60, 60))
        t = float(rng.standard_normal()) * 2.0 ** int(rng.integers(-40, 80))
        h = float(np.spacing(x)) / 2 * float(rng.choice([-1.0, 1.0]))
        terms = [x, h, t, -t, h * 2.0 ** -150 * float(rng.choice([-1.0, 0.0, 1.0]))]
        row = np.zeros(width)
        row[rng.permutation(width)[:len(terms)]] = terms
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 64, 768])
def test_fsums_are_fsum_bit_for_bit_on_adversarial_rows(width):
    """Every row of a matrix sums to math.fsum's float, sign of zero
    included, on rows built to defeat a pairwise sum, and on random rows of
    mixed signs over 60 decades with 10% zeros."""
    rng = np.random.default_rng(width)
    rows = _rows_of_width(width, rng)
    assert _fsums(rows).tobytes() == _fsums_reference(rows).tobytes()
    mixed = rng.standard_normal((500, width)) * 10.0 ** rng.uniform(-30, 30, (500, width))
    mixed[rng.random(mixed.shape) < 0.1] = 0.0
    assert _fsums(mixed).tobytes() == _fsums_reference(mixed).tobytes()


@pytest.mark.parametrize("width", [4, 5, 768])
@pytest.mark.parametrize("terms", [
    [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 2.0], [math.inf, -math.inf],
    [math.inf, math.nan], [1e308, 1e308], [1e308, 1e308, -1e308, 0.0],
    [_MAX, 2.0 ** 969, 2.0 ** 969, -2.0 ** 960], [-_MAX, -2.0 ** 969, -2.0 ** 969, 2.0 ** 960],
], ids=repr)
def test_fsums_of_nonfinite_or_overflowing_rows_are_fsums(terms, width):
    """A row with a NaN or an infinity, or whose sum overflows in fsum,
    gives fsum's value or raises fsum's exception type.  fsum overflows on
    1e308 + 1e308 - 1e308 + 0, whose pairwise sum is finite at these
    widths, and on the largest float + 2^969 + 2^969 - 2^960, whose
    correctly rounded sum is the largest float."""
    rows = np.zeros((2, width))
    rows[0, :2] = 1.0, 2.0
    rows[1, :len(terms)] = terms
    try:
        want = _fsums_reference(rows).tobytes()
    except (ValueError, OverflowError) as error:
        with pytest.raises(type(error)):
            _fsums(rows)
    else:
        assert _fsums(rows).tobytes() == want


def test_fsums_take_fsum_only_for_the_exact_ties_of_random_rows(fsum_calls):
    """Nonnegative rows, like the squared moduli times weights every
    caller sums, are summed without math.fsum except where the exact sum
    is a tie, which needs fsum's round-half-even: 2 of these 800 rows of
    64 or 768 terms (uniform draws have few significant bits)."""
    from fractions import Fraction

    rng = np.random.default_rng(5)
    for width in (64, 768):
        rows = rng.random((400, width)) * 10.0 ** rng.uniform(-20, 20, (400, 1))
        assert _fsums(rows).tobytes() == _fsums_reference(rows).tobytes()
    assert len(fsum_calls) == 2
    for row in fsum_calls:
        near = math.fsum(row)
        assert abs(sum(map(Fraction, row)) - Fraction(near)) == Fraction(np.spacing(near)) / 2


def test_fsums_leave_a_zero_sum_to_fsum(fsum_calls):
    """A row that sums to 0 takes fsum's zero, whose sign depends on the
    Python: fsum([-0.0]) is 0.0 up to 3.11 and -0.0 from 3.12."""
    rows = np.array([[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
    assert _fsums(rows).tobytes() == _fsums_reference(rows).tobytes()
    assert fsum_calls == rows.tolist()
