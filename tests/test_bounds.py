"""Theorem constants, certificates, sharpness cases, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.bounds import (
    SHARPNESS_IDS,
    THEOREMS,
    TheoremId,
    certify,
    rhs_bound,
    sharpness_case,
    sweep,
)
from helmstab.eigenbasis import (
    BasisFamily,
    BoundaryOperator,
    DataNormReport,
    Spectrum,
)
from helmstab.modal1d import Side
from helmstab.solver import (
    BoundaryConfig,
    energy_parseval,
    evaluate,
    solve_datum,
)

D, N, I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE
PI = math.pi


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------


def test_rhs_examples():
    unit = DataNormReport(1.0, 0.0, 0.0)
    assert rhs_bound(TheoremId.T1_G4, 2.0, unit) == pytest.approx(2 * math.sqrt(12), rel=1e-15)
    assert rhs_bound(TheoremId.T1_G4, 0.5, unit) == pytest.approx(math.sqrt(12), rel=1e-15)
    assert rhs_bound(TheoremId.T2_G2_DIR, 1.0, unit) == pytest.approx(math.sqrt(14), rel=1e-15)


def test_rhs_constants():
    norms = DataNormReport(1.0, 1.0, 0.0)
    k = 3.0
    assert rhs_bound(TheoremId.T2_G2_IMP, k, norms) == pytest.approx(math.sqrt(12) * k)
    assert rhs_bound(TheoremId.T2_G2_NEU, k, norms) == pytest.approx(math.sqrt(20) * k * k)
    assert rhs_bound(TheoremId.T2_G2_DIR, k, norms) == pytest.approx(
        math.sqrt(14) * (k * k + math.sqrt(k))
    )
    assert rhs_bound(TheoremId.TF_SOURCE, k, norms) == pytest.approx(math.sqrt(30) * k * k)
    assert rhs_bound(TheoremId.T3_LIFT_NEU, k, norms) == pytest.approx(2 * math.sqrt(717) * k)
    assert rhs_bound(TheoremId.T3_LIFT_DIR, k, norms) == pytest.approx(
        2 * math.sqrt(43) * (k * k + math.sqrt(k))
    )


def test_rhs_requires_fractional_norm():
    with pytest.raises(ValueError):
        rhs_bound(TheoremId.T2_G2_DIR, 1.0, DataNormReport(1.0, math.nan, math.nan))


@settings(max_examples=40, deadline=None)
@given(
    theorem=st.sampled_from(list(TheoremId)),
    k=st.floats(min_value=0.05, max_value=200.0),
    l2=st.floats(min_value=0.0, max_value=50.0),
    half=st.floats(min_value=0.0, max_value=50.0),
    bump=st.floats(min_value=1e-6, max_value=10.0),
)
def test_rhs_monotone_in_norms(theorem, k, l2, half, bump):
    base = rhs_bound(theorem, k, DataNormReport(l2, half, 0.0))
    more_l2 = rhs_bound(theorem, k, DataNormReport(l2 + bump, half, 0.0))
    assert more_l2 > base
    if theorem in (TheoremId.T2_G2_DIR, TheoremId.T3_LIFT_DIR):
        more_half = rhs_bound(theorem, k, DataNormReport(l2, half + bump, 0.0))
        assert more_half > base


def test_rhs_continuous_at_unit_wavenumber():
    norms = DataNormReport(1.0, 1.0, 1.0)
    for theorem in TheoremId:
        below = rhs_bound(theorem, 1.0 - 1e-9, norms)
        above = rhs_bound(theorem, 1.0 + 1e-9, norms)
        assert abs(below - above) < 1e-7 * above


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


def test_certify_plane_wave():
    k = 3 * PI
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    data = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, -2j * k)])
    cert = certify(TheoremId.T1_G4, cfg, data, k)
    assert cert.passed
    assert cert.lhs == pytest.approx(2 * k, rel=1e-12)
    assert cert.rhs == pytest.approx(math.sqrt(12) * k * 2 * k, rel=1e-12)


def test_certify_zero_data():
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    cert = certify(TheoremId.T1_G4, cfg, Spectrum.zero(BasisFamily.COS_INT), 2.0)
    assert cert.passed and cert.lhs == 0.0 and cert.ratio == 0.0


def test_certify_example_ratio():
    case = sharpness_case("ex2.3-2", 4)
    cert = certify(case.theorem, case.config, case.datum, case.k)
    assert cert.passed
    assert cert.ratio == pytest.approx(2 * math.sqrt(2) / (PI * math.sqrt(12)), rel=1e-10)
    assert cert.ratio == pytest.approx(0.25990, abs=1e-4)


def test_certify_hypothesis_mismatch():
    cfg = BoundaryConfig(bottom=N, right=N, top=N)
    data = Spectrum.from_pairs(BasisFamily.COS_INT, [(1, 1.0)])
    with pytest.raises(ValueError):
        certify(TheoremId.T2_G2_IMP, cfg, data, 2.0)
    with pytest.raises(ValueError):
        certify(TheoremId.T3_LIFT_DIR, cfg, data, 2.0)
    with pytest.raises(ValueError):
        certify(TheoremId.TF_SOURCE, cfg, [], 2.0)


def _broken_configs():
    """(theorem, side, config) for each operator a theorem requires: a config
    with every other required operator in place and this one replaced."""
    for theorem, row in THEOREMS.items():
        for name in ("right", "bottom"):
            want = getattr(row, name)
            if want is None:
                continue
            ops = {"bottom": row.bottom or N, "right": row.right or D, "top": N}
            ops[name] = N if want is D else D
            yield theorem, name, BoundaryConfig(**ops)


@pytest.mark.parametrize("theorem,side,cfg", list(_broken_configs()),
                         ids=lambda v: getattr(v, "value", None))
def test_certify_names_the_theorem_and_side_of_a_broken_operator(theorem, side, cfg):
    data = [] if THEOREMS[theorem].side is None else Spectrum.zero(BasisFamily.COS_INT)
    with pytest.raises(ValueError, match=rf"{theorem.value} requires the {side} operator"):
        certify(theorem, cfg, data, 2.0)


# --------------------------------------------------------------------------
# sharpness cases
# --------------------------------------------------------------------------


def test_sharpness_case_side_is_its_theorems_side():
    """Each case's datum sits on its theorem's side: the left for the
    Theorem 1 examples, the right for Theorem 2's, the bottom for lifting."""
    expected = {"ex2.3": Side.LEFT, "ex2.5": Side.RIGHT, "lift-": Side.BOTTOM}
    theorems = set()
    for case_id in SHARPNESS_IDS:
        case = sharpness_case(case_id, 2)
        assert case.data_side is THEOREMS[case.theorem].side is expected[case_id[:5]]
        theorems.add(case.theorem)
    # every theorem but the impedance-right and source bounds has an example
    assert theorems == set(TheoremId) - {TheoremId.T2_G2_IMP, TheoremId.TF_SOURCE}


def test_sharpness_case_values():
    case = sharpness_case("ex2.3-2", 1, BasisFamily.SIN_INT)
    assert case.k == pytest.approx(math.sqrt(PI**2 + PI**2 / 4), rel=1e-15)
    assert case.expected_energy == pytest.approx(2 * math.sqrt(2) / PI * case.k, rel=1e-15)

    case = sharpness_case("ex2.5-dirichlet", 3)
    assert case.expected_energy == pytest.approx(
        math.sqrt(2) / PI * math.sqrt(case.k**4 + PI**2 * case.k**2), rel=1e-15
    )

    case = sharpness_case("ex2.3-1", 1, BasisFamily.SIN_INT)
    k = math.sqrt(2) * PI
    assert case.k == pytest.approx(k, rel=1e-15)
    assert case.expected_energy == pytest.approx(
        (math.sqrt(2) / 2) * k * math.sqrt(1 / PI**2 + 1 / k**2), rel=1e-15
    )


def test_sharpness_unknown_id():
    with pytest.raises(ValueError):
        sharpness_case("ex9.9", 1)
    with pytest.raises(ValueError):
        sharpness_case("ex2.3-1", 0)
    with pytest.raises(ValueError):
        sharpness_case("lift-nn", 2, BasisFamily.SIN_HALF)


@pytest.mark.parametrize("case_id", SHARPNESS_IDS)
def test_sharpness_transcription_consistency(case_id):
    """Transcribed solution: correct datum trace, energy, and solver match."""
    fams = ([BasisFamily.SIN_INT, BasisFamily.COS_HALF] if case_id.startswith("ex")
            else [BasisFamily.SIN_INT, BasisFamily.COS_INT])
    for fam in fams:
        for n in (1, 3):
            case = sharpness_case(case_id, n, fam)
            rep = energy_parseval(case.exact)
            if case.expected_energy is not None:
                assert rep.energy == pytest.approx(case.expected_energy, rel=1e-11)
            else:
                esq = rep.grad_norm**2 + case.k**2 * rep.l2_norm**2
                assert esq == pytest.approx(case.expected_energy_sq, rel=1e-10)
                assert rep.energy >= case.lower_bound
            sol = solve_datum(case.config, case.data_side, case.datum, case.k)
            pts = [(x, y) for x in np.linspace(0, 1, 5) for y in np.linspace(0, 1, 5)]
            a = evaluate(case.exact, pts)
            b = evaluate(sol, pts)
            scale = max(1.0, np.max(np.abs(a[0])))
            assert np.max(np.abs(a[0] - b[0])) < 1e-8 * scale


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


SHARPNESS_FLOORS = {
    # certificate ratio floors implied by each example's energy formula,
    # valid for every admissible mode index (k > 1 throughout)
    "ex2.3-1": math.sqrt(2) / (2 * PI) / math.sqrt(12),
    "ex2.3-2": (2 * math.sqrt(2) / PI) / math.sqrt(12),
    "ex2.3-3": (math.sqrt(2) / PI) / math.sqrt(12),
    "ex2.5-neumann": (4 * math.sqrt(2) / PI**2) / math.sqrt(20),
    "ex2.5-dirichlet": (math.sqrt(2) / PI) / (2 * math.sqrt(14)),
    "lift-nn": (2 * math.sqrt(2) / PI) / (2 * math.sqrt(717)),
    "lift-nd": (math.sqrt(2) / PI) / (2 * math.sqrt(717)),
    "lift-dn": 9 * PI**2 / (2 * math.sqrt(2) * (9 * PI**2 + 4)) / (2 * math.sqrt(43)),
    "lift-dd": PI**2 / (2 * math.sqrt(2) * (PI**2 + 1)) / (2 * math.sqrt(43)),
}


@pytest.mark.parametrize("case_id,floor", sorted(SHARPNESS_FLOORS.items()))
def test_sharpness_floor(case_id, floor):
    """Some mode below 32 certifies at or above the example's implied ratio."""
    best = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        case = sharpness_case(case_id, n)
        cert = certify(case.theorem, case.config, case.datum, case.k)
        assert cert.passed
        best = max(best, cert.ratio)
    assert best >= floor * (1 - 1e-9)


def test_zero_trial_sweep_vacuous():
    rep = sweep(TheoremId.T1_G4, [1.0, 2.0], modes=8, trials=0, seed=1)
    assert rep.all_passed and rep.certificates == 0 and rep.max_ratio == 0.0


def test_sweep_reports_every_failing_certificate(monkeypatch):
    """A failing certificate lands in the report with its full record."""
    from helmstab import bounds as bounds_mod

    real_rhs = bounds_mod.rhs_bound

    def sabotaged(theorem, k, norms):
        return real_rhs(theorem, k, norms) * 1e-6

    monkeypatch.setattr(bounds_mod, "rhs_bound", sabotaged)
    rep = sweep(TheoremId.T1_G4, [2.0], modes=4, trials=2, seed=0)
    assert not rep.all_passed and len(rep.failures) == 2
    assert all(not c.passed and c.lhs > c.rhs for c in rep.failures)


def test_sweep_reproduces_case_ratio():
    case = sharpness_case("ex2.3-2", 2)
    cert = certify(case.theorem, case.config, case.datum, case.k)
    rep = sweep(TheoremId.T1_G4, [case.k], modes=8, trials=4, seed=3)
    assert rep.all_passed
    # the single-mode extremal datum is the documented worst case; random
    # unit-norm data cannot beat it by more than roundoff
    assert rep.max_ratio <= cert.ratio * 1.35


def test_sweep_small_grid_all_theorems():
    ks = np.geomspace(0.05, 200.0, 6)
    for theorem in TheoremId:
        grid = [0.5, 5.0] if theorem is TheoremId.TF_SOURCE else ks
        rep = sweep(theorem, grid, modes=12, trials=4, seed=9)
        assert rep.all_passed, (theorem, rep.failures[:1])
        assert rep.max_ratio <= 1.0


def test_sweep_deterministic():
    ks = [0.7, 7.0]
    a = sweep(TheoremId.T2_G2_DIR, ks, modes=8, trials=3, seed=21)
    b = sweep(TheoremId.T2_G2_DIR, ks, modes=8, trials=3, seed=21)
    assert a.all_passed
    assert a.max_ratio == b.max_ratio and a.argmax_k == b.argmax_k


def test_certify_rejects_datum_modes_above_truncation():
    """Modes {0, 40} with truncation 10 used to certify mode 0 alone against
    the norm of both (lhs 1.0 against l2 sqrt 2)."""
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    data = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0), (40, 1.0)])
    with pytest.raises(ValueError, match="mode 40.*truncation 10"):
        certify(TheoremId.T1_G4, cfg, data, 2.0, truncation=10)
    assert certify(TheoremId.T1_G4, cfg, data, 2.0, truncation=40).passed
    # a zero coefficient above the truncation drops nothing
    zero_tail = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0), (40, 0.0)])
    assert certify(TheoremId.T1_G4, cfg, zero_tail, 2.0, truncation=10).passed
    lifted = BoundaryConfig(bottom=N, right=D, top=D)
    with pytest.raises(ValueError, match="mode 12.*truncation 3"):
        certify(TheoremId.T3_LIFT_NEU, lifted,
                Spectrum.from_pairs(BasisFamily.COS_INT, [(1, 1.0), (12, 1.0)]), 2.0,
                truncation=3)
    source_cfg = BoundaryConfig(bottom=D, right=D, top=D)
    with pytest.raises(ValueError, match="mode 9.*truncation 4"):
        certify(TheoremId.TF_SOURCE, source_cfg, [(1, np.cos), (9, np.cos)], 2.0,
                truncation=4)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_certify_and_sweep_reject_nonfinite_k(k):
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    data = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0)])
    with pytest.raises(ValueError, match="k="):
        certify(TheoremId.T1_G4, cfg, data, k)
    for theorem in (TheoremId.T1_G4, TheoremId.T3_LIFT_DIR, TheoremId.TF_SOURCE):
        with pytest.raises(ValueError, match="k="):
            sweep(theorem, [1.0, k], modes=4, trials=1)


def test_source_certificate_is_homogeneous_in_the_source():
    """Both sides of the source bound scale with the source, so a sweep may
    certify its random draws as drawn: the ratio of a source and of the same
    source divided by a constant agree to rounding."""
    cfg = BoundaryConfig(D, D, N)
    source = [(0, lambda x: (1.0 + 2.0j) + np.sin(3.0 * np.asarray(x))),
              (3, lambda x: np.asarray(x) ** 2 - 0.5j)]
    for k in (0.5, 5.0, 60.0):
        raw = certify(TheoremId.TF_SOURCE, cfg, source, k)
        scaled = certify(TheoremId.TF_SOURCE, cfg,
                         [(n, lambda x, f=f: f(x) / 7.25) for n, f in source], k)
        assert raw.ratio == pytest.approx(scaled.ratio, rel=1e-12)
        assert raw.passed is scaled.passed is True
