"""Theorem constants, certificates, sharpness cases, sweeps."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmstab.bounds import (
    SHARPNESS_IDS,
    THEOREMS,
    BoundCertificate,
    TheoremId,
    certify,
    rhs_bound,
    sharpness_case,
    sweep,
    _HORIZONTAL_PAIRS,
    _check_sweep,
    _source_trials,
    _trial_configs,
)
from helmstab.eigenbasis import (
    MAX_MODE,
    BasisFamily,
    BoundaryOperator,
    DataNormReport,
    Spectrum,
)
from helmstab.modal1d import ModeTable, Side, choose_lifting_family, mode_table
from helmstab.solver import (
    BoundaryConfig,
    EnergyReport,
    SourceTable,
    energy_parseval,
    energy_quadrature,
    evaluate,
    solve_datum,
    solve_source,
)
from transcribed import exact_solution

D, N, I = BoundaryOperator.DIRICHLET, BoundaryOperator.NEUMANN, BoundaryOperator.IMPEDANCE
PI = math.pi


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------


def test_rhs_examples():
    unit = DataNormReport(1.0, 0.0)
    assert rhs_bound(TheoremId.T1_G4, 2.0, unit) == pytest.approx(2 * math.sqrt(12), rel=1e-15)
    assert rhs_bound(TheoremId.T1_G4, 0.5, unit) == pytest.approx(math.sqrt(12), rel=1e-15)
    assert rhs_bound(TheoremId.T2_G2_DIR, 1.0, unit) == pytest.approx(math.sqrt(14), rel=1e-15)


def test_rhs_constants():
    norms = DataNormReport(1.0, 1.0)
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
        rhs_bound(TheoremId.T2_G2_DIR, 1.0, DataNormReport(1.0, math.nan))


@settings(max_examples=40, deadline=None)
@given(
    theorem=st.sampled_from(list(TheoremId)),
    k=st.floats(min_value=0.05, max_value=200.0),
    l2=st.floats(min_value=0.0, max_value=50.0),
    half=st.floats(min_value=0.0, max_value=50.0),
    bump=st.floats(min_value=1e-6, max_value=10.0),
)
def test_rhs_monotone_in_norms(theorem, k, l2, half, bump):
    base = rhs_bound(theorem, k, DataNormReport(l2, half))
    more_l2 = rhs_bound(theorem, k, DataNormReport(l2 + bump, half))
    assert more_l2 > base
    if theorem in (TheoremId.T2_G2_DIR, TheoremId.T3_LIFT_DIR):
        more_half = rhs_bound(theorem, k, DataNormReport(l2, half + bump))
        assert more_half > base


def test_rhs_continuous_at_unit_wavenumber():
    norms = DataNormReport(1.0, 1.0)
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


@pytest.mark.parametrize("theorem,cfg,data", [
    (TheoremId.T1_G4, BoundaryConfig(N, I, N), Spectrum.zero(BasisFamily.COS_INT)),
    (TheoremId.T1_G4, BoundaryConfig(N, I, N),
     Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 0.0), (3, 0.0)])),
    (TheoremId.T3_LIFT_DIR, BoundaryConfig(D, D, N), Spectrum.zero(BasisFamily.SIN_INT)),
    (TheoremId.TF_SOURCE, BoundaryConfig(D, D, D), []),
], ids=["T1-zero", "T1-zero-coefficients", "T3_DIR-zero", "TF-no-mode"])
def test_certify_zero_data(theorem, cfg, data):
    """A datum with no nonzero coefficient, or a source with no mode,
    would certify 0 <= 0, a pass that checks nothing: certify refuses it,
    naming the theorem."""
    with pytest.raises(ValueError, match=rf"^{theorem.value} certifies a "):
        certify(theorem, cfg, data, 3.0)


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
    assert case.expected == pytest.approx(2 * math.sqrt(2) / PI * case.k, rel=1e-15)
    assert case.lower_bound is None

    case = sharpness_case("ex2.5-dirichlet", 3)
    assert case.expected == pytest.approx(
        math.sqrt(2) / PI * math.sqrt(case.k**4 + PI**2 * case.k**2), rel=1e-15
    )

    case = sharpness_case("ex2.3-1", 1, BasisFamily.SIN_INT)
    k = math.sqrt(2) * PI
    assert case.k == pytest.approx(k, rel=1e-15)
    assert case.expected == pytest.approx(
        (math.sqrt(2) / 2) * k * math.sqrt(1 / PI**2 + 1 / k**2), rel=1e-15
    )


def test_sharpness_unknown_id():
    with pytest.raises(ValueError, match="unknown sharpness case"):
        sharpness_case("ex9.9", 1)
    for n in (0, MAX_MODE + 1):
        with pytest.raises(ValueError, match=rf"mode index n in \[1, {MAX_MODE}\], got {n}$"):
            sharpness_case("ex2.3-1", n)
    assert sharpness_case("ex2.3-1", MAX_MODE).n == MAX_MODE
    with pytest.raises(ValueError, match="integer-eigenvalue basis"):
        sharpness_case("lift-nn", 2, BasisFamily.SIN_HALF)


#: Each example at n = 3 in SIN_INT as the paper states it: its profile's
#: wavenumber sqrt(k^2 - mu_3^2) and its bottom, right and top operators.
PAPER_EXAMPLES = {
    "ex2.3-1": (PI, (D, I, D)),
    "ex2.3-2": (PI / 2, (D, N, D)),
    "ex2.3-3": (PI, (D, D, D)),
    "ex2.5-neumann": (PI / 2, (D, N, D)),
    "ex2.5-dirichlet": (PI, (D, D, D)),
    "lift-nn": (PI / 2, (N, D, N)),
    "lift-nd": (PI, (N, D, D)),
    "lift-dn": (3.5 * PI + 1 / (3.5 * PI), (D, D, N)),
    "lift-dd": (3 * PI + 1 / (3 * PI), (D, D, D)),
}


def test_sharpness_cases_are_the_papers_examples():
    """The wavenumbers and operators sharpness_case derives from each row of
    EXAMPLES are the ones the paper writes down for that example."""
    assert SHARPNESS_IDS == tuple(PAPER_EXAMPLES)
    for case_id, (w, ops) in PAPER_EXAMPLES.items():
        case = sharpness_case(case_id, 3)
        assert math.sqrt(case.k**2 - (3 * PI) ** 2) == pytest.approx(w, rel=1e-12), case_id
        assert (case.config.bottom, case.config.right, case.config.top) == ops, case_id
    # a vertical-datum example keeps the datum family's own bottom and top
    case = sharpness_case("ex2.3-2", 3, BasisFamily.COS_HALF)
    assert (case.config.bottom, case.config.right, case.config.top) == (N, N, D)


@pytest.mark.parametrize("n", [5000, 10000, 16384])
def test_sharpness_cases_hold_up_to_the_mode_cap(n):
    """Every example matches its closed form to 1e-5 at high modes, whose
    profiles lie within 1e-4 k of the cutoff: the band labelled CUTOFF keeps
    its exponent sigma (it used to be set to 0, an error of about 1).  The
    detuned examples, whose closed form is taken at the rounded k, match to
    1e-8."""
    for case_id in SHARPNESS_IDS:
        case = sharpness_case(case_id, n)
        rep = energy_parseval(solve_datum(case.config, case.data_side, case.datum, case.k))
        computed = case.verdict(rep)[0]
        rel = 1e-5 if case.lower_bound is None else 1e-8
        assert computed == pytest.approx(case.expected, rel=rel), case_id
        if case.lower_bound is not None:
            assert rep.energy >= case.lower_bound


@pytest.mark.parametrize("case_id", SHARPNESS_IDS)
def test_sharpness_verdict_can_fail(case_id):
    """The verdict passes each case's solve at n = 1 and 7 and fails it
    with every norm of its energy report 1e-7 too large; a detuned case
    also fails on an energy just below its lower bound, which only it has."""
    for n in (1, 7):
        case = sharpness_case(case_id, n)
        rep = energy_parseval(solve_datum(case.config, case.data_side, case.datum, case.k))
        assert case.verdict(rep)[2], (case_id, n)
        off = EnergyReport(*(v * (1.0 + 1e-7) for v in dataclasses.astuple(rep)))
        assert not case.verdict(off)[2], (case_id, n)
        assert (case.lower_bound is None) is (case_id not in ("lift-dn", "lift-dd"))
        if case.lower_bound is not None:
            below = dataclasses.replace(rep, energy=math.nextafter(case.lower_bound, 0.0))
            assert case.verdict(below)[:2] == case.verdict(rep)[:2]
            assert not case.verdict(below)[2], (case_id, n)


@pytest.mark.parametrize("case_id", SHARPNESS_IDS)
def test_sharpness_transcription_consistency(case_id):
    """Transcribed solution: correct datum trace, energy, and solver match."""
    fams = ([BasisFamily.SIN_INT, BasisFamily.COS_HALF] if case_id.startswith("ex")
            else [BasisFamily.SIN_INT, BasisFamily.COS_INT])
    for fam in fams:
        for n in (1, 3):
            case = sharpness_case(case_id, n, fam)
            exact = exact_solution(case)
            rep = energy_parseval(exact)
            computed = case.verdict(rep)[0]
            rel = 1e-11 if case.lower_bound is None else 1e-10
            assert computed == pytest.approx(case.expected, rel=rel)
            if case.lower_bound is not None:
                assert rep.energy >= case.lower_bound
            sol = solve_datum(case.config, case.data_side, case.datum, case.k)
            pts = [(x, y) for x in np.linspace(0, 1, 5) for y in np.linspace(0, 1, 5)]
            a = evaluate(exact, pts)
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


@pytest.mark.parametrize("theorem", [TheoremId.T1_G4, TheoremId.T3_LIFT_DIR,
                                     TheoremId.TF_SOURCE], ids=lambda t: t.value)
@pytest.mark.parametrize("name,value", [("k_grid", []), ("trials", 0), ("modes", 0),
                                        ("seed", -1)])
def test_sweep_rejects_a_vacuous_sweep(theorem, name, value):
    """No wavenumbers, no trials or no modes would pass with nothing (or
    only zero data) certified, and a negative seed draws nothing; each
    raises, naming its argument."""
    args = {"k_grid": [1.0, 2.0], "modes": 8, "trials": 3, "seed": 1, name: value}
    with pytest.raises(ValueError, match=name):
        sweep(theorem, **args)


@pytest.mark.parametrize("theorem", [TheoremId.T1_G4, TheoremId.T3_LIFT_DIR],
                         ids=lambda t: t.value)
def test_sweep_rejects_data_past_max_mode(theorem):
    """certify refuses a datum mode past MAX_MODE; a sweep whose data would
    reach past it raises, naming modes, instead of certifying them."""
    with pytest.raises(ValueError, match=f"modes {MAX_MODE + 2} "):
        sweep(theorem, [1.0, 2.0], modes=MAX_MODE + 2, trials=3, seed=1)


def test_sweep_mode_cap_is_the_top_datum_mode():
    """SIN_INT data run 1..modes, the other families 0..modes-1.  At modes =
    MAX_MODE + 1, T1's trial 0 (SIN_INT) reaches past the cap, while
    T3_DIR's first two trials draw cosine data, which end at MAX_MODE."""
    with pytest.raises(ValueError, match=f"puts datum mode {MAX_MODE + 1} "):
        sweep(TheoremId.T1_G4, [1.0], modes=MAX_MODE + 1, trials=1)
    assert sweep(TheoremId.T3_LIFT_DIR, [1.0], modes=MAX_MODE + 1, trials=2).all_passed


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


def _source_draw(rng, modes):
    """One source trial's config and (mode, profile) list, drawn as the
    sweep draws them: an operator pair, the number of modes, the modes, and
    each mode's c then omega."""
    pair = _HORIZONTAL_PAIRS[int(rng.integers(0, 4))]
    cfg = BoundaryConfig(pair[0], D, pair[1])
    start = int(cfg.vertical_family() is BasisFamily.SIN_INT)
    count = int(rng.integers(1, min(6, modes) + 1))
    source = []
    for n in sorted(rng.choice(np.arange(start, start + 12), size=count, replace=False)):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        omega = float(rng.uniform(0.5, 2.5)) * PI
        source.append((int(n), lambda x, c=c, w=omega: c[0] + c[1] * np.sin(w * np.asarray(x))
                       + c[2] * np.asarray(x) ** 2))
    return cfg, source


def _certified_one_by_one(theorem, k_grid, modes, trials, seed):
    """The sweep as one certify call per trial, on the sweep's draws: for
    a boundary theorem real parts then imaginary parts, scaled to unit
    norm; for the source theorem _source_draw's sources."""
    rng = np.random.default_rng(seed)
    cycle = _trial_configs(theorem, trials)
    certs = []
    for k in k_grid:
        for trial in range(trials):
            if THEOREMS[theorem].side is None:
                cfg, source = _source_draw(rng, modes)
                certs.append((trial, certify(theorem, cfg, source, float(k))))
                continue
            cfg, family = cycle[trial % len(cycle)]
            fam = family(float(k))
            start = 1 if fam is BasisFamily.SIN_INT else 0
            coeffs = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
            coeffs /= np.linalg.norm(coeffs)
            data = Spectrum(fam, np.arange(start, start + modes), coeffs)
            certs.append((trial, certify(theorem, cfg, data, float(k))))
    return certs


#: A k on each side of the switch of T3's lifting lattice at k^2 = 2.125 pi^2,
#: a cutoff of the half-integer lattice (mode 2 at k = 2.5 pi) and a k within
#: 1e-10 of the integer lattice's mode 3.
_SWITCH_K = PI * math.sqrt(2.125)
_GROUPED_GRID = [0.05, 0.9, _SWITCH_K * (1 - 1e-9), _SWITCH_K * (1 + 1e-9), 2.5 * PI,
                 3 * PI * (1 + 1e-10), 40.0]


def test_grouped_grid_crosses_the_lifting_switch():
    for top in (D, N):
        below, above = (choose_lifting_family(k, D, top).basis for k in _GROUPED_GRID[2:4])
        assert below is not above


@pytest.mark.parametrize("sabotage", [False, True], ids=["real", "sabotaged"])
@pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
def test_grouped_sweep_equals_certify(theorem, sabotage, monkeypatch):
    """The sweep certifies each k's trials from shared tables; every
    certificate must be certify's, bit for bit.  24 trials repeat T1's
    12-config cycle within a k.  Sabotaged, every certificate fails, so the
    failure lists compare every certificate in full."""
    from helmstab import bounds as bounds_mod

    if sabotage:
        real_rhs = bounds_mod.rhs_bound
        monkeypatch.setattr(bounds_mod, "rhs_bound",
                            lambda theorem, k, norms: real_rhs(theorem, k, norms) * 1e-6)
    rep = sweep(theorem, _GROUPED_GRID, modes=12, trials=24, seed=5)
    ref = _certified_one_by_one(theorem, _GROUPED_GRID, 12, 24, 5)
    best = max(range(len(ref)), key=lambda i: (ref[i][1].ratio, -i))
    assert rep.certificates == len(ref)
    assert rep.max_ratio == ref[best][1].ratio
    assert (rep.argmax_k, rep.argmax_trial) == (ref[best][1].k, ref[best][0])
    assert rep.failures == tuple(cert for _, cert in ref if not cert.passed)
    assert len(rep.failures) == (len(ref) if sabotage else 0)


@pytest.mark.parametrize("sabotage", [False, True], ids=["real", "sabotaged"])
@pytest.mark.parametrize("theorem", [TheoremId.T1_G4, TheoremId.T3_LIFT_DIR,
                                     TheoremId.T2_G2_DIR], ids=lambda t: t.value)
def test_chunked_sweep_equals_the_unchunked_one(theorem, sabotage, monkeypatch):
    """A boundary sweep certifies _SWEEP_CHUNK drawn coefficients' worth of
    k at a time.  Chunks of 1 and of 3 k give the report of one chunk over
    the whole grid; sabotaged, every certificate fails and the failure
    lists compare every certificate."""
    from helmstab import bounds as bounds_mod

    if sabotage:
        real_rhs = bounds_mod.rhs_bound
        monkeypatch.setattr(bounds_mod, "rhs_bound",
                            lambda theorem, k, norms: real_rhs(theorem, k, norms) * 1e-6)
    modes, trials = 12, 24
    assert bounds_mod._SWEEP_CHUNK >= len(_GROUPED_GRID) * trials * modes
    whole = sweep(theorem, _GROUPED_GRID, modes=modes, trials=trials, seed=5)
    assert len(whole.failures) == (whole.certificates if sabotage else 0)
    for ks_per_chunk in (1, 3):
        monkeypatch.setattr(bounds_mod, "_SWEEP_CHUNK", ks_per_chunk * trials * modes)
        assert sweep(theorem, _GROUPED_GRID, modes=modes, trials=trials, seed=5) == whole


def _assert_tables_equal(table, parts):
    """`table` is the tables `parts` stacked, every field bit for bit."""
    for field in dataclasses.fields(ModeTable):
        got = getattr(table, field.name)
        want = np.concatenate([getattr(part, field.name) for part in parts])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name


def test_a_k_per_row_is_the_stacked_one_k_tables():
    """A table with a k per row is the one-k tables of its rows stacked, bit
    for bit: x tables of 3 right operators, both data sides and both
    lattices over the grouped grid, and lifting tables of the 4 bottom/top
    pairs and both data sides over the grid's k on each lattice (the
    lattice that choose_lifting_family picks, as a sweep builds them)."""
    ns = np.arange(13)

    def check(ks, *args):
        whole = mode_table(np.tile(ns, len(ks)), np.repeat(ks, len(ns)), *args)
        _assert_tables_equal(whole, [mode_table(ns, k, *args) for k in ks])

    lattices = (BasisFamily.COS_INT, BasisFamily.COS_HALF)
    for right in (I, N, D):
        for side in (Side.LEFT, Side.RIGHT):
            for cos in lattices:
                check(_GROUPED_GRID, (I, right), side, cos)
    for bottom in (D, N):
        for top in (D, N):
            for cos in lattices:
                ks = [k for k in _GROUPED_GRID
                      if choose_lifting_family(k, bottom, top).basis is cos]
                assert ks
                for side in (Side.BOTTOM, Side.TOP):
                    check(ks, (bottom, top), side, cos)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e200])
def test_a_bad_k_in_a_row_array_is_refused_by_name(bad):
    """Each entry of a k per row is checked as one k is: a bad one raises
    the k= message naming the first bad entry, here before a later -5."""
    ks = [1.0, 2.0, bad, 3.0, -5.0]
    message = re.escape(f"got k={bad!r}") + "$"
    with pytest.raises(ValueError, match=message):
        mode_table(np.arange(5), ks, (I, I), Side.LEFT, BasisFamily.COS_INT)
    with pytest.raises(ValueError, match=message):
        mode_table(np.arange(5), ks, (N, D), Side.BOTTOM, BasisFamily.COS_INT)


def test_sweep_builds_one_table_per_operator_pair_and_lattice(monkeypatch):
    """T1 cycles 12 configs over 3 right operators and both lattices;
    T3_DIR alternates 2 top operators on the one lifting lattice of each k,
    and the grid meets both lattices; T2_NEU has one right operator and
    both lattices.  Each (operator pair, lattice) builds one table over the
    whole grid, a k per row, whatever its trials' basis families: 0..modes
    on the integer lattice and 0..modes-1 on the other, at each k with such
    a trial, so the rows are those of one table per k."""
    from helmstab import modal1d

    rows = []
    real_modes = modal1d._modes

    def counted(n, *args, **kwargs):
        rows.append(len(n))
        return real_modes(n, *args, **kwargs)

    monkeypatch.setattr(modal1d, "_modes", counted)
    ks = np.geomspace(0.05, 200.0, 8)
    for theorem, builds, built in ((TheoremId.T1_G4, 6, 3096),
                                   (TheoremId.T3_LIFT_DIR, 4, 1033),
                                   (TheoremId.T2_G2_NEU, 2, 1032)):
        rows.clear()
        rep = sweep(theorem, ks, trials=20)
        assert rep.certificates == 160 and rep.all_passed
        assert (len(rows), sum(rows)) == (builds, built), theorem


def test_source_sweep_builds_one_source_table_per_k(monkeypatch):
    """A TF sweep builds one SourceTable per k, in grid order, over every
    trial's rows: 50 trials of 1 to 6 modes each."""
    builds = []
    real_init = SourceTable.__init__

    def counted(table, k, mu, f):
        builds.append((k, len(mu)))
        real_init(table, k, mu, f)

    monkeypatch.setattr(SourceTable, "__init__", counted)
    ks = [0.5, 1.0, 5.0, 20.0, 60.0]
    rep = sweep(TheoremId.TF_SOURCE, ks, trials=50)
    assert rep.certificates == 250 and rep.all_passed
    assert [k for k, _ in builds] == ks
    assert all(50 <= rows <= 300 for _, rows in builds)


def test_source_certificates_agree_with_a_resolved_quadrature():
    """Every TF sweep certificate's left side is the Parseval energy of its
    source's solve, and a 65^2 Gauss-Legendre quadrature of the same solve
    agrees with it to 1e-12 relative (about 1.5e-15 is seen).  The 25^2
    rule the certificate once took the max with is off by up to 1.5% at
    k = 60, so this check can fail."""
    sweep_rng, draw_rng = np.random.default_rng(0), np.random.default_rng(0)
    for k in (0.5, 5.0, 20.0, 60.0):
        for lhs in _source_trials(sweep_rng, TheoremId.TF_SOURCE, k, 64, 16).lhs:
            cfg, source = _source_draw(draw_rng, 64)
            u = solve_source(source, cfg, k)
            parseval = energy_parseval(u).energy
            assert lhs == parseval
            assert abs(energy_quadrature(u, 65).energy - parseval) <= 1e-12 * parseval, k


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


def test_no_certificate_has_a_non_finite_side():
    """From k = 1e155 on k^2 overflows; certify and sweep refuse such a k,
    and a certificate refuses a NaN or infinite side instead of reading it
    as a violation."""
    cfg = BoundaryConfig(bottom=N, right=I, top=N)
    data = Spectrum.from_pairs(BasisFamily.COS_INT, [(0, 1.0)])
    with pytest.raises(ValueError, match="k=1e\\+155"):
        certify(TheoremId.T1_G4, cfg, data, 1e155)
    with pytest.raises(ValueError, match="k=1e\\+155"):
        sweep(TheoremId.T1_G4, [1.0, 1e155], modes=4, trials=1)
    norms = DataNormReport(1.0, math.nan)
    for lhs, rhs in ((math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="non-finite side"):
            BoundCertificate.from_sides(TheoremId.T1_G4, 2.0, lhs, rhs, norms)


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


#: The CLI's default grids: 64 geometric k for a boundary theorem, four k for TF.
_DEFAULT_GRID = {TheoremId.T1_G4: np.geomspace(0.05, 200.0, 64).tolist(),
                 TheoremId.T3_LIFT_DIR: np.geomspace(0.05, 200.0, 64).tolist(),
                 TheoremId.TF_SOURCE: [0.5, 1.0, 5.0, 20.0]}


@pytest.mark.parametrize("theorem", list(_DEFAULT_GRID), ids=lambda t: t.value)
def test_every_sweep_certificate_is_the_fsum_reference(theorem, monkeypatch):
    """Every certificate of a default-size sweep (50 trials of 64 modes at
    seed 3), not only the max ratio a report prints, has the lhs, rhs,
    ratio and norms of the same sweep summed by one math.fsum per row, bit
    for bit: every row sum and every source norm goes through _fsums."""
    from test_eigenbasis import _fsums_reference

    from helmstab import bounds as bounds_mod
    from helmstab import eigenbasis, solver

    real_certificate = bounds_mod._certificate

    def certificates():
        got = []
        monkeypatch.setattr(bounds_mod, "_certificate",
                            lambda *args: got.append(real_certificate(*args)) or got[-1])
        assert sweep(theorem, _DEFAULT_GRID[theorem], seed=3).all_passed
        return got

    fast = certificates()
    for module in (eigenbasis, bounds_mod, solver):
        monkeypatch.setattr(module, "_fsums", _fsums_reference)
    reference = certificates()
    assert sum(len(c.lhs) for c in fast) == 50 * len(_DEFAULT_GRID[theorem])
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        for name in ("lhs", "rhs", "ratio"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("l2", "fractional_half"):
            got_norm, want_norm = (np.asarray(getattr(c.datum_norms, name)) for c in (got, want))
            assert got_norm.tobytes() == want_norm.tobytes(), name


@pytest.mark.parametrize("theorem", [TheoremId.T1_G4, TheoremId.T3_LIFT_DIR],
                         ids=lambda t: t.value)
def test_sweep_mode_cap_refusal_text(theorem, capsys):
    """The refusal of data past MAX_MODE on the default grid, word for
    word, from sweep and from the CLI."""
    from helmstab.cli import main

    with pytest.raises(ValueError) as refused:
        sweep(theorem, _DEFAULT_GRID[theorem], modes=16385)
    assert str(refused.value) == "sweep modes 16385 puts datum mode 16385 past the cap 16384"
    assert main(["sweep", "--theorem", THEOREMS[theorem].alias, "--modes", "16385"]) == 1
    assert capsys.readouterr().err == (
        "helmstab: error: --modes 16385 puts datum mode 16385 past the cap 16384\n")


@pytest.mark.parametrize("theorem,modes,cap", [
    (TheoremId.T1_G4, 64, 4096),
    (TheoremId.T3_LIFT_DIR, 1024, 4096),
    (TheoremId.T3_LIFT_DIR, 1025, 4092),
    (TheoremId.T1_G4, 16384, 256),
    (TheoremId.TF_SOURCE, 64, 4096),
    (TheoremId.TF_SOURCE, 16384, 4096),
])
def test_sweep_trials_cap(theorem, modes, cap):
    """A sweep runs at most MAX_TRIALS trials, and a boundary sweep at most
    trials x modes = 2^22 coefficients at one k, which sweep checks before
    it draws anything; the refusal names the cap."""
    _check_sweep(theorem, [5.0], modes, cap, 0)
    with pytest.raises(ValueError) as refused:
        _check_sweep(theorem, [5.0], modes, cap + 1, 0)
    assert str(refused.value) == f"sweep trials: {cap + 1} exceeds the cap {cap} at {modes} modes"
