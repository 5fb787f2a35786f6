"""Hand-transcribed reference solutions, built apart from the solver's tables.

`mode_from_amplitudes` builds a one-row ModeTable from a mode's two
exponential amplitudes with its norms from the exact integrals of the two
exponentials, so it does not share the tables' Gram matrix; the table tests
use it as their reference.  `exact_solution` writes down a sharpness case's
extremal solution as the paper states it, profile by profile.
"""

import cmath
import math

import numpy as np

from helmstab.bounds import SharpnessCase
from helmstab.modal1d import CUTOFF, ModeTable, _check_wavenumber, _phi, _regimes
from helmstab.solver import Block, SeriesSolution


def mode_from_amplitudes(
    k: float, mu: float, forward: complex, backward: complex, n: int = 0
) -> ModeTable:
    """A one-row table of the mode forward e^{sigma t} + backward
    e^{sigma (1-t)}; `n` labels the row, which holds
    A = forward + backward e^sigma and B = -2 sigma backward."""
    k = _check_wavenumber(k)
    mu = np.array([mu], dtype=float)
    code, sigmas = _regimes(k, mu)
    if code[0] == CUTOFF:
        raise ValueError("at the cutoff the two exponentials coincide; amplitudes do not apply")
    a, b, sigma = complex(forward), complex(backward), complex(sigmas[0])
    es = cmath.exp(sigma)
    e_same = complex(_phi(2.0 * sigma.real)).real  # int_0^1 e^{2 Re(sigma) t} dt
    cross = 2.0 * (a * b.conjugate() * es.conjugate() * complex(_phi(sigma - sigma.conjugate()))).real
    norm_sq = (abs(a) ** 2 + abs(b) ** 2) * e_same + cross
    dnorm_sq = abs(sigma) ** 2 * ((abs(a) ** 2 + abs(b) ** 2) * e_same - cross)
    return ModeTable(k, np.array([n], dtype=np.int64), mu, code, sigmas,
                     np.array([a + b * es]), np.array([-2.0 * sigma * b]),
                     np.array([norm_sq]), np.array([dnorm_sq]))


def _trig_profile(w: float, A: complex, B: complex):
    """Mode equal to A sin(w t) + B cos(w t) (propagating, w = k*lam), as
    (forward, backward) amplitudes."""
    c_minus = (B + 1j * A) / 2.0
    return (B - 1j * A) / 2.0, c_minus * cmath.exp(-1j * w)


def _trig_profile_from_end(w: float, A: complex, B: complex):
    """Mode equal to A sin(w (1-t)) + B cos(w (1-t)), as (forward, backward)
    amplitudes."""
    return (B + 1j * A) / 2.0 * cmath.exp(-1j * w), (B - 1j * A) / 2.0


def exact_solution(case: SharpnessCase) -> SeriesSolution:
    """The case's extremal solution 1 * profile * member n of its datum's
    family, the profile a one-row table built from the transcribed
    amplitudes: the x factor for the vertical-datum examples, the y factor
    for the lifting examples."""
    pi, k, n, family = math.pi, case.k, case.n, case.datum.family
    if case.case_id == "ex2.3-1":
        prof = _trig_profile(pi, -1.0 / (2.0 * pi), 1j / (2.0 * k))
    elif case.case_id == "ex2.3-2":
        prof = _trig_profile(pi / 2.0, -2.0 / pi, 0.0)
    elif case.case_id == "ex2.3-3":
        prof = _trig_profile(pi, -1.0 / pi, 0.0)
    elif case.case_id == "ex2.5-neumann":
        prof = _trig_profile(pi / 2.0, 4j * k / pi**2, -2.0 / pi)
    elif case.case_id == "ex2.5-dirichlet":
        prof = _trig_profile(pi, 1j * k / pi, -1.0)
    elif case.case_id == "lift-nn":
        prof = _trig_profile_from_end(pi / 2.0, 0.0, -2.0 / pi)
    elif case.case_id == "lift-nd":
        prof = _trig_profile_from_end(pi, -1.0 / pi, 0.0)
    elif case.case_id == "lift-dn":
        theta = (n + 0.5) * pi
        w = theta + 1.0 / theta
        prof = _trig_profile_from_end(w, 0.0, 1.0 / math.cos(w))
    else:  # lift-dd
        theta = n * pi
        w = theta + 1.0 / theta
        prof = _trig_profile_from_end(w, 1.0 / math.sin(w), 0.0)
    lifted = case.case_id.startswith("lift")
    mu = n * pi if lifted else family.eigenvalue(n)
    profile = mode_from_amplitudes(k, mu, *prof, n=n)
    block = Block(np.array([n], dtype=np.int64), np.ones(1, dtype=complex), profile, family, lifted)
    return SeriesSolution(case.config, k, n, (block,))
