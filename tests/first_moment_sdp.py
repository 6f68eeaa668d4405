"""The first-moment SDP route, used only by the test suite.

The phase-1 program over I, L1, L2, L3 alone, with the second moments left
free, decides the first-moment law |l| <= j as an SDP.  It is the closed
form's independent partner: ``feasibility.first_moment_test`` and the
first-moment stage of ``classify`` decide the same law without a solve.  The
operators are the package's pair lifts (``feasibility._moment_operator_set``),
so the route keeps the cone cap and the input checks of the direct program.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from spinmoment import feasibility, sdp, spinalg
from spinmoment.matcore import BOUNDARY_BAND

_FIRST_MOMENTS = [0, 7, 8, 9]  # I, L1, L2, L3 within MOMENT_LABELS
_FIRST_MOMENT_LABELS = tuple(spinalg.MOMENT_LABELS[i] for i in _FIRST_MOMENTS)
STAGE = "exact-first-moment"


@lru_cache(maxsize=None)
def _first_moment_program(two_j: int) -> sdp.Phase1Program:
    """The dependency pass over I, L1, L2, L3, complex, cached per spin; the
    operator stack raises the cone-cap ``ValueError`` first."""
    return sdp.phase1_program(feasibility._moment_operator_set(two_j)[_FIRST_MOMENTS])


def exact_test_first_moments(ell, two_j: int) -> feasibility.Verdict:
    """First-moment feasibility via the SDP route, second moments left free.

    The verdict is read as the direct program's: an accept carries the primal
    X, a reject the dual as its witness over the four labels, of value -t*,
    and the stage's seconds include the solve.
    """
    two_j = spinalg._check_two_j(two_j)
    values = np.concatenate([[1.0], feasibility._first_moment_vector(ell)])
    log = feasibility._StageLog()
    p1 = sdp.phase1_min_t(_first_moment_program(two_j), values)
    if p1.dual_z is None:
        raise ArithmeticError(f"phase-1 SDP did not converge: {p1.solution.message}")
    t = p1.t_star
    detail = f"t_star = {t:.3e}, {p1.solution.iterations} iterations, gap {p1.solution.gap:.0e}, optimum"
    if t > BOUNDARY_BAND:
        log.add(STAGE, "reject", detail)
        c = p1.dual_coefficients
        witness = feasibility.Witness(p1.dual_z, float(c @ values), c, _FIRST_MOMENT_LABELS)
        return feasibility._rejected(STAGE, witness, log, t, "optimum")
    status = feasibility.STATUS_BOUNDARY if abs(t) <= BOUNDARY_BAND else feasibility.STATUS_QUANTUM
    log.add(STAGE, "boundary" if status == feasibility.STATUS_BOUNDARY else "accept", detail)
    return feasibility.Verdict(status, STAGE, t, p1.x, None, log.done(), "optimum")
