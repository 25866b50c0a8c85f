"""Numeric tolerances shared by the whole verification stack.

Every epsilon that decides a *semantic* question — "is this point
feasible", "is this value integral", "did these bounds cross" — lives
here under one name, so the solver, the encoder and the static auditor
(:mod:`repro.analysis.audit`) agree on what the words mean.  A bound the
encoder certifies with ``BOUND_CROSS_TOL`` slack is exactly the bound
the auditor re-checks; a point branch-and-bound adopts as its incumbent
is one ``Model.is_feasible`` accepts under ``INCUMBENT_TOL``.

Scattered inline constants drift: before this module, the MILP layer
used three different ``1e-6``/``1e-9`` literals for the same feasibility
question, and the bounds layer a fourth.  Add new tolerances here, not
inline.

The constants fall into two families:

* **semantic tolerances** (``FEASIBILITY_TOL``, ``INTEGRALITY_TOL``,
  ``GAP_TOL``, ``REGION_TOL``, ``BOUND_CROSS_TOL``) — decide what counts
  as feasible / integral / crossed;
* **safety margins** (``BOUND_MARGIN``) — slack deliberately *added*
  (e.g. to big-M coefficients) rather than compared against.
"""

from __future__ import annotations

#: Absolute slack under which ``lower > upper`` is treated as numerical
#: noise rather than genuinely crossed bounds (``LayerBounds``, the
#: auditor's bound checks).
BOUND_CROSS_TOL = 1e-9

#: Constraint/bound feasibility slack for *semantic* feasibility checks:
#: the default of ``Model.is_feasible`` and ``Constraint.satisfied``.
FEASIBILITY_TOL = 1e-6

#: Bound, row and integrality slack under which branch-and-bound adopts
#: a point as its incumbent (``Model.is_feasible(x, tol=INCUMBENT_TOL)``).
#: Looser than ``FEASIBILITY_TOL``: an LP vertex carries the simplex's
#: own primal residuals, and a rejected integral leaf ends the search as
#: ``error``.
INCUMBENT_TOL = 1e-5

#: Objective improvement a candidate must show over the incumbent
#: before branch-and-bound runs the feasibility check on it.
INCUMBENT_IMPROVEMENT_TOL = 1e-12

#: Slack under which a branching child's domain counts as non-empty
#: (a down child needs ``floor(x_j) >= lb_j - BRANCH_DOMAIN_TOL``).
BRANCH_DOMAIN_TOL = 1e-9

#: Distance from the nearest integer under which a value counts as
#: integral (which LP points branch-and-bound branches on, the auditor's
#: phase checks).  An integral leaf then still has to pass
#: ``Model.is_feasible`` under ``INCUMBENT_TOL``.
INTEGRALITY_TOL = 1e-6

#: Absolute best-bound-vs-incumbent gap at which branch-and-bound
#: declares optimality.
GAP_TOL = 1e-6

#: Membership slack for input regions (``InputRegion.contains``) and
#: runtime monitors.
REGION_TOL = 1e-6

#: Slack *added* to every certified big-M bound by the encoder so LP
#: round-off can never make a genuinely feasible activation infeasible.
BOUND_MARGIN = 1e-6

#: Slack allowed between a bound claimed by a proof certificate and the
#: value the independent checker (:mod:`repro.proof.check`) reproduces
#: by replaying the back-substitution chain with plain matrix
#: arithmetic.  Covers float round-off between the emitting engine and
#: the replay, nothing more.
PROOF_REPLAY_TOL = 1e-6

#: Minimum strict slack a Farkas certificate must exhibit
#: (``lower_bound(yᵀA·x) > yᵀb`` by at least this much) before the
#: checker accepts the claimed LP infeasibility.  Matches HiGHS's
#: default primal feasibility tolerance (1e-7) so the checker never
#: accepts what the solver would call feasible.
PROOF_FARKAS_TOL = 1e-7

#: Dual-sign slack: a certificate dual multiplier on a ``<=`` row may be
#: negative by at most this much (numerical noise) before the checker
#: rejects it as dual-infeasible.
PROOF_DUAL_TOL = 1e-7

#: Narrowest input-box dimension the region-bisection driver
#: (:mod:`repro.analysis.split`) is allowed to split.  A dimension whose
#: width is below ``2 * SPLIT_MIN_WIDTH`` would produce a child narrower
#: than this floor, so it falls through to the MILP instead of recursing
#: — this is the degenerate-split guard (pinned features have exactly
#: zero width and must never be bisected).
SPLIT_MIN_WIDTH = 1e-4
