"""From-scratch mixed-integer linear programming.

The paper's verification methodology (Cheng et al., ATVA 2017) encodes ReLU
networks as mixed integer linear constraints; this package provides the
solver stack for that encoding:

* :mod:`repro.milp.expr` / :mod:`repro.milp.model` — algebraic modelling
  layer (variables, linear expressions, constraints, objective);
* :mod:`repro.milp.scipy_backend` — the LP engine: a persistent HiGHS
  session that re-solves one LP warm after cost, bound and size edits;
* :mod:`repro.milp.branch_and_bound` — best-first/plunging MILP search
  that branches on the caller's column scores (an encoded network's
  neuron scores; most-fractional without them), with forward-pass
  completion, node/time budgets, proven dual bounds and a leaf-cover
  infeasibility proof on every run.
"""

from repro.milp.branch_and_bound import MILPOptions, solve_milp
from repro.milp.io import model_to_lp, write_lp
from repro.milp.expr import (
    Constraint,
    ConstraintOp,
    LinExpr,
    Sense,
    Variable,
    VarType,
)
from repro.milp.model import Model
from repro.milp.solution import LPResult, MILPResult
from repro.milp.status import SolveStatus

__all__ = [
    "Constraint",
    "ConstraintOp",
    "LinExpr",
    "LPResult",
    "MILPOptions",
    "MILPResult",
    "Model",
    "Sense",
    "SolveStatus",
    "Variable",
    "VarType",
    "solve_milp",
    "model_to_lp",
    "write_lp",
]
