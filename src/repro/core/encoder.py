"""Encoding ReLU networks into mixed integer linear constraints.

This is the formal-verification core of the paper (Sec. III), following
the methodology of Cheng, Nührenberg & Ruess, *Maximum Resilience of
Artificial Neural Networks* (ATVA 2017): each ReLU neuron with
pre-activation bounds ``l <= z <= u`` gets a continuous post-activation
variable ``a`` and a binary phase variable ``d`` with the big-M constraints

    a >= z          a >= 0
    a <= z - l(1-d) a <= u d

so ``d = 1`` forces the active phase (``a = z``) and ``d = 0`` the
inactive one (``a = 0``).  Neurons whose bounds already fix the sign are
encoded *without* a binary — which is why bound tightening
(:mod:`repro.core.bounds`) directly shrinks the search space.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import (
    LayerBounds,
    interval_bounds,
    lp_tightened_bounds,
    total_ambiguous,
)
from repro.core.properties import InputRegion, OutputObjective
from repro.errors import EncodingError
from repro.milp.expr import (
    Constraint,
    ConstraintOp,
    LinExpr,
    Sense,
    Variable,
    VarType,
)
from repro.milp.model import Model
from repro.nn.network import FeedForwardNetwork
from repro.obs.trace import as_tracer
from repro.tolerances import BOUND_MARGIN, SPLIT_MIN_WIDTH

#: Default maximum region-bisection depth; 2**4 = 16 leaves worst case,
#: a good fit for the pool's default worker count.
DEFAULT_SPLIT_DEPTH = 4

#: Every accepted ``EncoderOptions.bound_mode``, loosest to tightest.
BOUND_MODES = ("interval", "symbolic", "lp")


@dataclasses.dataclass
class ReluNeuron:
    """One ambiguous ReLU neuron, as the encoder laid it out.

    ``pre_coeffs``/``pre_const`` give the pre-activation
    ``z = sum(pre_coeffs[j] * x_j) + pre_const`` over model columns (the
    encoding has no explicit ``z`` variable); ``lower``/``upper`` are the
    pre-activation bounds padded by ``bound_margin``: the big-M
    constants of the neuron's rows.
    """

    layer: int
    index: int
    a_col: int
    d_col: int
    pre_coeffs: Dict[int, float]
    pre_const: float
    lower: float
    upper: float


@dataclasses.dataclass
class EncoderOptions:
    """Encoding tunables."""

    #: "interval" (cheap), "symbolic" (DeepPoly back-substitution with
    #: anytime concretisation, provably no looser than interval) or "lp"
    #: (tightest; per-neuron LPs seeded from symbolic bounds — interval →
    #: symbolic → LP; recommended, the paper-scale instances are
    #: intractable without it).  :data:`BOUND_MODES` lists them; any
    #: other value raises :class:`~repro.errors.EncodingError`.
    bound_mode: str = "lp"
    #: Extra slack added to every big-M bound for numerical safety.
    bound_margin: float = BOUND_MARGIN
    #: Try a symbolic static proof before building a MILP for decision
    #: queries (see :meth:`repro.core.verifier.Verifier.prove`).
    static_prescreen: bool = True
    #: Input-region bisection (:mod:`repro.analysis.split`): when the
    #: static prescreen fails, recursively bisect the input box along
    #: the most sensitive dimension, re-prescreen each sub-region and
    #: hand only the survivors to the MILP.  All three knobs are part of
    #: the options token, so verdict fingerprints distinguish split runs
    #: from unsplit ones.
    split: bool = False
    #: Maximum bisection depth (2**depth leaves worst case).
    split_depth: int = DEFAULT_SPLIT_DEPTH
    #: Dimensions narrower than twice this width are never bisected
    #: (floored at :data:`repro.tolerances.SPLIT_MIN_WIDTH`).
    split_min_width: float = SPLIT_MIN_WIDTH
    #: Emit a ``repro-proof/1`` certificate with every VERIFIED verdict
    #: (:mod:`repro.proof`).  Pins the proving pipeline to checkable
    #: paths: fixed-policy symbolic prescreens, and a MILP encoded with
    #: the chain bounds the checker re-derives.  The search itself is
    #: the uncertified one (every search records its leaf cover).
    #: Part of the options token, so certified verdict fingerprints
    #: never collide with uncertified ones.
    certify: bool = False

    def __post_init__(self) -> None:
        if self.bound_mode not in BOUND_MODES:
            raise EncodingError(
                f"unknown bound_mode {self.bound_mode!r} "
                f"(expected one of {BOUND_MODES})"
            )


@dataclasses.dataclass
class EncodedNetwork:
    """The MILP model plus variable maps for interpretation."""

    model: Model
    input_vars: List[Variable]
    output_exprs: List[LinExpr]
    binaries: List[Variable]
    bounds: List[LayerBounds]
    #: Per ambiguous neuron: the ``(z, a, d, l, u)`` layout the encoding
    #: audit checks (``z`` as an affine form over model columns).
    neurons: List[ReluNeuron] = dataclasses.field(default_factory=list)
    #: ``(objective, |lambda|)`` of the last :meth:`_sensitivity` call.
    _sensitivity_cache: Optional[Tuple[LinExpr, np.ndarray]] = (
        dataclasses.field(default=None, init=False, repr=False,
                          compare=False)
    )

    @property
    def num_binaries(self) -> int:
        return len(self.binaries)

    def input_point(self, x: np.ndarray) -> np.ndarray:
        """Extract the input sub-vector from a full MILP solution."""
        return np.array([x[var.index] for var in self.input_vars])

    def complete(self, x: np.ndarray) -> np.ndarray:
        """Complete a model point from its inputs by a forward pass.

        The input columns of ``x`` are clipped into the region's box;
        then, layer by layer, each ambiguous neuron's pre-activation
        ``z`` is evaluated from the columns already filled (one
        matrix-vector product per layer), its ``a`` column set to
        ``max(z, 0)`` and its ``d`` column to ``z > 0``.  The result
        satisfies every ReLU row up to round-off, so it is feasible
        unless a region or ``violation`` row fails, and its objective is
        the network's output at the clipped input.  This is the search's
        primal heuristic (``solve_milp(..., complete=encoded.complete)``).
        """
        inputs, lower, upper, layers = self._forward_layers
        point = np.array(x, dtype=float)
        point[inputs] = np.minimum(np.maximum(point[inputs], lower), upper)
        for pre, const, a_cols, d_cols in layers:
            z = pre @ point + const
            point[a_cols] = np.maximum(z, 0.0)
            point[d_cols] = z > 0.0
        return point

    def branch_scores(self, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Score branching on each phase column in ``cols`` at LP point
        ``x``: how much that neuron's relaxation overestimates the
        objective there.

        A neuron's score is its relaxation gap ``a - max(z, 0)`` at ``x``
        (``z`` from its pre-activation row, one matrix-vector product
        over every ambiguous neuron) times ``|lambda|``, the objective's
        coefficient on its ``a`` column back-substituted through every
        later layer's pre-activation rows, each scaled by that layer's
        triangle slope ``u / (u - l)``.  ``lambda`` depends only on the
        encoding and its objective, so it is computed once per objective.
        This is the search's branching rule
        (``solve_milp(..., branch_scores=encoded.branch_scores)``); the
        directed constraint refinement of Wang et al., "Efficient Formal
        Safety Analysis of Neural Networks".
        """
        pre, const, a_cols, position, _ = self._score_rows
        gap = x[a_cols] - np.maximum(pre @ x + const, 0.0)
        pick = position[cols]
        return gap[pick] * self._sensitivity()[pick]

    @functools.cached_property
    def _score_rows(self) -> Tuple[np.ndarray, ...]:
        """:meth:`branch_scores`' arrays, one entry per ambiguous neuron
        in encoding order: the :attr:`_forward_layers` pre-activation
        rows and constants stacked, the ``a`` columns, each model
        column's neuron (``-1`` off the ``d`` columns) and the triangle
        slopes ``u / (u - l)`` from the padded bounds."""
        neurons = self.neurons
        position = np.full(self.model.num_vars, -1, dtype=int)
        position[[neuron.d_col for neuron in neurons]] = np.arange(
            len(neurons)
        )
        upper = np.array([neuron.upper for neuron in neurons])
        lower = np.array([neuron.lower for neuron in neurons])
        return (
            np.vstack([layer[0] for layer in self._forward_layers[3]]),
            np.array([neuron.pre_const for neuron in neurons]),
            np.array([neuron.a_col for neuron in neurons], dtype=int),
            position,
            upper / (upper - lower),
        )

    def _sensitivity(self) -> np.ndarray:
        """``|lambda|`` per ambiguous neuron for the model's current
        objective (see :meth:`branch_scores`), cached per objective."""
        objective = self.model.objective
        cached = self._sensitivity_cache
        if cached is not None and cached[0] is objective:
            return cached[1]
        pre, _, a_cols, _, slope = self._score_rows
        lam = np.zeros(self.model.num_vars)
        lam[list(objective.coeffs)] = list(objective.coeffs.values())
        # A layer's rows reference only earlier layers' columns, so by the
        # time a layer is reached from the top its ``lambda`` is final.
        stop = len(a_cols)
        for layer in reversed(self._forward_layers[3]):
            start = stop - len(layer[2])
            lam += (lam[a_cols[start:stop]] * slope[start:stop]) @ (
                pre[start:stop]
            )
            stop = start
        sensitivity = np.abs(lam[a_cols])
        self._sensitivity_cache = (objective, sensitivity)
        return sensitivity

    @functools.cached_property
    def _forward_layers(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[tuple]]:
        """:meth:`complete`'s arrays: the input columns and their box,
        then per hidden layer with ambiguous neurons the dense
        pre-activation rows over model columns, their constants and the
        neurons' ``a`` and ``d`` columns."""
        model = self.model
        inputs = np.array([var.index for var in self.input_vars], dtype=int)
        lower = np.array([model.lb[i] for i in inputs], dtype=float)
        upper = np.array([model.ub[i] for i in inputs], dtype=float)
        layers = []
        for _, group in itertools.groupby(
            self.neurons, key=lambda neuron: neuron.layer
        ):
            group = list(group)
            pre = np.zeros((len(group), model.num_vars))
            for row, neuron in zip(pre, group):
                row[list(neuron.pre_coeffs)] = list(
                    neuron.pre_coeffs.values()
                )
            layers.append((
                pre,
                np.array([neuron.pre_const for neuron in group]),
                np.array([neuron.a_col for neuron in group], dtype=int),
                np.array([neuron.d_col for neuron in group], dtype=int),
            ))
        return inputs, lower, upper, layers


def compute_bounds(
    network: FeedForwardNetwork,
    region: InputRegion,
    options: Optional[EncoderOptions] = None,
    tracer=None,
    seed_bounds: Optional[List[LayerBounds]] = None,
) -> List[LayerBounds]:
    """Pre-activation bounds with the configured engine.

    With a tracer attached the computation is wrapped in a ``bounds``
    phase span carrying the engine, region and resulting binary count.
    ``seed_bounds`` may carry the region's
    :func:`~repro.analysis.symbolic.symbolic_bounds` when the caller
    already has them (a prescreen did): the symbolic and LP engines
    start from them instead of recomputing them.
    """
    options = options or EncoderOptions()
    with as_tracer(tracer).span(
        "bounds", mode=options.bound_mode, region=region.name,
        network=network.architecture_id,
    ) as span:
        if options.bound_mode == "interval":
            bounds = interval_bounds(network, region)
        elif options.bound_mode == "symbolic":
            from repro.analysis.symbolic import symbolic_bounds

            bounds = seed_bounds or symbolic_bounds(network, region)
        elif options.bound_mode == "lp":
            # Seed the per-neuron LPs from symbolic bounds: the tighter
            # seed sharpens every triangle relaxation the LPs optimise
            # over (interval -> symbolic -> LP ordering).
            from repro.analysis.symbolic import symbolic_bounds

            bounds = lp_tightened_bounds(
                network, region,
                seed_bounds=seed_bounds or symbolic_bounds(network, region),
            )
        else:
            raise EncodingError(
                f"unknown bound_mode {options.bound_mode!r} "
                f"(expected one of {BOUND_MODES})"
            )
        span.set(binaries_needed=total_ambiguous(bounds, network))
        return bounds


def encode_network(
    network: FeedForwardNetwork,
    region: InputRegion,
    options: Optional[EncoderOptions] = None,
    precomputed_bounds: Optional[List[LayerBounds]] = None,
    tracer=None,
    seed_bounds: Optional[List[LayerBounds]] = None,
) -> EncodedNetwork:
    """Encode ``network`` over ``region`` into a MILP model.

    The model has no objective; callers attach one (a max query) or extra
    constraints (a feasibility/decision query).  With a tracer attached,
    bound computation and model construction are reported as ``bounds``
    and ``encode`` phase spans.  ``seed_bounds`` is passed to
    :func:`compute_bounds` when no ``precomputed_bounds`` are given.
    """
    options = options or EncoderOptions()
    tracer = as_tracer(tracer)
    for layer in network.layers[:-1]:
        if layer.activation != "relu":
            raise EncodingError(
                "the MILP encoding supports ReLU hidden layers only "
                f"(got {layer.activation!r})"
            )
    if network.layers[-1].activation != "identity":
        raise EncodingError("the output layer must be linear")
    if region.dim != network.input_dim:
        raise EncodingError(
            f"region dim {region.dim} != network input {network.input_dim}"
        )

    bounds = precomputed_bounds or compute_bounds(
        network, region, options, tracer=tracer, seed_bounds=seed_bounds
    )
    margin = options.bound_margin
    with tracer.span(
        "encode", network=network.architecture_id, region=region.name
    ) as span:
        model = Model(f"verify_{network.architecture_id}")

        input_vars = [
            model.add_var(
                f"in{i}", lb=region.bounds[i, 0], ub=region.bounds[i, 1]
            )
            for i in range(network.input_dim)
        ]
        for k, constraint in enumerate(region.constraints):
            coeffs, rhs = constraint.as_indexed()
            expr = LinExpr(
                {input_vars[i].index: c for i, c in coeffs.items()}
            )
            model.add_constr(expr <= rhs, name=f"region{k}")

        binaries: List[Variable] = []
        neurons: List[ReluNeuron] = []
        # ``prev`` carries affine expressions of the previous layer's
        # post-activations in terms of model variables.
        prev: List[LinExpr] = [var.to_expr() for var in input_vars]

        for li, layer in enumerate(network.layers[:-1]):
            layer_bounds = bounds[li]
            post: List[LinExpr] = []
            for j in range(layer.fan_out):
                pre = _affine(prev, layer.weights[:, j], layer.bias[j])
                lo = float(layer_bounds.lower[j]) - margin
                hi = float(layer_bounds.upper[j]) + margin
                if hi <= 0.0:
                    post.append(LinExpr({}, 0.0))  # stably inactive
                    continue
                if lo >= 0.0:
                    post.append(pre)               # stably active
                    continue
                a = model.add_var(f"a_{li}_{j}", lb=0.0, ub=max(hi, 0.0))
                d = model.add_var(f"d_{li}_{j}", vtype=VarType.BINARY)
                # The rows are written as ``expr op 0`` directly, with the
                # coefficients, constant and key order that LinExpr
                # arithmetic gives ``a - z >= 0`` and the rest (it
                # negates a term as ``0.0 - c``): the same model, bit
                # for bit, without the temporary expressions.
                a_minus_z = {a.index: 1.0}
                for idx, coef in pre.coeffs.items():
                    a_minus_z[idx] = 0.0 - coef
                const = 0.0 - pre.constant
                model.add_constr(Constraint(
                    LinExpr(a_minus_z, const), ConstraintOp.GE,
                    f"relu_ge_{li}_{j}",
                ))
                # a <= z - l (1 - d)  <=>  a - z - l d + l <= 0
                a_minus_z[d.index] = -lo
                model.add_constr(Constraint(
                    LinExpr(a_minus_z, const + lo), ConstraintOp.LE,
                    f"relu_up_{li}_{j}",
                ))
                # a <= u d  <=>  a - u d <= 0
                model.add_constr(Constraint(
                    LinExpr({a.index: 1.0, d.index: -hi}), ConstraintOp.LE,
                    f"relu_cap_{li}_{j}",
                ))
                binaries.append(d)
                neurons.append(ReluNeuron(
                    layer=li,
                    index=j,
                    a_col=a.index,
                    d_col=d.index,
                    pre_coeffs=dict(pre.coeffs),
                    pre_const=pre.constant,
                    lower=lo,
                    upper=hi,
                ))
                post.append(a.to_expr())
            prev = post

        out_layer = network.layers[-1]
        output_exprs = [
            _affine(prev, out_layer.weights[:, j], out_layer.bias[j])
            for j in range(out_layer.fan_out)
        ]
        span.set(binaries=len(binaries), variables=model.num_vars)
        return EncodedNetwork(
            model, input_vars, output_exprs, binaries, bounds,
            neurons=neurons,
        )


def _objective_expr(
    encoded: EncodedNetwork, objective: OutputObjective
) -> LinExpr:
    """The objective as a linear expression of the encoded outputs."""
    expr = LinExpr()
    for idx, coef in objective.coefficients.items():
        if not 0 <= idx < len(encoded.output_exprs):
            raise EncodingError(
                f"objective references output {idx}, network has "
                f"{len(encoded.output_exprs)}"
            )
        expr = expr + coef * encoded.output_exprs[idx]
    return expr


def attach_objective(
    encoded: EncodedNetwork,
    objective: OutputObjective,
    maximize: bool = True,
) -> None:
    """Set the model objective to a linear functional of the outputs."""
    encoded.model.set_objective(
        _objective_expr(encoded, objective),
        sense=Sense.MAXIMIZE if maximize else Sense.MINIMIZE,
    )


def attach_violation_constraint(
    encoded: EncodedNetwork,
    objective: OutputObjective,
    threshold: float,
) -> None:
    """Constrain ``objective >= threshold`` (property-violation witness).

    Used by decision queries: the property holds iff the resulting model
    is infeasible.
    """
    encoded.model.add_constr(
        _objective_expr(encoded, objective) >= threshold, name="violation"
    )


def _affine(
    inputs: List[LinExpr], weights: np.ndarray, bias: float
) -> LinExpr:
    """``sum w_j * inputs[j] + bias`` merged into one sparse expression."""
    coeffs: Dict[int, float] = {}
    constant = float(bias)
    for j, w in enumerate(weights):
        if w == 0.0:
            continue
        expr = inputs[j]
        constant += w * expr.constant
        for idx, coef in expr.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + w * coef
    return LinExpr(coeffs, constant)
