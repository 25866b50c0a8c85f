"""The paper's perspectives (ii) and (iii), end to end.

Part 1 — *training with hints* (Abu-Mostafa 1995): the safety rule is
injected into the loss as a hinge penalty; the verified maximum lateral
velocity drops compared to plain training on the same data and seed.

Part 2 — *quantized verification*: a network is quantized to fixed-point
integers and verified through the SAT bit-blasting pipeline,
demonstrating the "encoding to bitvector theories" route; the result is
cross-checked against the float MILP verifier.

Run:  python examples/hints_and_quantization.py
"""

import numpy as np

from repro import casestudy
from repro.core.encoder import EncoderOptions
from repro.core.properties import InputRegion, OutputObjective
from repro.core.quantized_verifier import QuantizedVerifier
from repro.core.verifier import Verifier
from repro.highway import DatasetSpec
from repro.nn import FeedForwardNetwork, QuantizedNetwork
from repro.nn.training import TrainingConfig


def main() -> None:
    config = casestudy.CaseStudyConfig(
        num_components=2,
        hidden_layers=2,  # a shallower family keeps the demo snappy
        dataset=DatasetSpec(episodes=5, steps_per_episode=200, seed=2),
        training=TrainingConfig(
            epochs=40, learning_rate=1e-3, weight_decay=1.0
        ),
    )
    print("preparing data ...")
    study = casestudy.prepare_case_study(config)
    # Verify over the same operational domain the hint's virtual
    # examples are drawn from (see casestudy.operational_region).
    region = casestudy.operational_region(study)

    print("\n== Part 1: training with hints (perspective iii) ==")
    results = {}
    for label, weight in [("plain", 0.0), ("hinted", 25.0)]:
        network = casestudy.train_hinted_predictor(
            study, width=6, hint_weight=weight, seed=0
        )
        row = casestudy.verify_network(
            study, network, time_limit=120.0, region=region
        )
        results[label] = row
        print(
            f"  {label:7s}: verified max lateral velocity "
            f"{row.max_velocity:8.4f} m/s  ({row.wall_time:.1f}s, "
            f"{row.num_binaries} binaries)"
        )
    improvement = (
        results["plain"].max_velocity - results["hinted"].max_velocity
    )
    print(f"  hint effect: {improvement:+.4f} m/s "
          "(positive = safer, as the paper's perspective suggests)")

    print("\n== Part 2: quantized verification (perspective ii) ==")
    # A compact net keeps the SAT instance small for the demo.
    small = FeedForwardNetwork.mlp(
        4, [5], 1, rng=np.random.default_rng(4)
    )
    qnet = QuantizedNetwork.from_network(small, frac_bits=4)
    small_region = InputRegion(np.array([[-1.0, 1.0]] * 4))
    milp_max = Verifier(
        small, EncoderOptions(bound_mode="lp")
    ).maximize(small_region, OutputObjective.single(0))
    quant = QuantizedVerifier(qnet).maximize(small_region, 0)
    print(f"  float MILP max      : {milp_max.value:8.4f} "
          f"({milp_max.wall_time:.2f}s)")
    print(f"  quantized SAT max   : {quant.value_float:8.4f} "
          f"({quant.wall_time:.2f}s, {quant.num_clauses} clauses, "
          f"{quant.sat_conflicts} conflicts)")
    print("  (both engines agree up to the quantization grid: "
          f"|diff| = {abs(quant.value_float - milp_max.value):.4f})")


if __name__ == "__main__":
    main()
