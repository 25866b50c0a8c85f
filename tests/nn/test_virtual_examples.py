"""Tests for hint training with virtual examples (Abu-Mostafa 1995)."""

import numpy as np
import pytest

from repro.nn import FeedForwardNetwork, MSELoss
from repro.nn.training import Trainer, TrainingConfig


def push_down_penalty(_net, _bx, out):
    """Hinge penalty: only outputs above 2 are pushed down.

    On the labelled data (targets ~ sum of inputs in [0, 2]) the hinge
    never fires, so the penalty can only act through samples that are
    actually forwarded — which is exactly what virtual examples add.
    """
    excess = out[:, 0] - 2.0
    active = excess > 0
    grad = np.zeros_like(out)
    grad[active, 0] = 1.0 / out.shape[0]
    return float(np.sum(excess[active])) / out.shape[0], grad


class TestVirtualExamples:
    def test_penalty_applies_beyond_training_data(self, rng):
        """The labelled data lives in [0, 1]^2; the virtual samples in
        [3, 4]^2 where the fitted function exceeds the hinge.  Only with
        virtual examples can the penalty lower the output there."""
        x = rng.uniform(0.0, 1.0, size=(128, 2))
        y = x.sum(axis=1, keepdims=True)  # far region extrapolates to ~7
        far = rng.uniform(3.0, 4.0, size=(256, 2))

        def train(virtual):
            net = FeedForwardNetwork.mlp(
                2, [8], 1, rng=np.random.default_rng(3)
            )
            Trainer(
                net,
                MSELoss(),
                TrainingConfig(epochs=60, seed=1, learning_rate=5e-3),
                penalty=push_down_penalty,
                penalty_weight=3.0,
                virtual_x=virtual,
            ).fit(x, y)
            return float(net.forward(far)[:, 0].mean())

        with_virtual = train(far)
        without_virtual = train(None)
        assert without_virtual > 3.0  # extrapolation really was high
        assert with_virtual < without_virtual - 0.5

    def test_virtual_penalty_recorded_in_history(self, rng):
        x = rng.uniform(0.0, 1.0, size=(64, 2))
        y = np.zeros((64, 1))
        virtual = rng.uniform(2.0, 3.0, size=(32, 2))
        net = FeedForwardNetwork.mlp(2, [4], 1, rng=rng)
        history = Trainer(
            net,
            MSELoss(),
            TrainingConfig(epochs=3),
            penalty=push_down_penalty,
            penalty_weight=1.0,
            virtual_x=virtual,
        ).fit(x, y)
        # Penalty history includes the virtual contribution.
        assert all(np.isfinite(p) for p in history.penalties)

    def test_virtual_without_penalty_is_inert(self, rng):
        """virtual_x without a penalty function must not change training."""
        x = rng.uniform(0.0, 1.0, size=(64, 2))
        y = x.sum(axis=1, keepdims=True)
        virtual = rng.uniform(0, 1, size=(32, 2))

        def final_loss(virtual_x):
            net = FeedForwardNetwork.mlp(
                2, [6], 1, rng=np.random.default_rng(0)
            )
            history = Trainer(
                net,
                MSELoss(),
                TrainingConfig(epochs=5, seed=2),
                virtual_x=virtual_x,
            ).fit(x, y)
            return history.final_loss

        assert final_loss(virtual) == final_loss(None)


class TestHintedPredictorVirtualExamples:
    def test_verified_max_drops(self, small_study):
        """End to end: virtual-example hints must tame the verified
        maximum over the operational region (the perspective-iii
        result)."""
        from repro import casestudy

        region = casestudy.operational_region(small_study)

        def verified_max(weight):
            net = casestudy.train_hinted_predictor(
                small_study, width=4, hint_weight=weight,
                hint_threshold=0.8, seed=0,
            )
            row = casestudy.verify_network(
                small_study, net, time_limit=120.0, region=region,
            )
            assert row.error is None
            return row.max_velocity

        hinted = verified_max(10.0)
        plain = verified_max(0.0)
        assert hinted <= plain + 1e-6
