"""FLOP budget arithmetic and its published operating points."""

import math
import random
import re

import pytest

from carboncast.flops import inference_flops, training_flops
from carboncast.types import ModelError


class TestKnownValues:
    def test_gpt3_training_budget(self):
        # 175 B params, 300 B tokens: 315 zettaFLOPs, within 0.4% of the
        # published 314.
        budget = training_flops(175e9, 300e9)
        assert budget.total_flops == pytest.approx(3.15e23)
        assert abs(budget.total_flops / 1e21 - 314) / 314 < 0.004

    def test_xlm_training_budget(self):
        budget = training_flops(0.55e9, 7e12)
        assert budget.total_flops == pytest.approx(2.31e22)
        assert abs(budget.total_flops / 1e21 - 23.9) / 23.9 < 0.04

    def test_inference_batch(self):
        budget = inference_flops(175e9, 32 * 128)
        assert budget.total_flops == pytest.approx(1.4336e15)

    def test_expert_model_budget_comes_from_base_model(self):
        # GShard: the 2.3 B dense base, not the 619 B expert total, is what
        # each token touches; its estimate sits within 10% of the published
        # 13.3 zettaFLOPs.
        budget = training_flops(2.3e9, 1e12)
        assert abs(budget.total_flops / 1e21 - 13.3) / 13.3 < 0.10

    def test_zero_inputs(self):
        assert training_flops(0, 300e9).total_flops == 0
        assert inference_flops(175e9, 0).total_flops == 0


class TestProperties:
    def test_training_is_thrice_inference(self):
        rng = random.Random(17)
        for _ in range(50):
            p = 10 ** rng.uniform(6, 12)
            d = 10 ** rng.uniform(3, 13)
            assert training_flops(p, d).total_flops == 3 * inference_flops(p, d).total_flops

    def test_bilinearity(self):
        rng = random.Random(19)
        for _ in range(50):
            p = 10 ** rng.uniform(6, 12)
            d = 10 ** rng.uniform(3, 13)
            a, b = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            scaled = training_flops(a * p, b * d).total_flops
            assert scaled == pytest.approx(a * b * training_flops(p, d).total_flops,
                                           rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ModelError):
            training_flops(-1, 1)

    @pytest.mark.parametrize("flops", [training_flops, inference_flops])
    @pytest.mark.parametrize("param_count, token_count, message", [
        (-1, 1, "param_count and token_count must be >= 0"),
        (1e9, -1e9, "param_count and token_count must be >= 0"),
        (math.nan, 1e9, "param_count and token_count must be >= 0"),
        (1e9, math.nan, "param_count and token_count must be >= 0"),
        ("5", 1e9, "param_count and token_count must be >= 0"),
        (1e9, True, "param_count and token_count must be >= 0"),
        pytest.param(1e9, 10 ** 400, "token_count is beyond the float range", id="1e400"),
        (math.inf, 1e9, "param_count must be finite, got inf"),
        (1e9, math.inf, "token_count must be finite, got inf"),
        (math.inf, -1.0, "param_count must be finite, got inf"),
    ])
    def test_counts_must_be_non_negative_numbers(self, flops, param_count, token_count,
                                                 message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            flops(param_count, token_count)

    @pytest.mark.parametrize("flops", [training_flops, inference_flops])
    def test_finite_counts_may_still_overflow(self, flops):
        assert flops(1e200, 1e200).total_flops == math.inf
