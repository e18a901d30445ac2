"""Loss-law behavior: frozen oracle values, limits, identities."""

import math
import random
import re

import pytest

from carboncast.scaling import test_loss
from carboncast.types import ModelError, ScalingConstants

# Frozen from a 50-digit arbitrary-precision evaluation of
# 406.4/(70e9)^0.34 + 410.7/(1.4e12)^0.28 + 1.69.
CHINCHILLA_POINT_LOSS = 1.9366454705587175


class TestKnownValues:
    def test_chinchilla_operating_point(self):
        got = test_loss(70e9, 1.4e12)
        assert got.loss == pytest.approx(CHINCHILLA_POINT_LOSS, rel=1e-12)

    def test_loss_approaches_floor_at_extreme_scale(self):
        got = test_loss(1e31, 1e31)
        assert got.loss - 1.69 < 1e-6
        assert got.loss > 1.69

    def test_moe_discount_is_exact_division(self):
        moe = test_loss(8e9, 1e12, moe=True)
        dense = test_loss(1e9, 1e12)
        assert moe.loss == dense.loss


class TestProperties:
    def test_strictly_decreasing_in_params_and_tokens(self):
        rng = random.Random(3)
        for _ in range(100):
            p = 10 ** rng.uniform(6, 13)
            d = 10 ** rng.uniform(8, 14)
            base = test_loss(p, d).loss
            assert test_loss(p * 1.01, d).loss < base
            assert test_loss(p, d * 1.01).loss < base

    def test_doubling_params_shifts_loss_by_exact_power_law_step(self):
        # L(2P, D) - L(P, D) = (2^-alpha - 1) * A / P^alpha, exactly.
        c = ScalingConstants()
        rng = random.Random(5)
        for _ in range(50):
            p = 10 ** rng.uniform(7, 12)
            d = 10 ** rng.uniform(9, 13)
            delta = test_loss(2 * p, d).loss - test_loss(p, d).loss
            expected = (2 ** -c.alpha - 1) * c.A / p ** c.alpha
            assert delta == pytest.approx(expected, rel=1e-12)

    def test_loss_always_above_floor(self):
        rng = random.Random(9)
        for _ in range(100):
            p = 10 ** rng.uniform(3, 20)
            d = 10 ** rng.uniform(3, 20)
            assert test_loss(p, d).loss > 1.69

    def test_constants_overridable(self):
        custom = ScalingConstants(A=100.0, B=200.0, alpha=0.5, beta=0.5, E=1.0)
        got = test_loss(1e4, 1e4, constants=custom)
        assert got.loss == pytest.approx(100.0 / 100.0 + 200.0 / 100.0 + 1.0)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ModelError):
            test_loss(0, 1e12)
        with pytest.raises(ModelError):
            test_loss(1e9, -1)

    @pytest.mark.parametrize("param_count, token_count, message", [
        (0, 1e12, "param_count must be positive, got 0"),
        (1e9, -1, "token_count must be positive, got -1"),
        (math.nan, 1e9, "param_count must be positive, got nan"),
        (1e9, math.nan, "token_count must be positive, got nan"),
        ("5", 1e9, "param_count must be positive, got '5'"),
        (1e9, True, "token_count must be positive, got True"),
        pytest.param(10 ** 400, 1e9, "param_count is beyond the float range", id="1e400"),
    ])
    def test_counts_must_be_positive_numbers(self, param_count, token_count, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            test_loss(param_count, token_count)

    def test_a_quotient_beyond_the_float_range_is_named(self):
        # B / D^beta overflows in the division, not in the power.
        with pytest.raises(ModelError, match=r"^the loss law's terms are beyond the float range "
                                             r"\(alpha=0\.34, beta=2\.0\)$"):
            test_loss(1e9, 1e-160, ScalingConstants(beta=2.0))
