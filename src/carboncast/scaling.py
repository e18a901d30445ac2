"""Parametric test-loss law.

Loss decomposes into an irreducible floor E plus two reducible power-law
terms, one shrinking with parameter count P and one with training tokens D:

    L(P, D) = A / P^alpha + B / D^beta + E

An expert-routed model with P total parameters behaves like a dense model
of P / 8 parameters, so the law is evaluated at that effective size.
"""

from __future__ import annotations

from math import inf

from .types import ModelError, Record, ScalingConstants, is_number, shown

DEFAULT_CONSTANTS = ScalingConstants()

# Loss parity between an expert-routed model and a dense model 1/8 its size.
MOE_PARAM_DISCOUNT = 8.0


class LossPrediction(Record):
    """A predicted test loss, in nats."""

    loss: float


def test_loss(
    param_count: float,
    token_count: float,
    constants: ScalingConstants = DEFAULT_CONSTANTS,
    moe: bool = False,
) -> LossPrediction:
    """Predicted test loss in nats for a model of ``param_count`` parameters
    trained on ``token_count`` tokens. Strictly greater than the floor E for
    any finite inputs, and strictly decreasing in both P and D.
    """
    for label, value in (("param_count", param_count), ("token_count", token_count)):
        # Written so that NaN fails too.
        if not (is_number(value, label, ModelError) and value > 0):
            raise ModelError(f"{label} must be positive, got {shown(value)}")
    return LossPrediction(_loss(param_count, token_count, constants, moe))


def _loss(param_count: float, token_count: float, constants: ScalingConstants, moe: bool) -> float:
    """The loss of :func:`test_loss`, on counts that have passed its checks."""
    try:
        effective = param_count / MOE_PARAM_DISCOUNT if moe else float(param_count)
        loss = (constants.A / effective ** constants.alpha
                + constants.B / token_count ** constants.beta
                + constants.E)
    except (OverflowError, ZeroDivisionError):
        loss = inf  # P^alpha beyond the float range, or D^beta rounded to zero
    if loss == inf:  # also a quotient beyond the float range
        raise ModelError("the loss law's terms are beyond the float range (alpha="
                         f"{constants.alpha!r}, beta={constants.beta!r})")
    return loss


test_loss.__test__ = False  # keep pytest from collecting the public name
