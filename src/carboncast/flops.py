"""FLOP budgets for training and inference.

Multiply-accumulates against the weights dominate, giving the familiar
estimates of 6 FLOPs per parameter per token for training (forward plus
backward) and 2 for inference. For expert-routed models the *dense base
model* size is what each token actually touches, so that count, never the
full expert count, feeds these formulas; the pipeline enforces this.
"""

from __future__ import annotations

from math import inf

from .types import ModelError, Record, is_number

INFERENCE_FLOPS_PER_PARAM_TOKEN = 2.0


class FlopBudget(Record):
    """A FLOP count for one phase of one model."""

    total_flops: float


def training_flops(param_count: float, token_count: float) -> FlopBudget:
    """Total training FLOPs = 6 * P * D, computed as exactly three times the
    inference product, so the training/inference ratio holds bit-for-bit."""
    _check(param_count, token_count)
    return FlopBudget(_training(param_count, token_count))


def inference_flops(param_count: float, token_count: float) -> FlopBudget:
    """Total inference FLOPs = 2 * P * D."""
    _check(param_count, token_count)
    return FlopBudget(_inference(param_count, token_count))


def _training(param_count: float, token_count: float) -> float:  # on checked counts
    return 3.0 * (INFERENCE_FLOPS_PER_PARAM_TOKEN * param_count * token_count)


def _inference(param_count: float, token_count: float) -> float:  # on checked counts
    return INFERENCE_FLOPS_PER_PARAM_TOKEN * param_count * token_count


def _check(param_count: float, token_count: float) -> None:
    for label, value in (("param_count", param_count), ("token_count", token_count)):
        # Written so that NaN fails too.
        if not (is_number(value, label, ModelError) and value >= 0):
            raise ModelError("param_count and token_count must be >= 0")
        if value == inf:  # finite counts may still give inf FLOPs
            raise ModelError(f"{label} must be finite, got inf")
