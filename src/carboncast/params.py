"""Parameter-count model for dense and mixture-of-experts transformers.

Dense layouts are priced from their weight matrices:

* GPT-style layer: four attention projections (h x head_count*head_dim each,
  which is 4h^2 in the conventional head_count*head_dim = h case) plus two
  FF matrices (h x ff each), giving 12*l*h^2 + V*h in the conventional case.
* Encoder-decoder layer pair: encoder (4 attention + 2 FF matrices) plus
  decoder (8 attention + 2 FF matrices).
* Decoder-only layer: 8 attention + 2 FF matrices.

MoE sizing has two routes. The *standard* route applies when the model uses
conventional dimensions (head_count*head_dim == h and ff == 4h): each expert
layer carries 4h^2 attention weights plus 8h^2 per expert, and the non-MoE
remainder of the network is priced as 12*l*h^2 (embeddings excluded; expert
weights dwarf them). The *general* route prices expert FF matrices directly
as 2*h*ff per expert and deliberately counts nothing else: published expert
model sizes (GShard, Switch) are dominated by and reported as exactly this
term. ``ff_stacks`` doubles the expert term for encoder-decoder layer pairs,
which carry two expert-replaceable FF blocks per counted layer.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import NamedTuple

from .types import ArchKind, LlmArchitecture, ModelError, plain_sum


class ParameterEquation(enum.Enum):
    """Which sizing rule produced a count (reported for auditability)."""

    DENSE_STANDARD = "dense_standard"
    ENCODER_DECODER = "encoder_decoder"
    DECODER_ONLY = "decoder_only"
    MOE_STANDARD = "moe_standard"
    MOE_GENERAL = "moe_general"
    EXPLICIT = "explicit"


class ParameterCount(NamedTuple):
    """A parameter count and its sizing rule, as a named tuple."""

    total: int
    equation: ParameterEquation

    @property
    def billions(self) -> float:
        return self.total / 1e9


# ParameterCount((total, equation)), built in C: the named tuple's own
# __new__ is a Python function, and a sweep counts every point.
_parameter_count = partial(tuple.__new__, ParameterCount)


def count_dense_gpt(arch: LlmArchitecture) -> ParameterCount:
    """Conventional single-stack transformer: 12*l*h^2 + V*h."""
    h, l, v = arch.hidden_size, arch.layer_count, arch.vocab_size
    return _parameter_count((12 * l * h * h + v * h, ParameterEquation.DENSE_STANDARD))


def count_dense_encdec(arch: LlmArchitecture) -> ParameterCount:
    """Encoder-decoder pair per layer: (12*h*heads*dim + 4*h*ff)*l + V*h."""
    h, l, v = arch.hidden_size, arch.layer_count, arch.vocab_size
    attn = arch.head_count * arch.head_dim
    per_layer = 12 * h * attn + 4 * h * arch.ff_size
    return _parameter_count((per_layer * l + v * h, ParameterEquation.ENCODER_DECODER))


def count_dense_deconly(arch: LlmArchitecture) -> ParameterCount:
    """Decoder block per layer: (8*h*heads*dim + 2*h*ff)*l + V*h."""
    h, l, v = arch.hidden_size, arch.layer_count, arch.vocab_size
    attn = arch.head_count * arch.head_dim
    per_layer = 8 * h * attn + 2 * h * arch.ff_size
    return _parameter_count((per_layer * l + v * h, ParameterEquation.DECODER_ONLY))


def _uses_conventional_dims(arch: LlmArchitecture) -> bool:
    if arch.head_count is None or arch.head_dim is None or arch.ff_size is None:
        # Nothing contradicts the conventional shape; the standard route
        # needs only h, l and the expert data.
        return True
    return (arch.head_count * arch.head_dim == arch.hidden_size
            and arch.ff_size == 4 * arch.hidden_size)


def count_moe(
    arch: LlmArchitecture,
    force_equation: ParameterEquation | None = None,
) -> ParameterCount:
    """Size an MoE model, choosing the standard or general route.

    Route selection is automatic from the dimensions (see module docstring);
    ``force_equation`` pins it for models whose published sizing used the
    other route despite their dimensions. ``arch`` has no explicit count, so
    its constructor checked h, l, ``moe_fraction`` and ``expert_groups``.
    """
    if force_equation not in (None, ParameterEquation.MOE_STANDARD, ParameterEquation.MOE_GENERAL):
        raise ModelError(f"{arch.name}: cannot force {force_equation} for an MoE model")
    if force_equation is not None:
        standard = force_equation is ParameterEquation.MOE_STANDARD
    else:
        standard = _uses_conventional_dims(arch)

    h, l, rho = arch.hidden_size, arch.layer_count, arch.moe_fraction
    if standard:
        # Dense remainder priced at 12*l*h^2 (vocabulary embeddings excluded:
        # they are negligible against expert weights and published MoE counts
        # omit them).
        per_moe_layer = plain_sum(
            g.layer_fraction * (4 * h * h + 8 * h * h * g.expert_count * arch.ff_stacks)
            for g in arch.expert_groups
        )
        total = (1.0 - rho) * 12 * l * h * h + rho * l * per_moe_layer
        return _parameter_count((round(total), ParameterEquation.MOE_STANDARD))

    if arch.ff_size is None:  # only a forced general route gets here without it
        raise ModelError(f"{arch.name}: parameter model needs ff_size for kind moe")
    expert_per_layer = plain_sum(
        g.layer_fraction * 2 * h * arch.ff_size * g.expert_count
        for g in arch.expert_groups
    )
    total = rho * l * expert_per_layer * arch.ff_stacks
    return _parameter_count((round(total), ParameterEquation.MOE_GENERAL))


def count_params(
    arch: LlmArchitecture,
    force_moe_equation: ParameterEquation | None = None,
) -> ParameterCount:
    """Parameter count for any architecture; explicit counts pass through.

    Every later stage computes in floats, so a count beyond the float range
    is a :class:`ModelError` here.
    """
    try:
        # LlmArchitecture checked every field this reads when it was built.
        if arch.explicit_param_count is not None:
            pcount = _parameter_count((int(arch.explicit_param_count),
                                       ParameterEquation.EXPLICIT))
        elif arch.kind is ArchKind.DENSE_GPT:
            pcount = count_dense_gpt(arch)
        elif arch.kind is ArchKind.DENSE_ENCDEC:
            pcount = count_dense_encdec(arch)
        elif arch.kind is ArchKind.DENSE_DECONLY:
            pcount = count_dense_deconly(arch)
        else:
            pcount = count_moe(arch, force_equation=force_moe_equation)
        float(pcount.total)
    except OverflowError:
        raise ModelError(f"{arch.name}: parameter count is beyond the float range") from None
    return pcount
