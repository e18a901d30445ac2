"""Parameter model: published-size fixtures, brute-force oracles, properties.

The oracles enumerate individual weight matrices and sum them, independent
of the closed-form expressions under test.
"""

import random

import pytest

from carboncast.params import (
    ParameterEquation,
    count_dense_encdec,
    count_dense_gpt,
    count_moe,
    count_params,
)
from carboncast.types import ArchKind, ExpertGroup, LlmArchitecture, ModelError
from carboncast.validation import PARAMETER_FIXTURES


def dense_gpt(h, l, v):
    return LlmArchitecture(name="d", kind=ArchKind.DENSE_GPT,
                           hidden_size=h, layer_count=l, vocab_size=v)


def encdec(h, l, v, heads, dim, ff):
    return LlmArchitecture(name="ed", kind=ArchKind.DENSE_ENCDEC,
                           hidden_size=h, layer_count=l, vocab_size=v,
                           head_count=heads, head_dim=dim, ff_size=ff)


def moe(h, l, ff, rho, groups, heads=8, dim=None, stacks=1):
    dim = dim if dim is not None else h // heads
    return LlmArchitecture(name="m", kind=ArchKind.MOE, hidden_size=h,
                           layer_count=l, head_count=heads, head_dim=dim,
                           ff_size=ff, moe_fraction=rho,
                           expert_groups=tuple(ExpertGroup(f, n) for f, n in groups),
                           ff_stacks=stacks)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def enumerate_encdec_weights(h, l, v, heads, dim, ff):
    """Sum every weight matrix of an encoder-decoder stack directly."""
    attn_proj = h * heads * dim
    total = 0
    for _ in range(l):
        # encoder: q, k, v, o projections + two FF matrices
        total += 4 * attn_proj + 2 * h * ff
        # decoder: self-attention and cross-attention (4 projections each)
        # + two FF matrices
        total += 8 * attn_proj + 2 * h * ff
    total += v * h  # token embedding
    return total


def enumerate_single_expert_weights(h, l, ff):
    """All layers MoE with a single expert: per layer, one expert FF pair."""
    return sum(2 * h * ff for _ in range(l))


class TestPublishedSizes:
    @pytest.mark.parametrize(
        "arch,forced,expected_b,tol_b",
        PARAMETER_FIXTURES,
        ids=[fx[0].name for fx in PARAMETER_FIXTURES],
    )
    def test_fixture(self, arch, forced, expected_b, tol_b):
        got = count_params(arch, force_moe_equation=forced)
        assert got.billions == pytest.approx(expected_b, abs=tol_b)

    def test_gpt3_exact_count(self):
        got = count_dense_gpt(dense_gpt(12288, 96, 51200))
        assert got.total == 12 * 96 * 12288**2 + 51200 * 12288
        assert got.equation is ParameterEquation.DENSE_STANDARD

    def test_degenerate_zero_layers_and_vocab(self):
        # No layers and no vocabulary would count zero parameters, so such an
        # architecture is refused when it is built.
        with pytest.raises(ModelError, match=r"^layer_count: must be a positive integer; "
                                             r"vocab_size: must be a positive integer$"):
            LlmArchitecture(name="z", kind=ArchKind.DENSE_GPT,
                            hidden_size=64, layer_count=0, vocab_size=0)


class TestOracles:
    def test_encdec_matches_weight_enumeration(self):
        cases = [(1024, 24, 32000, 128, 128, 65536),
                 (512, 6, 32000, 8, 64, 2048),
                 (256, 3, 1000, 4, 64, 1024)]
        for h, l, v, heads, dim, ff in cases:
            got = count_dense_encdec(encdec(h, l, v, heads, dim, ff)).total
            assert got == enumerate_encdec_weights(h, l, v, heads, dim, ff)

    def test_encdec_conventional_dims_vs_gpt_layer_accounting(self):
        # With heads*dim = h and ff = 4h the encoder alone reproduces the
        # 12h^2 single-stack layer; the decoder block is pure addition:
        # two attention blocks (8 projections, 8h^2) plus an FF pair (8h^2).
        h, l, v = 512, 4, 1000
        ed = count_dense_encdec(encdec(h, l, v, 8, h // 8, 4 * h)).total
        gpt = count_dense_gpt(dense_gpt(h, l, v)).total
        assert ed == enumerate_encdec_weights(h, l, v, 8, h // 8, 4 * h)
        assert ed - gpt == 16 * h * h * l

    def test_single_expert_full_moe_matches_enumeration(self):
        # rho = 1 with one expert collapses to the dense FF cost.
        h, l, ff = 256, 6, 1024
        got = count_moe(moe(h, l, ff, 1.0, [(1.0, 1)]),
                        force_equation=ParameterEquation.MOE_GENERAL).total
        assert got == enumerate_single_expert_weights(h, l, ff)

    def test_single_expert_standard_route_is_dense_layer_cost(self):
        # Conventional dims, rho=1, one expert: 4h^2 attention + 8h^2 FF
        # per layer equals the 12h^2 dense layer accounting.
        h, l = 256, 6
        got = count_moe(moe(h, l, 4 * h, 1.0, [(1.0, 1)], heads=4, dim=h // 4)).total
        assert got == 12 * h * h * l


class TestProperties:
    def test_monotonicity_dense(self):
        rng = random.Random(7)
        for _ in range(50):
            h = rng.randrange(64, 4096, 64)
            l = rng.randrange(1, 128)
            v = rng.randrange(1000, 300000)
            base = count_dense_gpt(dense_gpt(h, l, v)).total
            assert count_dense_gpt(dense_gpt(h + 64, l, v)).total > base
            assert count_dense_gpt(dense_gpt(h, l + 1, v)).total > base
            assert count_dense_gpt(dense_gpt(h, l, v + 1)).total > base

    def test_monotonicity_in_experts(self):
        rng = random.Random(11)
        for _ in range(50):
            h = rng.randrange(64, 2048, 64)
            l = rng.randrange(2, 64)
            ne = rng.randrange(2, 512)
            rho = rng.choice([0.25, 0.5, 1.0])
            base = count_moe(moe(h, l, 4 * h, rho, [(1.0, ne)])).total
            more = count_moe(moe(h, l, 4 * h, rho, [(1.0, ne + 1)])).total
            assert more > base

    def test_expert_increment_adds_exact_ff_block(self):
        # Adding one expert adds exactly rho * 2 * h * ff * l parameters.
        h, l, ff, rho = 512, 12, 2048, 1.0
        a = count_moe(moe(h, l, ff, rho, [(1.0, 7)]),
                      force_equation=ParameterEquation.MOE_GENERAL).total
        b = count_moe(moe(h, l, ff, rho, [(1.0, 8)]),
                      force_equation=ParameterEquation.MOE_GENERAL).total
        assert b - a == rho * 2 * h * ff * l

    def test_explicit_count_passthrough(self):
        arch = LlmArchitecture(name="x", kind=ArchKind.MOE,
                               explicit_param_count=619_000_000_000)
        got = count_params(arch)
        assert got.total == 619_000_000_000
        assert got.equation is ParameterEquation.EXPLICIT

    def test_route_selection_is_automatic(self):
        conventional = moe(512, 4, 2048, 0.5, [(1.0, 8)], heads=8, dim=64)
        assert count_params(conventional).equation is ParameterEquation.MOE_STANDARD
        widened = moe(512, 4, 4096, 0.5, [(1.0, 8)], heads=8, dim=64)
        assert count_params(widened).equation is ParameterEquation.MOE_GENERAL

    def test_missing_fields_raise(self):
        with pytest.raises(ModelError, match="^head_count: required for dense_encdec"):
            LlmArchitecture(name="incomplete", kind=ArchKind.DENSE_ENCDEC,
                            hidden_size=512, layer_count=4, vocab_size=1000)

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ModelError, match=r"^moe_fraction: must lie in \(0, 1\]$"):
            LlmArchitecture(name="bad", kind=ArchKind.MOE, hidden_size=512,
                            layer_count=4, moe_fraction=1.5,
                            expert_groups=(ExpertGroup(1.0, 4),))

    def test_a_forced_general_route_needs_the_ff_width(self):
        # The automatic route takes the standard sizing when ff_size is left out.
        arch = LlmArchitecture(name="m", kind=ArchKind.MOE, hidden_size=512, layer_count=4,
                               moe_fraction=0.5, expert_groups=(ExpertGroup(1.0, 4),))
        assert count_params(arch).equation is ParameterEquation.MOE_STANDARD
        with pytest.raises(ModelError, match="^m: parameter model needs ff_size for kind moe$"):
            count_params(arch, force_moe_equation=ParameterEquation.MOE_GENERAL)
