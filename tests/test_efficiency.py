"""Parallelism planner and hardware-efficiency model."""

import io
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carboncast import catalog, efficiency
from carboncast.efficiency import (
    efficiency_at_count,
    fit_anchors,
    optimal_efficiency,
    plan_parallelism,
)
from carboncast.types import ModelError


class TestPlanner:
    def test_175b_dense_plan_hits_published_operating_point(self):
        # 16 bytes/param of training state on 32 GB parts: 88 devices just
        # to hold the model, so t=8 then p=11, and data parallelism lands
        # the total near the published ~1.5K optimum.
        plan = plan_parallelism(175e9, device_memory_gb=32.0, server_size=8)
        assert plan.tensor == 8
        assert plan.pipeline == 11
        assert plan.data == 17
        assert plan.device_count == plan.tensor * plan.pipeline * plan.data
        assert 1400 <= plan.device_count <= 1600

    @pytest.mark.parametrize("param_count, server_size, degrees", [
        (5e9, 3, (1, 3, 14)),     # no power of two up to z fits: t = z
        (5e9, 1, (3, 1, 14)),
        (175e9, 6, (15, 6, 17)),
        (175e9, 12, (8, 12, 16)),
    ])
    def test_server_sizes_that_are_not_powers_of_two(self, param_count, server_size, degrees):
        plan = plan_parallelism(param_count, server_size=server_size)
        assert (plan.pipeline, plan.tensor, plan.data) == degrees

    def test_moe_plan_fixes_expert_and_data_degrees(self):
        for p in [1e9, 175e9, 1.5e12]:
            plan = plan_parallelism(p, is_moe=True)
            assert plan.expert == 64
            assert plan.data == 1
            assert plan.device_count == plan.tensor * plan.pipeline

    @pytest.mark.parametrize("param_count", [0.0, -1.0, math.nan, math.inf])
    def test_param_count_must_be_finite_and_positive(self, param_count):
        message = f"param_count must be finite and positive, got {param_count!r}"
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            plan_parallelism(param_count)

    def test_moe_needs_no_more_devices_than_dense(self):
        rng = random.Random(23)
        for _ in range(50):
            p = 10 ** rng.uniform(9, 12.5)
            dense = plan_parallelism(p, is_moe=False)
            sparse = plan_parallelism(p, is_moe=True)
            assert sparse.device_count <= dense.device_count

    def test_memory_constraint_always_met(self):
        rng = random.Random(29)
        for _ in range(50):
            p = 10 ** rng.uniform(8, 12.5)
            mem = rng.choice([16.0, 32.0, 80.0])
            plan = plan_parallelism(p, device_memory_gb=mem)
            assert 16 * p <= plan.tensor * plan.pipeline * mem * 1e9


class TestOptimalEfficiency:
    def test_default_anchor_gives_published_175b_point(self):
        assert optimal_efficiency(175e9) == pytest.approx(0.47)

    def test_moe_discount(self):
        dense = optimal_efficiency(175e9)
        sparse = optimal_efficiency(175e9, is_moe=True)
        assert sparse == pytest.approx(0.80 * dense)

    def test_two_anchor_fallback_interpolates_through_points(self):
        anchors = [(1e9, 0.52), (175e9, 0.47)]
        assert optimal_efficiency(1e9, anchors=anchors) == pytest.approx(0.52)
        assert optimal_efficiency(175e9, anchors=anchors) == pytest.approx(0.47)
        mid = optimal_efficiency(1e10, anchors=anchors)
        assert 0.47 < mid < 0.52
        assert fit_anchors(anchors).parabola is None

    def test_three_anchors_fit_regression(self):
        anchors = [(1e9, 0.52), (20e9, 0.50), (175e9, 0.47)]
        assert fit_anchors(anchors).parabola is not None
        assert 0.4 < optimal_efficiency(50e9, anchors=anchors) < 0.55

    def test_regression_clamped_to_unit_interval(self):
        # A steeply rising anchor set must not extrapolate past 1.
        anchors = [(1e6, 0.2), (1e7, 0.6), (1e8, 0.95)]
        assert 0 < optimal_efficiency(1e12, anchors=anchors) <= 1.0

    def test_empty_anchor_table_is_an_error(self):
        with pytest.raises(ModelError, match="anchor"):
            optimal_efficiency(175e9, anchors=[])

    @pytest.mark.parametrize("anchors, message", [
        ([(0.0, 0.5)], "anchor 0: param_count must be finite and > 0"),
        ([(1e9, 0.5), (-5.0, 0.5)], "anchor 1: param_count must be finite and > 0"),
        ([(math.nan, 0.5)], "anchor 0: param_count must be finite and > 0"),
        ([(math.inf, 0.5)], "anchor 0: param_count must be finite and > 0"),
        ([(1e9, math.nan)], r"anchor 0: efficiency must lie in \(0, 1\]"),
        ([(1e9, 0.5), (1e10, 1.5)], r"anchor 1: efficiency must lie in \(0, 1\]"),
        ([(1e9, 0.0)], r"anchor 0: efficiency must lie in \(0, 1\]"),
        ([(1e9, -0.1)], r"anchor 0: efficiency must lie in \(0, 1\]"),
        ([(1e9, math.inf)], r"anchor 0: efficiency must lie in \(0, 1\]"),
        ([(1e9, 0.4), (1e9, 0.5)], "anchor 1: param_count 1000000000.0 duplicates anchor 0"),
        ([(1e9, 0.4), (1e10, 0.5), (1e9, 0.45)], "anchor 2: .* duplicates anchor 0"),
        ([(1e9, 0.4), (1e9, 0.5), (1e9, 0.45)], "anchor 1: .* duplicates anchor 0"),
    ])
    def test_bad_anchor_is_named_by_index(self, anchors, message):
        with pytest.raises(ModelError, match=message):
            optimal_efficiency(175e9, anchors=anchors)

    def test_bad_rows_from_an_anchor_csv_are_rejected(self):
        for row in ("0,0.5", "-5,0.5", "1e9,1.5"):
            anchors = catalog.load_anchors(io.StringIO(f"param_count,efficiency\n{row}\n"))
            with pytest.raises(ModelError, match="anchor 0"):
                optimal_efficiency(175e9, anchors=anchors)

    def test_anchors_too_close_in_size_to_fit_are_an_error(self):
        # Distinct sizes whose log10 values differ in the last bits leave
        # no room for a parabola; a near-singular fit must not divide by 0.
        anchors = [(4.566235431958031e-189, 0.07045772463134176),
                   (8.62341169998063e+40, 0.5642455160000153),
                   (8.623411699980716e+40, 0.45867446055313077)]
        with pytest.raises(ModelError, match="too close"):
            optimal_efficiency(23757761929.454338, anchors=anchors)

    @pytest.mark.parametrize("param_count", [0.0, -1.0, math.nan, math.inf])
    def test_param_count_must_be_finite_and_positive(self, param_count):
        with pytest.raises(ModelError, match="param_count"):
            optimal_efficiency(param_count)


class TestInterpolation:
    def test_one_anchor_is_a_constant(self):
        assert fit_anchors([(175e9, 0.47)]).parabola is None
        for p in (1e3, 1e9, 175e9, 1e15):
            assert optimal_efficiency(p, anchors=[(175e9, 0.47)]) == 0.47

    def test_query_on_an_anchor_returns_its_value_exactly(self):
        anchors = [(1.3e9, 0.5123456789), (7.7e11, 0.4111111111)]
        for p, e in anchors:
            assert optimal_efficiency(p, anchors=anchors) == e

    def test_flat_beyond_both_ends(self):
        anchors = [(1e10, 0.45), (1e9, 0.52)]
        for p in (1e3, 1e8, 9.99e8):
            assert optimal_efficiency(p, anchors=anchors) == 0.52
        for p in (1.01e10, 1e12, 1e20):
            assert optimal_efficiency(p, anchors=anchors) == 0.45

    def test_linear_in_log_size_between_anchors(self):
        anchors = [(1e9, 0.52), (1e11, 0.42)]
        assert optimal_efficiency(1e10, anchors=anchors) == pytest.approx(0.47, rel=1e-15)


def exact_quadratic_fit_at(points, x):
    """Exact least-squares parabola through (log10 p, e), evaluated at log10 x,
    from the normal equations in rational arithmetic."""
    xs = [Fraction(math.log10(p)) for p, _ in points]
    ys = [Fraction(e) for _, e in points]
    moments = [sum(v ** k for v in xs) for k in range(5)]
    rows = [[moments[i + j] for j in range(3)] + [sum(y * v ** i for v, y in zip(xs, ys))]
            for i in range(3)]
    for c in range(3):
        for r in range(c + 1, 3):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    coeffs = [Fraction(0)] * 3
    for r in (2, 1, 0):
        known = sum(rows[r][j] * coeffs[j] for j in range(r + 1, 3))
        coeffs[r] = (rows[r][3] - known) / rows[r][r]
    t = Fraction(math.log10(x))
    return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t


# Tables like the benchmark's: 3-5 anchors, log-uniform over 1 B - 1 T.
anchor_tables = st.lists(
    st.tuples(st.floats(9.0, 12.0).map(lambda e: 10.0 ** e), st.floats(0.38, 0.52)),
    min_size=3, max_size=5, unique_by=lambda a: math.log10(a[0]))


class TestRegression:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(anchor_tables, st.floats(8.0, math.log10(1.6e12)).map(lambda e: 10.0 ** e))
    def test_fit_matches_exact_least_squares(self, anchors, query):
        eff = optimal_efficiency(query, anchors=anchors)
        want = exact_quadratic_fit_at(sorted(anchors), query)
        assert fit_anchors(anchors).parabola is not None
        if Fraction(1, 10**6) < want < 1:  # away from the clamp
            assert abs(Fraction(eff) - want) <= Fraction(1, 10**8) * want


class TestOffOptimalEfficiency:
    def test_published_oversupply_point(self):
        assert efficiency_at_count(10000, 1500, 0.47) == pytest.approx(0.197, abs=1e-4)

    def test_at_optimum_unchanged(self):
        assert efficiency_at_count(1500, 1500, 0.47) == 0.47

    def test_mild_oversupply_arithmetic(self):
        assert efficiency_at_count(3000, 1500, 0.47) == pytest.approx(0.5 * 0.47 + 0.1265)

    def test_undersupply_scales_linearly(self):
        assert efficiency_at_count(750, 1500, 0.47) == pytest.approx(0.5 * 0.47)

    def test_undersupply_is_a_strict_penalty(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(10, 100000)
            re = rng.randrange(1, n)
            eff_n = rng.uniform(0.05, 1.0)
            assert efficiency_at_count(re, n, eff_n) < eff_n

    def test_near_continuity_at_the_optimum(self):
        n, eff_n = 1500, 0.47
        at = efficiency_at_count(n, n, eff_n)
        below = efficiency_at_count(n - 1, n, eff_n)
        above = efficiency_at_count(n + 1, n, eff_n)
        assert abs(below - at) < eff_n / n + 1e-9
        assert abs(above - at) < eff_n / n + 0.1265 + 1e-9

    def test_result_capped_at_one(self):
        # (1000 / 1001) * 1.0 + GAMMA2 is above 1.
        assert efficiency_at_count(1001, 1000, 1.0) == 1.0

    @pytest.mark.parametrize("actual, optimal, eff, message", [
        (math.nan, 1500, 0.47, "device counts must be integers >= 1"),
        (math.inf, 1500, 0.47, "device counts must be integers >= 1"),
        (1.5, 1500, 0.47, "device counts must be integers >= 1"),
        (True, 1500, 0.47, "device counts must be integers >= 1"),
        (1500, 0, 0.47, "device counts must be integers >= 1"),
        (1500, "1500", 0.47, "device counts must be integers >= 1"),
        (1500, 1500, math.nan, "optimal_eff must lie in (0, 1], got nan"),
        (1500, 1500, 1.5, "optimal_eff must lie in (0, 1], got 1.5"),
        (1500, 1500, "0.47", "optimal_eff must lie in (0, 1], got '0.47'"),
        (1500, 1500, 10 ** 400, "optimal_eff is beyond the float range"),
    ])
    def test_inputs_fail_by_name(self, actual, optimal, eff, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            efficiency_at_count(actual, optimal, eff)

    def test_counts_beyond_the_float_range_are_counts(self):
        assert efficiency_at_count(10 ** 400, 10 ** 400, 0.47) == 0.47


def test_optimal_device_count_scales_from_published_anchor():
    assert efficiency._optimum(175e9) == 1500
    assert efficiency._optimum(350e9) == 3000
