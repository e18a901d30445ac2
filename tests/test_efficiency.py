"""Parallelism planner and hardware-efficiency model."""

import io
import math
import random
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from carboncast import catalog, efficiency
from carboncast.efficiency import (
    efficiency_at_count,
    fit_anchors,
    optimal_efficiency,
    plan_parallelism,
)
from carboncast.types import ModelError, ParallelismPlan, plain_sum


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

    # 1e3 GB leaves an inf depth; 1e300 GB is inf bytes, like the state of
    # 1e308 parameters, and inf over inf is a NaN depth. An int size is
    # shown as the float it is priced as, not in all its digits.
    @pytest.mark.parametrize("device_memory_gb, shown_as", [
        pytest.param(1e3, "1000.0", id="inf-depth"),
        pytest.param(1e300, "1e+300", id="nan-depth"),
        pytest.param(10 ** 300, "1e+300", id="int-nan-depth"),
    ])
    def test_a_depth_a_float_cannot_hold_is_a_model_error(self, device_memory_gb, shown_as):
        message = (f"the pipeline depth for 1e+308 parameters in {shown_as} GB "
                   "devices overflows a float")
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            plan_parallelism(1e308, device_memory_gb=device_memory_gb)

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

    # An iterator is empty only once it has been read.
    @pytest.mark.parametrize("anchors", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_empty_anchor_table_is_an_error(self, anchors):
        with pytest.raises(ModelError, match="^efficiency anchor table is empty$"):
            optimal_efficiency(175e9, anchors=anchors)

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
        ([(1e9, 0.5, 1)], r"anchor 0: expected a \(param_count, efficiency\) pair, "
                          r"got \(1000000000.0, 0.5, 1\)$"),
        ([(1e9, 0.5), (1e9,)], r"anchor 1: expected a \(param_count, efficiency\) pair, "
                               r"got \(1000000000.0,\)$"),
        ([1e9], r"anchor 0: expected a \(param_count, efficiency\) pair, got 1000000000.0$"),
        # Python formats no int of more than 4,300 digits.
        ([(10 ** 5000, 0.5, 1)], r"anchor 0: expected a \(param_count, efficiency\) pair, "
                                 r"got a tuple$"),
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


def exact_rank_ratio(points):
    """The share of its norm that the t^2 column of the fit keeps once the
    columns 1 and t are projected out, in exact arithmetic on the anchors'
    float log sizes: what the fit's rank test estimates with rounding."""
    xs = [Fraction(math.log10(p)) for p, _ in points]
    mean = sum(xs) / len(xs)
    ts = [x - mean for x in xs]
    squares = [t * t for t in ts]
    mean_square = sum(squares) / len(squares)
    centred = [v - mean_square for v in squares]
    along_t = sum(t * v for t, v in zip(ts, centred))
    residual = sum(v * v for v in centred) - along_t * along_t / sum(t * t for t in ts)
    return math.sqrt(residual / sum(v * v for v in squares))


# Tables like the benchmark's: 3-5 anchors, log-uniform over 1 B - 1 T.
anchor_tables = st.lists(
    st.tuples(st.floats(9.0, 12.0).map(lambda e: 10.0 ** e), st.floats(0.38, 0.52)),
    min_size=3, max_size=5, unique_by=lambda a: math.log10(a[0]))


class TestRegression:
    # Two of these sizes agree to 15 digits: no parabola is fixed by them.
    @example([(1e9, 0.5), (1e10, 0.5), (1.000000000000004e9, 0.5)], 1e10)
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(anchor_tables, st.floats(8.0, math.log10(1.6e12)).map(lambda e: 10.0 ** e))
    def test_fit_matches_exact_least_squares(self, anchors, query):
        ratio = exact_rank_ratio(anchors)
        if ratio < 1e-13:
            with pytest.raises(ModelError, match="^efficiency anchors are too close in size"):
                fit_anchors(anchors)
            return
        if ratio <= 1e-11:  # the rank test rounds: this near its 1e-12 bound, either way
            try:
                assert fit_anchors(anchors).parabola is not None
            except ModelError as exc:
                assert str(exc).startswith("efficiency anchors are too close in size")
            return
        eff = optimal_efficiency(query, anchors=anchors)
        want = exact_quadratic_fit_at(sorted(anchors), query)
        assert fit_anchors(anchors).parabola is not None
        if Fraction(1, 10**6) < want < 1:  # away from the clamp
            assert abs(Fraction(eff) - want) <= Fraction(1, 10**8) * want


def generic_mgs_fit(xs, ys):
    """Modified Gram-Schmidt over the columns 1, t, t^2 and ys as a loop over
    the columns: the fit before its steps were unrolled, kept as the
    reference that the unrolled one must match bit for bit."""
    mean = plain_sum(xs) / len(xs)
    ts = [xi - mean for xi in xs]
    cols = [[1.0] * len(ts), ts, [t * t for t in ts], list(ys)]
    scales = [math.sqrt(plain_sum(map(mul, col, col))) for col in cols[:3]]
    r = [[0.0] * 4 for _ in range(3)]
    for k in range(3):
        col, rk = cols[k], r[k]
        norm = math.sqrt(plain_sum(map(mul, col, col)))
        if norm <= efficiency._RANK_TOL * scales[k]:
            raise ModelError("efficiency anchors are too close in size to fit a parabola")
        q = cols[k] = [v / norm for v in col]
        rk[k] = norm
        for j in range(k + 1, 4):
            cj = cols[j]
            rkj = rk[j] = plain_sum(map(mul, q, cj))
            cols[j] = [b - rkj * a for a, b in zip(q, cj)]
    c2 = r[2][3] / r[2][2]
    c1 = (r[1][3] - r[1][2] * c2) / r[1][1]
    c0 = (r[0][3] - r[0][1] * c1 - r[0][2] * c2) / r[0][0]
    return mean, c0, c1, c2


@st.composite
def oracle_tables(draw):
    """Eight tables of 3 to 12 anchors with sizes from 1 to 1e300. A table's
    log sizes are spread out, or lie a few ulps around one to four centres,
    so that a table of one or two centres trips the rank test; its
    efficiencies are drawn fresh, or from a pool of one to three, so that
    they repeat. Hypothesis draws the centres, the pool and a seed, and the
    seed places the anchors: a draw per anchor makes 2,000 tables take
    seconds."""
    centres = draw(st.lists(st.floats(0.0, 300.0), min_size=1, max_size=4))
    pool = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    tables = []
    while len(tables) < 8:
        spread, repeat, n = rng.random() < 0.25, rng.random() < 0.5, rng.randint(3, 12)
        near = rng.sample(centres, rng.randint(1, len(centres)))
        table = {}  # log10(size) -> anchor
        for _ in range(4 * n):
            c = rng.uniform(0.0, 300.0) if spread else rng.choice(near)
            size = min(max(10.0 ** (c + rng.randint(-64, 64) * math.ulp(max(c, 1.0))), 1.0), 1e300)
            e = rng.choice(pool) if repeat else rng.uniform(1e-6, 1.0)
            table.setdefault(math.log10(size), (size, e))
            if len(table) == n:
                break
        if len(table) >= 3:
            tables.append(list(table.values()))
    return tables


def outcome(fit, *args):
    try:
        return tuple(v.hex() for v in fit(*args))
    except ModelError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(oracle_tables())
def test_unrolled_fit_has_the_bits_of_the_generic_loop(tables):
    for anchors in tables:
        by_log = {math.log10(p): e for p, e in anchors}
        xs = tuple(sorted(by_log))
        ys = tuple(by_log[x] for x in xs)
        assert outcome(lambda: fit_anchors(anchors).parabola) == outcome(generic_mgs_fit, xs, ys)


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


def _edges(*bounds):
    """Each bound with the floats either side of it, then 0 and the
    non-finite floats."""
    return ([x for b in bounds for x in (math.nextafter(b, -math.inf), b,
                                           math.nextafter(b, math.inf))]
            + [0.0, math.inf, -math.inf, math.nan])


def _at_count_unclamped(re, n, eff):
    if re == n:
        return eff
    return (re / n) * eff if re < n else (n / re) * eff + efficiency.GAMMA2


def _planned_with_min_max(param_count, is_moe, device_memory_gb):
    """The degrees of plan_parallelism, with its floors as the max calls
    they replaced; the tensor degree is the planner's own."""
    tensor = plan_parallelism(param_count, is_moe, device_memory_gb).tensor
    depth = (efficiency.TRAINING_BYTES_PER_PARAM * param_count
             / (tensor * (device_memory_gb * 1e9)))
    pipeline = max(1, math.ceil(depth))
    if is_moe:
        return ParallelismPlan(pipeline, tensor, 1, efficiency.DEFAULT_EXPERT_PARALLELISM)
    optimum = max(1, round(param_count * efficiency._OPTIMAL_DEVICES_PER_PARAM))
    return ParallelismPlan(pipeline, tensor, max(1, round(optimum / (tensor * pipeline))), 1)


def _clamp_cases():
    """(new, old) pairs: a floor or clamp of the model and the min/max
    expression it replaced, at values where the bound binds, ties or not."""
    for c0 in _edges(1e-6, 1.0):
        yield pytest.param(
            lambda c0=c0: efficiency.AnchorCurve(parabola=(0.0, c0, 0.0, 0.0)).at(10.0),
            lambda c0=c0: min(1.0, max(1e-6, 0.0 + c0)), id=f"AnchorCurve.at-{c0!r}")
    # At the optimum the clamp meets the optimal efficiency itself.
    counts = [(5, 5)] + [(1, 10 ** 9), (1, 10 ** 12), (10 ** 6 + 1, 10 ** 6), (10 ** 12, 1)]
    for re, n in counts:
        for eff in _edges(1e-9, 1.0) if re == n else [math.nextafter(1.0, 0.0), 1.0]:
            yield pytest.param(
                lambda re=re, n=n, eff=eff: (efficiency._at_count(re, n, eff) if re == n
                                             else efficiency_at_count(re, n, eff)),
                lambda re=re, n=n, eff=eff: min(1.0, max(1e-9, _at_count_unclamped(re, n, eff))),
                id=f"efficiency_at_count-{re}-{n}-{eff!r}")
    # Sizes whose optimum rounds to 0 and to 1, or to either side of 1.
    for p in [5e-324, 1.0, 175e9 / 1500 / 2, 175e9 / 1500, 175e9 / 1500 * 1.4]:
        yield pytest.param(
            lambda p=p: efficiency._optimum(p),
            lambda p=p: max(1, round(p * efficiency._OPTIMAL_DEVICES_PER_PARAM)),
            id=f"_optimum-{p!r}")
    # The pipeline floor binds where the depth is 0 or ties at 1; the data
    # floor where the pipeline is deep enough for the optimum to round to 0.
    for p, is_moe, gb in [(5e-324, False, 32.0), (1.0, False, 32.0), (1e9, False, 1e300),
                          (175e9, False, 1e-3), (175e9, True, 1e-3), (5e-324, True, 32.0)]:
        yield pytest.param(
            lambda p=p, is_moe=is_moe, gb=gb: plan_parallelism(p, is_moe, gb),
            lambda p=p, is_moe=is_moe, gb=gb: _planned_with_min_max(p, is_moe, gb),
            id=f"plan_parallelism-{p!r}-{'moe' if is_moe else 'dense'}-{gb!r}GB")


@pytest.mark.parametrize("new, old", _clamp_cases())
def test_floors_and_clamps_return_what_min_and_max_did(new, old):
    # repr tells an int from a float, and -0.0 from 0.0.
    assert repr(new()) == repr(old())
