"""Metamorphic relations of the whole estimate chain.

The golden pins show that the bits did not move, not that the model is
right. These relations need no oracle: changing one input by a factor k must
change certain outputs by exactly k, up to the rounding of the float chain,
and leave others alone. They run over the seeded training requests of
``seeded.inputs(11, 3000)`` that the chain prices and that carry no
measured-FLOPs override (1,309 of them), each estimated once as drawn and
once per k.

- Tokens: training FLOPs are 6·P·D, so the duration, the hardware energy and
  both the operational and the embodied tCO2 scale with the token count, and
  more tokens never raise the loss.
- FLOPs: the duration, the hardware energy and both the operational and the
  embodied tCO2 scale with a measured-FLOPs override, from a base of the
  chain's own 6·P·D at the request's full count P; the loss, the efficiency
  and the plan do not read it.
- Parameters: at a fixed token count, a larger explicit parameter count never
  raises the loss, and a smaller one never lowers it.
- Data center: operational tCO2 scales with the carbon intensity and
  operational energy with the PUE; embodied tCO2 does not read the data
  center at all, so it stays bit-identical.
- Lifecycle: inference and experimentation shares a and b weight the
  training estimate by 1 + a + b, its line items included, and a storage
  workload adds its own part once, priced alone from the public stage
  functions. The efficiency, loss and plan are the training estimate's.

A relative error is given in units of 2**-52, the spacing of floats at 1.0.
"""

import pytest
import seeded

from carboncast.flops import training_flops
from carboncast.operational import StorageWorkload, operational_carbon, storage_energy
from carboncast.params import count_params
from carboncast.pipeline import EstimateRequest, LifecyclePlan, estimate, estimate_lifecycle
from carboncast.types import LineItem, ModelError, Phase
from carboncast.units import days_to_seconds

FACTORS = (0.1, 0.5, 2.0, 3.0, 7.3, 10.0)
ULP = 2.0 ** -52

# The token count passes through a few more roundings (FLOPs, seconds,
# energy, carbon) than a data-center factor (one product each); the worst
# seen over these inputs was about 3.2 and 1.4.
TOKENS_BOUND = 4 * ULP
DATA_CENTER_BOUND = 2 * ULP
# A measured FLOP count passes through the same roundings as the token
# count, less the FLOP product; the worst seen was about 2.8.
FLOPS_BOUND = 4 * ULP

# Each weighted field and line item is one product (plus one sum with a
# storage part) on either side, so it matches exactly. The lifecycle total
# adds two weighted products where the relation weights the training total:
# five roundings of at most half an ulp each, and the worst seen is 1.9.
LIFECYCLE_TOTAL_BOUND = 2.5 * ULP
# (inference_share, experimentation_share) pairs.
SHARES = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.25), (1.7, 0.3), (9.0, 4.5))
WEIGHTED = ("duration_seconds", "hardware_energy_mwh", "operational_energy_mwh",
            "operational_tco2", "embodied_tco2")

SCALED_BY_TOKENS = ("duration_seconds", "hardware_energy_mwh", "operational_tco2",
                    "embodied_tco2", "total_tco2")


@pytest.fixture(scope="module")
def priced():
    """(request, report) for each eligible seeded training request."""
    pairs = []
    for req in seeded.inputs(11, 3000):
        if (isinstance(req, EstimateRequest) and req.phase is Phase.TRAINING
                and req.overrides.measured_flops is None):
            try:
                pairs.append((req, estimate(req)))
            except ModelError:
                pass  # a seeded broken input
    assert len(pairs) >= 500
    return pairs


def relative_error(scaled: float, base: float, k: float) -> float:
    """How far ``scaled`` is from ``k * base``, relative to it."""
    want = k * base
    return abs(scaled - want) / want if want else abs(scaled)


@pytest.mark.parametrize("k", FACTORS)
def test_scaling_tokens_scales_carbon_energy_and_duration(priced, k):
    for req, base in priced:
        report = estimate(req.replace(tokens=req.tokens * k))
        for field in SCALED_BY_TOKENS:
            error = relative_error(getattr(report, field), getattr(base, field), k)
            assert error <= TOKENS_BOUND, (
                f"{req.arch.name}: {field} off by {error / ULP:.2f} ulp at k={k}")
        # More tokens never raise the loss; fewer never lower it.
        assert (report.test_loss <= base.test_loss if k > 1
                else report.test_loss >= base.test_loss), req.arch.name


@pytest.mark.parametrize("k", FACTORS)
def test_scaling_measured_flops_scales_carbon_energy_and_duration(priced, k):
    for req, _ in priced:
        flops = training_flops(count_params(req.arch).total, req.tokens).total_flops
        base, report = (estimate(req.replace(overrides=req.overrides.replace(measured_flops=f)))
                        for f in (flops, flops * k))
        for field in SCALED_BY_TOKENS:
            error = relative_error(getattr(report, field), getattr(base, field), k)
            assert error <= FLOPS_BOUND, (
                f"{req.arch.name}: {field} off by {error / ULP:.2f} ulp at k={k}")
        assert (report.test_loss, report.hardware_efficiency, report.parallelism) == (
            base.test_loss, base.hardware_efficiency, base.parallelism), req.arch.name


# The loss law is checked exactly: no ulp of slack. The smallest change of
# the loss seen over these inputs was about 1.6e13 ulp of the loss.
@pytest.mark.parametrize("k", FACTORS)
def test_more_parameters_never_raise_the_loss(priced, k):
    for req, base in priced:
        count = k * count_params(req.arch).total
        report = estimate(req.replace(arch=req.arch.replace(explicit_param_count=count)))
        assert (report.test_loss <= base.test_loss if k > 1
                else report.test_loss >= base.test_loss), (
            f"{req.arch.name}: loss {report.test_loss!r} at k={k}, {base.test_loss!r} at 1")


@pytest.mark.parametrize("k", FACTORS)
def test_scaling_carbon_intensity_scales_operational_carbon(priced, k):
    for req, base in priced:
        center = req.data_center
        report = estimate(req.replace(
            data_center=center.replace(carbon_intensity=center.carbon_intensity * k)))
        error = relative_error(report.operational_tco2, base.operational_tco2, k)
        assert error <= DATA_CENTER_BOUND, (
            f"{req.arch.name}: operational_tco2 off by {error / ULP:.2f} ulp at k={k}")
        assert report.embodied_tco2 == base.embodied_tco2, req.arch.name


# A PUE below 1 is refused, and the seeded PUEs lie in [1.05, 1.6].
@pytest.mark.parametrize("k", [k for k in FACTORS if k > 1])
def test_scaling_pue_scales_operational_energy(priced, k):
    for req, base in priced:
        center = req.data_center
        report = estimate(req.replace(data_center=center.replace(pue=center.pue * k)))
        error = relative_error(report.operational_energy_mwh, base.operational_energy_mwh, k)
        assert error <= DATA_CENTER_BOUND, (
            f"{req.arch.name}: operational_energy_mwh off by {error / ULP:.2f} ulp at k={k}")
        assert report.embodied_tco2 == base.embodied_tco2, req.arch.name


def storage_part(storage: StorageWorkload, center) -> tuple:
    """``storage`` priced alone: its seconds, hardware MWh, facility MWh and
    operational tCO2, then its stored and moved MWh."""
    stored, moved = storage_energy(storage)
    facility, carbon = operational_carbon(stored + moved, center)
    return days_to_seconds(storage.duration_days), stored + moved, facility, carbon, stored, moved


@pytest.mark.parametrize("shares", SHARES, ids=lambda shares: "a={}-b={}".format(*shares))
@pytest.mark.parametrize("storage", [None, StorageWorkload(12.5, 80.0, 90.0)],
                         ids=["no-storage", "storage"])
def test_a_lifecycle_is_the_weighted_estimate_plus_its_storage(priced, shares, storage):
    weight = 1.0 + shares[0] + shares[1]  # summed as estimate_lifecycle sums it
    for req, base in priced:
        report = estimate_lifecycle(LifecyclePlan(req, *shares, storage=storage))
        want = [weight * getattr(base, field) for field in WEIGHTED]
        want_total = weight * base.total_tco2
        items = [LineItem(item.unit, item.count, weight * item.energy_mwh,
                          weight * item.embodied_tco2) for item in base.line_items]
        if storage is not None:
            seconds, hardware, facility, carbon, stored, moved = storage_part(
                storage, req.data_center)
            want = [value + part for value, part in zip(want, (seconds, hardware, facility,
                                                                carbon, 0.0))]
            want_total += carbon
            items += [LineItem("storage", 1, stored), LineItem("transfer", 1, moved)]
        for field, value in zip(WEIGHTED, want):
            assert getattr(report, field) == value, f"{req.arch.name}: {field}"
        assert report.line_items == tuple(items), req.arch.name
        error = relative_error(report.total_tco2, want_total, 1.0)
        assert error <= LIFECYCLE_TOTAL_BOUND, (
            f"{req.arch.name}: total_tco2 off by {error / ULP:.2f} ulp")
        assert report.phase is Phase.LIFECYCLE
        assert (report.hardware_efficiency, report.test_loss, report.parallelism) == (
            base.hardware_efficiency, base.test_loss, base.parallelism), req.arch.name
