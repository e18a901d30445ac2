"""Domain-type invariants, record semantics, unit conversions and the public
surface."""

import copy
import inspect
import math
import pickle
import re
import sys

import pytest

import carboncast
from carboncast import units
from carboncast.types import (
    ArchKind,
    CarbonReport,
    CatalogError,
    DataCenterProfile,
    ExpertGroup,
    FleetEntry,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LineItem,
    LlmArchitecture,
    ModelError,
    ParallelismPlan,
    Phase,
    Record,
    ScalingConstants,
    check_report_floats,
    plain_sum,
    shown,
)
from carboncast.efficiency import efficiency_at_count, optimal_efficiency
from carboncast.flops import FlopBudget
from carboncast.operational import StorageWorkload, device_time, hardware_energy
from carboncast.pipeline import EstimateRequest, LifecyclePlan, Overrides, sweep
from carboncast.scaling import LossPrediction, test_loss as predict_loss
from carboncast.validation import TRAINING_FIXTURES, ValidationRow


def gpt3_arch():
    return LlmArchitecture(name="gpt3", kind=ArchKind.DENSE_GPT,
                           hidden_size=12288, layer_count=96, vocab_size=51200)


def arch_error(**fields):
    """The message of the ModelError that building an architecture raises."""
    with pytest.raises(ModelError) as err:
        LlmArchitecture(**{"name": "bad", **fields})
    return str(err.value)


class TestValidateArchitecture:
    """An architecture checks every rule the parameter model needs when it is
    built, and names every rule it breaks in one message."""

    def test_gpt3_shape_is_valid(self):
        assert gpt3_arch().hidden_size == 12288

    def test_moe_fraction_zero_is_flagged(self):
        assert arch_error(kind=ArchKind.MOE, hidden_size=1024, layer_count=24,
                          moe_fraction=0.0, expert_groups=(ExpertGroup(1.0, 64),)
                          ) == "moe_fraction: must lie in (0, 1]"

    def test_expert_fractions_must_sum_to_one(self):
        assert arch_error(kind=ArchKind.MOE, hidden_size=1024, layer_count=24,
                          moe_fraction=0.5,
                          expert_groups=(ExpertGroup(0.5, 64), ExpertGroup(0.3, 128)),
                          ) == "expert_groups: layer fractions sum to 0.8, expected 1"

    def test_nonpositive_counts_flagged_per_field(self):
        message = arch_error(kind=ArchKind.DENSE_GPT, hidden_size=0, layer_count=-1,
                             vocab_size=0)
        assert {p.split(":")[0] for p in message.split("; ")} == {
            "hidden_size", "layer_count", "vocab_size"}

    def test_every_number_field_breaking_its_rule_is_listed(self):
        dense = arch_error(kind=ArchKind.DENSE_GPT, hidden_size="5", layer_count=math.nan,
                           vocab_size=True, head_count=2.5, head_dim=10 ** 400,
                           ff_size=-10 ** 5000, ff_stacks=True, base_model_param_count="5")
        assert dense.split("; ") == [
            "base_model_param_count: must be a positive number",
            "hidden_size: must be a positive integer",
            "layer_count: must be a positive integer",
            "vocab_size: must be a positive integer",
            "head_count: must be a positive integer when given",
            "ff_size: must be a positive integer when given",
            "ff_stacks: must be an integer >= 1",
        ]
        moe = arch_error(kind=ArchKind.MOE, hidden_size=2.5, layer_count=2, moe_fraction=True,
                         expert_groups=(ExpertGroup(10 ** 400, 2.5), ExpertGroup("1", 8)))
        assert moe.split("; ") == [
            "hidden_size: must be a positive integer",
            "moe_fraction: must lie in (0, 1]",
            "expert_groups[0].layer_fraction: must be positive",
            "expert_groups[0].expert_count: must be a positive integer",
            "expert_groups[1].layer_fraction: must be positive",
        ]

    @pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, "5", True,
                                       pytest.param(10 ** 400, id="1e400"),
                                       pytest.param(-10 ** 5000, id="-1e5000")])
    @pytest.mark.parametrize("fname", ["explicit_param_count", "base_model_param_count"])
    def test_parameter_counts_must_be_positive_finite_numbers(self, fname, value):
        # With no explicit count, the shape fields must be given as well.
        shape = {} if fname == "explicit_param_count" else {
            "hidden_size": 64, "layer_count": 2, "vocab_size": 100}
        message = arch_error(kind=ArchKind.DENSE_GPT, **shape, **{fname: value})
        assert message.split("; ")[0] == f"{fname}: must be a positive number"

    @pytest.mark.parametrize("value", [0.5, 0.999])
    def test_an_explicit_count_below_one_is_refused(self, value):
        # It would be counted as 0 parameters.
        message = arch_error(kind=ArchKind.DENSE_GPT, explicit_param_count=value)
        assert message.split("; ")[0] == f"explicit_param_count: must be at least 1, got {value!r}"
        assert LlmArchitecture(name="m", kind=ArchKind.DENSE_GPT,
                               explicit_param_count=1.0).explicit_param_count == 1.0

    def test_explicit_count_waives_structural_fields(self):
        for kind in ArchKind:
            arch = LlmArchitecture(name="opaque", kind=kind,
                                   explicit_param_count=175_000_000_000)
            assert arch.explicit_param_count == 175_000_000_000

    @pytest.mark.parametrize("kind", [ArchKind.DENSE_ENCDEC, ArchKind.DENSE_DECONLY])
    def test_layer_pairs_need_heads_and_ff_width(self, kind):
        assert arch_error(kind=kind, hidden_size=512, layer_count=4, vocab_size=100
                          ).split("; ") == [
            f"head_count: required for {kind.value} architectures",
            f"head_dim: required for {kind.value} architectures",
            f"ff_size: required for {kind.value} architectures",
        ]
        assert arch_error(kind=kind, hidden_size=512, layer_count=4, vocab_size=100,
                          head_count=8, head_dim=0, ff_size=2048
                          ) == "head_dim: must be a positive integer when given"

    def test_expert_fields_rejected_on_dense(self):
        assert arch_error(kind=ArchKind.DENSE_GPT, hidden_size=8, layer_count=2, vocab_size=16,
                          moe_fraction=0.5) == "moe_fraction: only valid for MoE architectures"

    def test_a_fault_in_the_groups_is_listed_with_the_others_and_they_are_not_read(self):
        assert arch_error(kind=ArchKind.MOE, hidden_size=0, layer_count=2,
                          expert_groups=(ExpertGroup(0.5, 8), (0.5, 8))).split("; ") == [
            "hidden_size: must be a positive integer",
            "moe_fraction: required for MoE architectures",
            "expert_groups[1] must be an ExpertGroup, got tuple",
        ]
        assert arch_error(kind=ArchKind.MOE, hidden_size=64, layer_count=2, moe_fraction=0.5
                          ) == "expert_groups: required for MoE architectures"

    def test_kind_must_be_an_arch_kind(self):
        assert arch_error(kind="dense_gpt", explicit_param_count=10 ** 9
                          ) == "kind: must be an ArchKind, got 'dense_gpt'"

    def test_every_rule_is_named_in_one_message(self):
        assert arch_error(name=None, kind=ArchKind.DENSE_GPT, hidden_size=0, layer_count=2,
                          vocab_size=100) == ("architecture name must be a str, got None; "
                                              "hidden_size: must be a positive integer")


class TestHardwareUnit:
    def test_accelerator_requires_peak(self):
        with pytest.raises(CatalogError, match="peak_tflops"):
            HardwareUnit(name="gpu", role=HardwareRole.ACCELERATOR,
                         die_area_mm2=815, cpa=1.2, cpa_basis="area")

    def test_some_pricing_basis_required(self):
        with pytest.raises(CatalogError, match="basis"):
            HardwareUnit(name="mystery", role=HardwareRole.OTHER)

    def test_override_wins_as_basis(self):
        u = HardwareUnit(name="ssd", role=HardwareRole.SSD,
                         capacity_gb=32768, cpa=0.4, cpa_basis="gb",
                         embodied_kg_override=576.0)
        assert u.embodied_basis == "override"

    @pytest.mark.parametrize("basis, size, message", [
        ("area", {"capacity_gb": 80.0}, "x: area basis needs die_area_mm2 and cpa"),
        ("gb", {"die_area_mm2": 815.0}, "x: gb basis needs capacity_gb and cpa"),
    ])
    def test_a_named_basis_needs_its_own_size(self, basis, size, message):
        with pytest.raises(CatalogError, match=f"^{message}$"):
            HardwareUnit(name="x", role=HardwareRole.OTHER, cpa=1.2, cpa_basis=basis, **size)

    def test_lifetime_must_be_positive(self):
        with pytest.raises(CatalogError, match="lifetime"):
            HardwareUnit(name="x", role=HardwareRole.OTHER,
                         embodied_kg_override=1.0, lifetime_years=0.0)

    @pytest.mark.parametrize("fname, value", [
        ("peak_tflops", math.nan), ("tdp_watts", math.inf), ("tdp_watts", -5.0),
        ("avg_system_power_watts", math.nan), ("die_area_mm2", math.inf), ("cpa", -1.0),
        ("capacity_gb", math.nan), ("embodied_kg_override", -math.inf),
        ("lifetime_years", math.nan), ("lifetime_years", math.inf), ("lifetime_years", None),
        ("tdp_watts", "5"), ("avg_system_power_watts", True),
        pytest.param("embodied_kg_override", 10 ** 400, id="embodied_kg_override-1e400"),
    ])
    def test_numbers_must_be_finite_and_non_negative(self, fname, value):
        fields = {"peak_tflops": 125.0, "tdp_watts": 300.0, "die_area_mm2": 815.0,
                  "cpa": 1.2, "cpa_basis": "area", fname: value}
        fault = "is beyond the float range" if value == 10 ** 400 else "must be finite and >= 0"
        with pytest.raises(CatalogError, match=f"^gpu: {fname} {fault}"):
            HardwareUnit(name="gpu", role=HardwareRole.ACCELERATOR, **fields)


class TestFleet:
    def test_single_accelerator_only(self):
        v100 = HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR,
                            peak_tflops=125, die_area_mm2=815, cpa=1.2, cpa_basis="area")
        a100 = HardwareUnit(name="A100", role=HardwareRole.ACCELERATOR,
                            peak_tflops=312, die_area_mm2=826, cpa=1.6, cpa_basis="area")
        with pytest.raises(CatalogError, match="multiple accelerator"):
            HardwareFleet.of((v100, 8), (a100, 8))

    def test_counts_positive(self):
        v100 = HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR,
                            peak_tflops=125, die_area_mm2=815, cpa=1.2, cpa_basis="area")
        with pytest.raises(CatalogError, match="count"):
            HardwareFleet.of((v100, 0))

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: HardwareFleet.of(("V100", 8)),
                     "fleet entry 'V100': unit must be a HardwareUnit, got str", id="fleet-of-name"),
        pytest.param(lambda: FleetEntry("V100", 8),
                     "fleet entry 'V100': unit must be a HardwareUnit, got str", id="entry-name"),
        pytest.param(lambda: FleetEntry(None, 8),
                     "fleet entry: unit must be a HardwareUnit, got NoneType", id="entry-none"),
        # An int this long has no repr, so the message shows its type alone.
        pytest.param(lambda: FleetEntry(10 ** 5000, 8),
                     "fleet entry: unit must be a HardwareUnit, got int", id="entry-long-int"),
    ])
    def test_unit_must_be_a_hardware_unit(self, build, message):
        with pytest.raises(CatalogError) as caught:
            build()
        assert str(caught.value) == message


class TestDataCenter:
    def test_pue_below_one_rejected(self):
        with pytest.raises(CatalogError, match="pue"):
            DataCenterProfile(name="dc", pue=0.9, carbon_intensity=0.4)

    def test_negative_intensity_rejected(self):
        with pytest.raises(CatalogError, match="carbon_intensity"):
            DataCenterProfile(name="dc", pue=1.1, carbon_intensity=-0.1)

    @pytest.mark.parametrize("fname", ["pue", "carbon_intensity"])
    def test_nan_rejected(self, fname):
        values = {"pue": 1.1, "carbon_intensity": 0.4, fname: math.nan}
        with pytest.raises(CatalogError, match=f"^dc: {fname} must be finite and >= "):
            DataCenterProfile(name="dc", **values)

    @pytest.mark.parametrize("fname", ["pue", "carbon_intensity"])
    def test_inf_rejected(self, fname):
        values = {"pue": 1.1, "carbon_intensity": 0.4, fname: math.inf}
        with pytest.raises(CatalogError, match=f"^dc: {fname} must be finite and >= "):
            DataCenterProfile(name="dc", **values)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"pue": "1.1"}, "dc: pue must be finite and >= 1.0, got '1.1'",
                     id="pue-str"),
        pytest.param({"carbon_intensity": 10 ** 400},
                     "dc: carbon_intensity is beyond the float range", id="intensity-1e400"),
        pytest.param({"pue": 10 ** 400}, "dc: pue is beyond the float range", id="pue-1e400"),
    ])
    def test_numbers_fail_by_name(self, change, message):
        values = {"pue": 1.1, "carbon_intensity": 0.4, **change}
        with pytest.raises(CatalogError, match="^" + re.escape(message)):
            DataCenterProfile(name="dc", **values)


class TestCarbonReport:
    def test_total_must_be_additive(self):
        with pytest.raises(ModelError, match="total_tco2"):
            CarbonReport(phase=Phase.TRAINING, duration_seconds=1.0,
                         hardware_energy_mwh=1.0, operational_energy_mwh=1.1,
                         operational_tco2=2.0, embodied_tco2=1.0, total_tco2=2.5)

    @pytest.mark.parametrize("fname, value", [
        ("duration_seconds", math.nan), ("hardware_energy_mwh", math.inf),
        ("operational_energy_mwh", -1.0), ("hardware_efficiency", math.nan),
        ("test_loss", math.inf),
        # NaN and inf totals break additivity too, but are named for what they are.
        ("operational_tco2", math.nan), ("embodied_tco2", math.inf), ("total_tco2", math.inf),
        # Only the test loss may be None; a None carbon would fail additivity as a TypeError.
        ("duration_seconds", None), ("operational_tco2", None),
        # A bool compares as a number, but is refused; a bool total is named
        # for what it is, not as an additivity fault.
        ("duration_seconds", True), ("embodied_tco2", False), ("total_tco2", True),
        ("hardware_efficiency", True), ("test_loss", False),
    ])
    def test_numbers_must_be_finite_and_non_negative(self, fname, value):
        fields = {"duration_seconds": 1.0, "hardware_energy_mwh": 1.0,
                  "operational_energy_mwh": 1.1, "operational_tco2": 2.0,
                  "embodied_tco2": 1.0, "total_tco2": 3.0, fname: value}
        with pytest.raises(ModelError, match=f"^{fname} must be finite and >= 0"):
            CarbonReport(phase=Phase.TRAINING, **fields)

    # An int a float cannot hold is refused by the number rule, before any
    # message formats it.
    @pytest.mark.parametrize("value", [10 ** 400, 10 ** 5000], ids=["1e400", "1e5000"])
    def test_an_int_beyond_the_float_range_is_refused(self, value):
        with pytest.raises(ModelError, match="^duration_seconds is beyond the float range$"):
            CarbonReport(Phase.TRAINING, value, 1.0, 1.1, 2.0, 1.0, 3.0)

    @pytest.mark.parametrize("value", [True, False])
    def test_the_stage_check_refuses_a_bool_as_the_report_does(self, value):
        floats = dict(zip(CarbonReport._fields[1:9], (1.0, 1.0, 1.1, 2.0, 1.0, 3.0, 0.5, None)))
        message = f"embodied_tco2 must be finite and >= 0, got {value}"
        with pytest.raises(ModelError, match=f"^{message}$"):
            check_report_floats(**{**floats, "embodied_tco2": value})
        check_report_floats(**floats)

    def test_int_fields_and_subclasses_are_admitted(self):
        # Past the one chain for float fields and exact types, the fallback admits them.
        class Item(LineItem):
            __slots__ = ()

        for numbers in ((10, 1, 1, 2, 1, 3, 1, 2), (10.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0)):
            value = CarbonReport(Phase.INFERENCE, *numbers, None, (LineItem("a", 1), Item("b", 2)))
            assert value.total_tco2 == 3 and type(value.line_items[1]) is Item


BOX = HardwareUnit(name="box", role=HardwareRole.OTHER, embodied_kg_override=1.0)
GPU = HardwareUnit(name="gpu", role=HardwareRole.ACCELERATOR, peak_tflops=125.0,
                   die_area_mm2=815.0, cpa=1.2)
ARCH = LlmArchitecture(name="m", kind=ArchKind.DENSE_GPT, explicit_param_count=10 ** 9)
STORAGE = StorageWorkload(1.0, 2.0, 3.0)


def request(**change):
    return EstimateRequest(**{"arch": ARCH, "tokens": 1e9, "fleet": HardwareFleet.of((GPU, 8)),
                              "data_center": DataCenterProfile("dc", 1.1, 0.4), **change})


def moe(**change):
    return LlmArchitecture(**{"name": "m", "kind": ArchKind.MOE, "hidden_size": 64,
                              "layer_count": 2, "moe_fraction": 0.5, **change})


def report(**change):
    return CarbonReport(**{
        "phase": Phase.TRAINING, "duration_seconds": 10.0, "hardware_energy_mwh": 1.0,
        "operational_energy_mwh": 1.1, "operational_tco2": 0.5, "embodied_tco2": 0.25,
        "total_tco2": 0.75, "parallelism": ParallelismPlan(1, 2, 3),
        "line_items": (LineItem("box", 2, 1.0, 0.25),), **change})


BOX_REPR = ("HardwareUnit(name='box', role=<HardwareRole.OTHER: 'other'>, peak_tflops=None, "
            "tdp_watts=None, avg_system_power_watts=None, die_area_mm2=None, cpa=None, "
            "cpa_basis=None, capacity_gb=None, embodied_kg_override=1.0, lifetime_years=5.0)")
ARCH_REPR = ("LlmArchitecture(name='m', kind=<ArchKind.DENSE_GPT: 'dense_gpt'>, hidden_size=0, "
             "layer_count=0, vocab_size=0, head_count=None, head_dim=None, ff_size=None, "
             "moe_fraction=None, expert_groups=(), ff_stacks=1, "
             "explicit_param_count=1000000000, base_model_param_count=None)")
STORAGE_REPR = ("StorageWorkload(stored_tb=1.0, transferred_tb=2.0, duration_days=3.0, "
                "storage_w_per_tb=11.3, transfer_w_per_tb=1.48)")
REQUEST_REPR = (
    f"EstimateRequest(arch={ARCH_REPR}, tokens=1000000000.0, fleet=HardwareFleet(entries=("
    "FleetEntry(unit=HardwareUnit(name='gpu', role=<HardwareRole.ACCELERATOR: 'accelerator'>, "
    "peak_tflops=125.0, tdp_watts=None, avg_system_power_watts=None, die_area_mm2=815.0, "
    "cpa=1.2, cpa_basis=None, capacity_gb=None, embodied_kg_override=None, "
    "lifetime_years=5.0), count=8),)), "
    "data_center=DataCenterProfile(name='dc', pue=1.1, carbon_intensity=0.4), "
    "phase=<Phase.TRAINING: 'training'>, "
    "scaling=ScalingConstants(A=406.4, B=410.7, alpha=0.34, beta=0.28, E=1.69), "
    "overrides=Overrides(measured_flops=None, efficiency=None, device_count=None, "
    "system_power_watts=None), device_memory_gb=32.0, server_size=8, anchors=None)")

# One value of each record type and its repr, the format ``dataclasses`` gave.
REPRS = [
    (lambda: ExpertGroup(0.5, 64), "ExpertGroup(layer_fraction=0.5, expert_count=64)"),
    (lambda: ARCH, ARCH_REPR),
    (lambda: BOX, BOX_REPR),
    (lambda: FleetEntry(BOX, 2), f"FleetEntry(unit={BOX_REPR}, count=2)"),
    (lambda: HardwareFleet.of((BOX, 2)),
     f"HardwareFleet(entries=(FleetEntry(unit={BOX_REPR}, count=2),))"),
    (lambda: DataCenterProfile("dc", 1.1, 0.4),
     "DataCenterProfile(name='dc', pue=1.1, carbon_intensity=0.4)"),
    (ScalingConstants, "ScalingConstants(A=406.4, B=410.7, alpha=0.34, beta=0.28, E=1.69)"),
    (lambda: ParallelismPlan(2, 4, 8), "ParallelismPlan(pipeline=2, tensor=4, data=8, expert=1)"),
    (report, "CarbonReport(phase=<Phase.TRAINING: 'training'>, duration_seconds=10.0, "
             "hardware_energy_mwh=1.0, operational_energy_mwh=1.1, operational_tco2=0.5, "
             "embodied_tco2=0.25, total_tco2=0.75, hardware_efficiency=1.0, test_loss=None, "
             "parallelism=ParallelismPlan(pipeline=1, tensor=2, data=3, expert=1), "
             "line_items=(LineItem(unit='box', count=2, energy_mwh=1.0, embodied_tco2=0.25),))"),
    (lambda: LossPrediction(2.5), "LossPrediction(loss=2.5)"),
    (lambda: FlopBudget(6e20), "FlopBudget(total_flops=6e+20)"),
    (lambda: STORAGE, STORAGE_REPR),
    (lambda: Overrides(efficiency=0.5),
     "Overrides(measured_flops=None, efficiency=0.5, device_count=None, "
     "system_power_watts=None)"),
    (request, REQUEST_REPR),
    (lambda: LifecyclePlan(request(), inference_share=0.5, storage=STORAGE),
     f"LifecyclePlan(training={REQUEST_REPR}, inference_share=0.5, "
     f"experimentation_share=0.0, storage={STORAGE_REPR})"),
    (lambda: ValidationRow("params", "GPT3", 175.0, 175.0, 0.05, "B params"),
     "ValidationRow(group='params', name='GPT3', predicted=175.0, expected=175.0, "
     "tolerance=0.05, unit='B params')"),
    (lambda: TRAINING_FIXTURES[0],
     "TrainingFixture(name='T5', param_count_b=11, base_param_count_b=None, "
     "tokens=500000000000.0, device_name='TPUv3', avg_system_power_watts=310, "
     "device_count=512, efficiency=0.37, pue=1.12, carbon_intensity=0.545, "
     "measured_zettaflops=40.5, use_measured_flops=True, expected_tco2=45.66, "
     "tco2_rel_tol=0.03, expected_days=20.0, days_rel_tol=0.03)"),
]


class TestFieldTypes:
    """A record field of the wrong type fails when the record is built, with
    the record's own error, not later as an AttributeError in a stage."""

    @pytest.mark.parametrize("build, error, message", [
        pytest.param(lambda: request(arch="x"), ModelError,
                     "arch must be a LlmArchitecture, got str", id="request-arch"),
        pytest.param(lambda: request(fleet=[1]), ModelError,
                     "fleet must be a HardwareFleet, got list", id="request-fleet"),
        pytest.param(lambda: request(data_center="us-central1"), ModelError,
                     "data_center must be a DataCenterProfile, got str", id="request-data-center"),
        pytest.param(lambda: request(scaling={}), ModelError,
                     "scaling must be a ScalingConstants, got dict", id="request-scaling"),
        pytest.param(lambda: request(overrides={}), ModelError,
                     "overrides must be an Overrides, got dict", id="request-overrides"),
        # Fields are checked in field order.
        pytest.param(lambda: request(arch="x", tokens=-1.0), ModelError,
                     "arch must be a LlmArchitecture, got str", id="request-arch-before-tokens"),
        pytest.param(lambda: request(tokens=-1.0, fleet=[1]), ModelError,
                     "tokens must be finite and >= 0, got -1.0", id="request-tokens-before-fleet"),
        pytest.param(lambda: LifecyclePlan(training="x"), ModelError,
                     "training must be an EstimateRequest, got str", id="lifecycle-training"),
        pytest.param(lambda: LifecyclePlan(request(), storage={}), ModelError,
                     "storage must be a StorageWorkload, got dict", id="lifecycle-storage"),
        pytest.param(lambda: HardwareFleet([FleetEntry(GPU, 8)]), CatalogError,
                     "entries must be a tuple, got list", id="fleet-list"),
        pytest.param(lambda: HardwareFleet((FleetEntry(GPU, 8), 1)), CatalogError,
                     "entries[1] must be a FleetEntry, got int", id="fleet-entry"),
        # Each escaped as an AttributeError or a TypeError, or built an
        # architecture that could not be hashed, until an MoE's expert groups
        # were held to the rule of a fleet's entries.
        pytest.param(lambda: moe(expert_groups=((1.0, 8),)), ModelError,
                     "expert_groups[0] must be an ExpertGroup, got tuple",
                     id="arch-expert-groups-of-pairs"),
        pytest.param(lambda: moe(expert_groups=(1.0, 8), explicit_param_count=10 ** 9),
                     ModelError, "expert_groups[0] must be an ExpertGroup, got float",
                     id="arch-expert-groups-bare-pair"),
        pytest.param(lambda: moe(expert_groups=8), ModelError,
                     "expert_groups must be a tuple, got int", id="arch-expert-groups-int"),
        pytest.param(lambda: moe(expert_groups="x", explicit_param_count=10 ** 9), ModelError,
                     "expert_groups must be a tuple, got str", id="arch-expert-groups-str"),
        pytest.param(lambda: moe(expert_groups={"a": 1}), ModelError,
                     "expert_groups must be a tuple, got dict", id="arch-expert-groups-dict"),
        pytest.param(lambda: moe(expert_groups=[ExpertGroup(1.0, 8)]), ModelError,
                     "expert_groups must be a tuple, got list", id="arch-expert-groups-list"),
        # Each built an architecture that could not be hashed, or one that
        # the chain read as lacking the field, until every architecture field
        # was checked on one path for every kind.
        pytest.param(lambda: ARCH.replace(expert_groups=[]), ModelError,
                     "expert_groups must be a tuple, got list", id="arch-dense-expert-groups-list"),
        pytest.param(lambda: moe(vocab_size="x", expert_groups=(ExpertGroup(1.0, 8),)),
                     ModelError, "vocab_size: must be a positive integer", id="arch-moe-vocab-str"),
        pytest.param(lambda: ARCH.replace(hidden_size="5"), ModelError,
                     "hidden_size: must be a positive integer", id="arch-explicit-hidden-str"),
        pytest.param(lambda: moe(explicit_param_count=10 ** 9, moe_fraction=2.0), ModelError,
                     "moe_fraction: must lie in (0, 1]", id="arch-explicit-moe-fraction-2"),
        pytest.param(lambda: ParallelismPlan("x", 1, 1), ModelError,
                     "parallelism degree pipeline must be an integer >= 1, got 'x'",
                     id="plan-str"),
        pytest.param(lambda: ParallelismPlan(True, 1, 1), ModelError,
                     "parallelism degree pipeline must be an integer >= 1, got True",
                     id="plan-bool"),
        pytest.param(lambda: ParallelismPlan(1, 1, 2.5), ModelError,
                     "parallelism degree data must be an integer >= 1, got 2.5", id="plan-float"),
        pytest.param(lambda: ParallelismPlan(1, 0, 1), ModelError,
                     "parallelism degree tensor must be an integer >= 1, got 0", id="plan-zero"),
        pytest.param(lambda: ParallelismPlan(1, 1, 1, 10 ** 400), ModelError,
                     "parallelism degree expert is beyond the float range", id="plan-long-int"),
        pytest.param(lambda: report(phase="training"), ModelError,
                     "phase must be a Phase, got str", id="report-phase"),
        pytest.param(lambda: report(parallelism=(1, 2, 3, 1)), ModelError,
                     "parallelism must be a ParallelismPlan, got tuple", id="report-parallelism"),
        pytest.param(lambda: report(line_items=5), ModelError,
                     "line_items must be a tuple, got int", id="report-line-items-int"),
        pytest.param(lambda: report(line_items=[LineItem("box", 2)]), ModelError,
                     "line_items must be a tuple, got list", id="report-line-items-list"),
        pytest.param(lambda: report(line_items=(LineItem("box", 2), ("gpu", 8))), ModelError,
                     "line_items[1] must be a LineItem, got tuple", id="report-line-item"),
        # Fields are checked in field order: the phase, the floats, then the rest.
        pytest.param(lambda: CarbonReport("x", 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, parallelism="plan",
                                          line_items=5), ModelError,
                     "phase must be a Phase, got str", id="report-phase-first"),
        pytest.param(lambda: report(duration_seconds=True, parallelism="plan"), ModelError,
                     "duration_seconds must be finite and >= 0, got True",
                     id="report-floats-before-parallelism"),
        pytest.param(lambda: report(parallelism="plan", line_items=5), ModelError,
                     "parallelism must be a ParallelismPlan, got str",
                     id="report-parallelism-before-line-items"),
        pytest.param(lambda: CarbonReport(Phase.TRAINING, True, math.nan, 1.0, 1.0, 0.0, 1.0),
                     ModelError, "duration_seconds must be finite and >= 0, got True",
                     id="report-bool-before-nan"),
        pytest.param(lambda: HardwareUnit(name=[1], role=HardwareRole.OTHER,
                                          embodied_kg_override=1.0), CatalogError,
                     "hardware unit name must be a str, got list", id="unit-name-list"),
        pytest.param(lambda: HardwareUnit(name=None, role=HardwareRole.OTHER,
                                          embodied_kg_override=1.0), CatalogError,
                     "hardware unit name must be a str, got NoneType", id="unit-name-none"),
        pytest.param(lambda: HardwareUnit(name="box", role="accelerator", peak_tflops=125.0,
                                          embodied_kg_override=1.0), CatalogError,
                     "box: role must be a HardwareRole, got str", id="unit-role-str"),
        pytest.param(lambda: DataCenterProfile(name=5, pue=1.1, carbon_intensity=0.4),
                     CatalogError, "data center name must be a str, got int",
                     id="data-center-name-int"),
    ])
    def test_a_field_of_the_wrong_type_is_refused_by_name(self, build, error, message):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestRecord:
    """The value types, records and checked named tuples alike: built by
    keyword or position, compared, hashed and printed by their fields, and
    never changed in place."""

    @pytest.mark.parametrize("build, expected", REPRS,
                             ids=[text.split("(", 1)[0] for _, text in REPRS])
    def test_repr_names_every_field_in_order(self, build, expected):
        assert repr(build()) == expected

    @pytest.mark.parametrize("build", [build for build, _ in REPRS],
                             ids=[text.split("(", 1)[0] for _, text in REPRS])
    def test_equal_fields_give_equal_values_and_hashes(self, build):
        value = build()
        twin = type(value)(*[getattr(value, name) for name in type(value)._fields])
        assert twin is not value and twin == value and not twin != value
        if not isinstance(getattr(value, "anchors", None), list):  # a list has no hash
            assert hash(twin) == hash(value)

    def test_different_fields_or_types_are_not_equal(self):
        class Twin(Record):
            layer_fraction: float
            expert_count: int

        group = ExpertGroup(0.5, 64)
        assert Twin._fields == ExpertGroup._fields
        assert group != Twin(0.5, 64) and Twin(0.5, 64) != group
        assert group != ExpertGroup(0.5, 65)
        assert group != (0.5, 64)

    @pytest.mark.parametrize("name", ["tokens", "phase", "not_a_field"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        req = request()
        with pytest.raises(AttributeError):
            setattr(req, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(req, name)
        assert req == request()

    @pytest.mark.parametrize("args, kwargs, message", [
        ((0.5,), {}, "missing required argument 'expert_count'"),
        ((0.5, 64), {"experts": 64}, "unexpected keyword argument 'experts'"),
        ((0.5,), {"layer_fraction": 0.5, "expert_count": 64},
         "multiple values for argument 'layer_fraction'"),
        ((0.5, 64, 1), {}, "takes 2 positional arguments but 3 were given"),
    ])
    def test_a_missing_unknown_or_repeated_field_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            ExpertGroup(*args, **kwargs)

    def test_defaults_are_the_class_attributes(self):
        assert EstimateRequest._fields[:4] == ("arch", "tokens", "fleet", "data_center")
        assert request().scaling == ScalingConstants() and request().overrides == Overrides()
        assert report().line_items == (LineItem("box", 2, 1.0, 0.25),)
        assert CarbonReport._field_defaults["line_items"] == ()
        # A checked named tuple states its defaults twice, in its field base
        # and in its __new__: they must agree.
        for kind in (CarbonReport, ParallelismPlan):
            signature = inspect.signature(kind)
            assert list(signature.parameters) == list(kind._fields)
            assert kind._field_defaults == {
                name: parameter.default for name, parameter in signature.parameters.items()
                if parameter.default is not parameter.empty}

    def test_replace_builds_a_checked_copy(self):
        req = request()
        assert req.replace(tokens=2e9) == request(tokens=2e9)
        assert req.replace() == req and req.tokens == 1e9
        with pytest.raises(ModelError, match="^tokens must be finite and >= 0, got -1$"):
            req.replace(tokens=-1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'token'"):
            req.replace(token=2e9)

    @pytest.mark.parametrize("build", [request, report, lambda: ParallelismPlan(1, 2, 3)],
                             ids=["EstimateRequest", "CarbonReport", "ParallelismPlan"])
    @pytest.mark.parametrize("round_trip", [
        lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_pickle_and_copy_round_trip(self, build, round_trip):
        value = build()
        again = round_trip(value)
        assert type(again) is type(value)
        assert again == value and repr(again) == repr(value) and hash(again) == hash(value)
        with pytest.raises(AttributeError):
            again.phase = Phase.INFERENCE
        with pytest.raises(AttributeError):
            setattr(again, type(value)._fields[1], 1)

    # What a record's own check works out, kept as a plain attribute that is
    # not a field: a fleet's accelerator entry, a unit's pricing basis.
    def test_derived_attributes_are_not_fields(self):
        fleet = HardwareFleet.of((BOX, 3), (GPU, 8))
        assert "accelerator" not in HardwareFleet._fields
        assert "embodied_basis" not in HardwareUnit._fields
        assert fleet.accelerator is fleet.entries[1] and GPU.embodied_basis == "area"
        assert HardwareFleet.of((BOX, 2)).accelerator is None

    @pytest.mark.parametrize("build, name, other", [
        (lambda: HardwareFleet.of((BOX, 3), (GPU, 8)), "accelerator", None),
        (lambda: GPU.replace(), "embodied_basis", "gb"),
    ], ids=["accelerator", "embodied_basis"])
    def test_derived_attributes_change_no_repr_equality_or_hash(self, build, name, other):
        value, twin = build(), build()
        object.__setattr__(twin, name, other)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        assert f"{name}=" not in repr(value)

    @pytest.mark.parametrize("round_trip", [
        lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy, copy.copy,
        lambda value: value.replace(),
    ], ids=["pickle", "deepcopy", "copy", "replace"])
    def test_derived_attributes_survive_copies(self, round_trip):
        fleet = round_trip(HardwareFleet.of((BOX, 3), (GPU, 8)))
        # The setting finds the accelerator entry by identity.
        assert fleet.accelerator is fleet.entries[1]
        assert fleet.accelerator.unit.embodied_basis == "area"
        assert round_trip(GPU).embodied_basis == "area"
        assert round_trip(BOX).embodied_basis == "override"
        assert round_trip(HardwareFleet.of((BOX, 2))).accelerator is None


def forged(value, change: dict):
    """``value`` with ``change`` made, built by ``tuple.__new__``, which runs
    no check: what an unchecked path would make."""
    return tuple.__new__(type(value), {**value._asdict(), **change}.values())


class TestCheckedTuples:
    """A report and a plan are named tuples that check their fields in their
    own ``__new__``; no way to build one skips it."""

    def test_they_unpack_iterate_and_equal_the_tuple_of_their_fields(self):
        plan = ParallelismPlan(1, 2, 3)
        assert plan == (1, 2, 3, 1) and tuple(plan) == (1, 2, 3, 1)
        pipeline, tensor, data, expert = plan
        assert (pipeline, tensor, data, expert, plan.device_count) == (1, 2, 3, 1, 6)
        value = report()
        assert list(value) == [getattr(value, name) for name in CarbonReport._fields]
        assert value == tuple(value) and hash(value) == hash(tuple(value))
        assert ParallelismPlan._field_defaults == {"expert": 1}
        assert CarbonReport(*value[:7]) == value.replace(
            hardware_efficiency=1.0, parallelism=None, line_items=())

    @pytest.mark.parametrize("value, change", [
        (report(), {"duration_seconds": math.nan}),
        (report(), {"test_loss": True}),
        (report(), {"phase": "training"}),
        (report(), {"line_items": (("box", 2, 1.0, 0.25),)}),
        (ParallelismPlan(1, 2, 3), {"tensor": math.nan}),
        (ParallelismPlan(1, 2, 3), {"expert": True}),
    ], ids=["report-nan", "report-bool", "report-phase", "report-line-item", "plan-nan",
            "plan-bool"])
    @pytest.mark.parametrize("build", [
        lambda value, change: type(value)._make(forged(value, change)),
        lambda value, change: value._replace(**change),
        lambda value, change: value.replace(**change),
        *[lambda value, change, protocol=protocol:
          pickle.loads(pickle.dumps(forged(value, change), protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
        lambda value, change: copy.copy(forged(value, change)),
        lambda value, change: copy.deepcopy(forged(value, change)),
    ], ids=["_make", "_replace", "replace",
            *[f"pickle-{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)],
            "copy", "deepcopy"])
    def test_every_way_to_build_one_runs_its_checks(self, value, change, build):
        with pytest.raises(ModelError) as expected:
            type(value)(**{**value._asdict(), **change})
        with pytest.raises(ModelError) as raised:
            build(value, change)
        assert type(raised.value) is ModelError
        assert str(raised.value) == str(expected.value)

    def test_replace_refuses_an_unknown_field(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'pipe'"):
            ParallelismPlan(1, 2, 3).replace(pipe=2)


class TestUnits:
    def test_watt_seconds_to_mwh_and_back_is_identity(self):
        for watts, seconds in [(330.0, 1_278_720.0), (1.0, 1.0), (2.5e6, 9.87e5)]:
            mwh = units.watt_seconds_to_mwh(watts, seconds)
            assert mwh == units.joules_to_mwh(watts * seconds)
            assert abs(mwh * units.JOULES_PER_MWH - watts * seconds) <= 1e-12 * watts * seconds

    def test_day_and_year_arithmetic(self):
        assert units.days_to_seconds(1) == 86_400
        assert units.seconds_to_days(units.days_to_seconds(20.4)) == pytest.approx(20.4)
        assert units.years_to_seconds(5) == pytest.approx(5 * 365.25 * 86_400)


def deep_list(levels=1200):
    """A list nested ``levels`` deep; the default is past ``repr``'s recursion limit."""
    deep = []
    for _ in range(levels):
        deep = [deep]
    return deep


class TestShown:
    @pytest.mark.parametrize("value", [None, True, "low", "", [1, 2], {"a": 1}, 2.5, math.nan,
                                       10 ** 79, "x" * 78])
    def test_an_ordinary_value_is_its_repr(self, value):
        assert shown(value) == repr(value)

    @pytest.mark.parametrize("value, name", [
        (10 ** 80, "an int"),  # 81 digits: past the limit
        (10 ** 5000, "an int"),  # Python formats no int of more than 4,300 digits
        ("x" * 79, "a str"),
        (list(range(100)), "a list"),
    ], ids=["int-81-digits", "int-5001-digits", "str", "list"])
    def test_a_value_past_the_limit_is_named_by_its_type(self, value, name):
        assert shown(value) == name

    def test_a_list_nested_past_the_recursion_limit_is_named_by_its_type(self):
        deep = deep_list(sys.getrecursionlimit() + 10)
        with pytest.raises(RecursionError):
            repr(deep)
        assert shown(deep) == "a list"


class TestBoundedMessages:
    """A check that refuses a caller's value names it through ``shown``, so a
    value whose repr cannot be made still ends in the check's own error."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda deep: optimal_efficiency(1e9, anchors=[(1e9, deep)]), ModelError,
         "efficiency anchor 0: efficiency must lie in (0, 1], got a list"),
        (lambda deep: Overrides(efficiency=deep), ModelError,
         "efficiency must lie in (0, 1], got a list"),
        (lambda deep: DataCenterProfile(name="x", pue=1.1, carbon_intensity=deep), CatalogError,
         "x: carbon_intensity must be finite and >= 0, got a list"),
        (lambda deep: DataCenterProfile(name="x", pue=deep, carbon_intensity=0.4), CatalogError,
         "x: pue must be finite and >= 1.0, got a list"),
        (lambda deep: Overrides(device_count=deep), ModelError,
         "device_count must be an integer >= 1, got a list"),
        (lambda deep: CarbonReport(Phase.TRAINING, deep, 1.0, 1.0, 1.0, 0.0, 1.0, 0.5),
         ModelError, "duration_seconds must be finite and >= 0, got a list"),
        (lambda deep: ScalingConstants(A=deep), ModelError,
         "scaling constant A must be positive and finite, got a list"),
        (lambda deep: LlmArchitecture(name=deep, kind=ArchKind.DENSE_GPT,
                                      explicit_param_count=1e9), ModelError,
         "architecture name must be a str, got a list"),
        (lambda deep: LlmArchitecture(name="x", kind=deep, explicit_param_count=1e9), ModelError,
         "kind: must be an ArchKind, got a list"),
        (lambda deep: predict_loss(deep, 1e9), ModelError,
         "param_count must be positive, got a list"),
        (lambda deep: device_time(deep, 1, 1.0, 0.5), ModelError,
         "total_flops must be >= 0, got a list"),
        (lambda deep: device_time(1e9, deep, 1.0, 0.5), ModelError,
         "device_count must be a number, got a list"),
        (lambda deep: optimal_efficiency(deep), ModelError,
         "param_count must be finite and positive, got a list"),
        (lambda deep: efficiency_at_count(1, 1, deep), ModelError,
         "optimal_eff must lie in (0, 1], got a list"),
        (lambda deep: hardware_energy(HardwareFleet.of((GPU, 8)), 1.0, deep), ModelError,
         "efficiency must lie in (0, 1], got a list"),
        (lambda deep: HardwareUnit(name=deep, role=HardwareRole.OTHER, embodied_kg_override=1.0),
         CatalogError, "hardware unit name must be a str, got list"),
        (lambda deep: DataCenterProfile(name=deep, pue=1.1, carbon_intensity=0.4), CatalogError,
         "data center name must be a str, got list"),
    ], ids=["efficiency-fit", "overrides", "data-center", "pue", "check-count", "report",
            "scaling-constants", "architecture-name", "architecture-kind", "test-loss",
            "device-time-flops", "device-time-count", "optimal-efficiency",
            "efficiency-at-count", "hardware-energy", "hardware-unit-name", "data-center-name"])
    def test_a_value_nested_past_the_recursion_limit_is_named_by_its_type(self, call, error,
                                                                          message):
        with pytest.raises(error) as raised:
            call(deep_list())
        assert str(raised.value) == message

    def test_a_sweep_point_with_such_tokens_is_an_error_row(self):
        arch = LlmArchitecture(name="a", kind=ArchKind.DENSE_GPT, explicit_param_count=1e9)
        v100 = HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR, peak_tflops=125.0,
                            tdp_watts=300.0, die_area_mm2=815.0, cpa=1.2)
        dc = DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.4)
        assert sweep([(arch, deep_list())], HardwareFleet.of((v100, 8)), dc) == (
            [], [("a", "sweep points need a finite positive token count, got a list")])


class TestPlainSum:
    def test_adds_left_to_right_from_zero(self):
        # A compensated sum, such as Python 3.12's sum(), gives 1.0 here.
        assert plain_sum([1e16, 1.0, -1e16]) == 0.0
        assert plain_sum([]) == 0 and type(plain_sum([])) is int

    def test_a_generator_gives_the_bits_of_a_list(self):
        values = [0.1 * (-3) ** i for i in range(40)] + [1e-300, 7.0]
        assert plain_sum(v for v in values).hex() == plain_sum(values).hex()


def test_star_import_gives_every_public_name_once():
    # A name left in __all__ after its object is deleted breaks the star import.
    namespace: dict = {}
    exec("from carboncast import *", namespace)
    assert len(set(carboncast.__all__)) == len(carboncast.__all__)
    assert set(carboncast.__all__) <= namespace.keys()


class TestPackageRoot:
    def test_every_public_name_is_its_defining_modules_object(self):
        for name in carboncast.__all__:
            value = getattr(carboncast, name)
            assert value.__module__.startswith("carboncast."), name
            assert value is getattr(sys.modules[value.__module__], name), name
            # Bound when its submodule was imported, so a lookup is a dict hit.
            assert vars(carboncast)[name] is value, name

    def test_dir_lists_every_public_name(self):
        assert set(carboncast.__all__) <= set(dir(carboncast))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError) as caught:
            carboncast.no_such_name
        assert str(caught.value) == "module 'carboncast' has no attribute 'no_such_name'"
        assert "no_such_name" not in vars(carboncast)
