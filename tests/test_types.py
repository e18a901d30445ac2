"""Domain-type invariants, unit conversions and the public surface."""

import math
import re

import pytest

import carboncast
from carboncast import units
from carboncast.types import (
    ArchKind,
    CarbonReport,
    CatalogError,
    DataCenterProfile,
    ExpertGroup,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LlmArchitecture,
    ModelError,
    Phase,
    plain_sum,
)


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

    def test_lifetime_must_be_positive(self):
        with pytest.raises(CatalogError, match="lifetime"):
            HardwareUnit(name="x", role=HardwareRole.OTHER,
                         embodied_kg_override=1.0, lifetime_years=0.0)

    @pytest.mark.parametrize("fname, value", [
        ("peak_tflops", math.nan), ("tdp_watts", math.inf), ("tdp_watts", -5.0),
        ("avg_system_power_watts", math.nan), ("die_area_mm2", math.inf), ("cpa", -1.0),
        ("capacity_gb", math.nan), ("embodied_kg_override", -math.inf),
        ("lifetime_years", math.nan), ("lifetime_years", math.inf),
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
    ])
    def test_numbers_must_be_finite_and_non_negative(self, fname, value):
        fields = {"duration_seconds": 1.0, "hardware_energy_mwh": 1.0,
                  "operational_energy_mwh": 1.1, "operational_tco2": 2.0,
                  "embodied_tco2": 1.0, "total_tco2": 3.0, fname: value}
        with pytest.raises(ModelError, match=f"^{fname} must be finite and >= 0"):
            CarbonReport(phase=Phase.TRAINING, **fields)


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
