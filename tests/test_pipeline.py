"""End-to-end pipeline: published rows, overrides, lifecycle, sweeps."""

import inspect
import math
import random
import re
import sys

import pytest
import seeded
from hypothesis import given, settings, strategies as st

from carboncast import catalog, efficiency, pipeline, types, units
from carboncast.pipeline import (
    EstimateRequest,
    LifecyclePlan,
    Overrides,
    estimate,
    estimate_lifecycle,
    sweep,
)
from carboncast.embodied import fleet_embodied
from carboncast.operational import (
    StorageWorkload,
    hardware_energy,
    operational_carbon,
    storage_energy,
)
from carboncast.types import (
    ArchKind,
    CarbonReport,
    CatalogError,
    DataCenterProfile,
    ExpertGroup,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LineItem,
    LlmArchitecture,
    ModelError,
    Phase,
    ScalingConstants,
)
from carboncast.validation import TRAINING_FIXTURES, training_request


def v100(avg_watts=None):
    return HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR,
                        peak_tflops=125, tdp_watts=300,
                        avg_system_power_watts=avg_watts,
                        die_area_mm2=815, cpa=1.2, cpa_basis="area")


def cpu():
    return HardwareUnit(name="CPU", role=HardwareRole.CPU, tdp_watts=205,
                        die_area_mm2=147, cpa=1.0, cpa_basis="area")


def dc(pue=1.1, ci=0.429):
    return DataCenterProfile(name="dc", pue=pue, carbon_intensity=ci)


def dense_arch(name, params):
    return LlmArchitecture(name=name, kind=ArchKind.DENSE_GPT,
                           explicit_param_count=int(params))


SHAPE = {"kind": ArchKind.DENSE_GPT, "hidden_size": 512, "layer_count": 2, "vocab_size": 100}


def shaped_arch(**change):
    return LlmArchitecture(**{"name": "m", **SHAPE, **change})


STORAGE = StorageWorkload(stored_tb=10, transferred_tb=40, duration_days=90)


# Architectures whose counts a float cannot hold, or whose pipeline depth it
# cannot hold, with the error each one gives.
BEYOND_FLOAT_RANGE = [
    pytest.param(LlmArchitecture(name="huge", kind=ArchKind.DENSE_GPT, hidden_size=10 ** 160,
                                 layer_count=2, vocab_size=10),
                 "[parameter-model] huge: parameter count is beyond the float range",
                 id="dense"),
    pytest.param(LlmArchitecture(name="huge", kind=ArchKind.MOE, hidden_size=10 ** 160,
                                 layer_count=2, moe_fraction=0.5,
                                 expert_groups=(ExpertGroup(1.0, 8),)),
                 "[parameter-model] huge: parameter count is beyond the float range",
                 id="moe"),
    # The dense base derived from h, l and V; a given base beyond the float
    # range is refused when the architecture is built.
    pytest.param(LlmArchitecture(name="huge", kind=ArchKind.MOE, explicit_param_count=10 ** 9,
                                 hidden_size=10 ** 160, layer_count=2, vocab_size=10),
                 "[flop-model] huge: dense base parameter count is beyond the float range",
                 id="moe-base"),
    pytest.param(dense_arch("huge", 1e308),
                 "[efficiency-model] the pipeline depth for 1e+308 parameters in 32.0 GB "
                 "devices overflows a float", id="pipeline-depth"),
]


class TestEstimate:
    def test_gpt3_published_row(self):
        fx = next(f for f in TRAINING_FIXTURES if f.name == "GPT3")
        report = estimate(training_request(fx))
        assert report.operational_tco2 == pytest.approx(553.87, rel=0.01)
        assert units.seconds_to_days(report.duration_seconds) == pytest.approx(14.8, rel=0.02)

    def test_switch_published_row(self):
        fx = next(f for f in TRAINING_FIXTURES if f.name == "Switch")
        report = estimate(training_request(fx))
        assert report.operational_tco2 == pytest.approx(63.9, rel=0.03)

    def test_zero_tokens_zero_footprint(self):
        req = EstimateRequest(arch=dense_arch("idle", 1e9), tokens=0.0,
                              fleet=HardwareFleet.of((v100(330), 16)), data_center=dc())
        report = estimate(req)
        assert report.duration_seconds == 0.0
        assert report.operational_tco2 == 0.0
        assert report.embodied_tco2 == 0.0
        assert report.total_tco2 == 0.0

    def test_total_is_exactly_additive(self):
        rng = random.Random(47)
        for _ in range(20):
            req = EstimateRequest(
                arch=dense_arch("m", 10 ** rng.uniform(8, 11)),
                tokens=10 ** rng.uniform(9, 12),
                fleet=HardwareFleet.of((v100(330), rng.randrange(8, 4096))),
                data_center=dc(ci=rng.uniform(0.0, 1.0)),
            )
            report = estimate(req)
            assert report.total_tco2 == report.operational_tco2 + report.embodied_tco2
            assert report.operational_energy_mwh == pytest.approx(
                report.hardware_energy_mwh * 1.1, rel=1e-12)

    def test_override_consistency(self):
        # Feeding the model's own outputs back as overrides changes nothing.
        base_req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=100e9,
                                   fleet=HardwareFleet.of((v100(), 171)),
                                   data_center=dc())
        base = estimate(base_req)
        flops = 6 * 20e9 * 100e9
        pinned = base_req.replace(overrides=Overrides(measured_flops=flops,
                                                      efficiency=base.hardware_efficiency,
                                                      device_count=171))
        again = estimate(pinned)
        assert again == base

    # Overrides and scaling constants are given as keyword arguments, since
    # some of them fail on construction.
    @pytest.mark.parametrize("change, message", [
        ({"tokens": math.nan}, "tokens must be finite and >= 0, got nan"),
        ({"overrides": {"efficiency": math.nan}}, "efficiency must lie in (0, 1], got nan"),
        ({"overrides": {"measured_flops": math.inf}},
         "measured_flops must be finite and >= 0, got inf"),
        ({"overrides": {"system_power_watts": math.inf}},
         "system_power_watts must be finite and >= 0, got inf"),
        ({"device_memory_gb": math.nan}, "[efficiency-model] device_memory_gb must be positive"),
        ({"device_memory_gb": math.inf}, "[efficiency-model] device_memory_gb must be finite"),
        ({"scaling": {"A": math.nan}}, "scaling constant A must be positive and finite, got nan"),
        ({"scaling": {"beta": math.inf}},
         "scaling constant beta must be positive and finite, got inf"),
        ({"overrides": {"measured_flops": math.nan}},
         "measured_flops must be finite and >= 0, got nan"),
        ({"overrides": {"system_power_watts": math.nan}},
         "system_power_watts must be finite and >= 0, got nan"),
        pytest.param({"scaling": {"A": "1"}},
                     "scaling constant A must be positive and finite, got '1'", id="A-str"),
        pytest.param({"scaling": {"E": 10 ** 400}},
                     "scaling constant E is beyond the float range", id="E-1e400"),
    ])
    def test_non_finite_inputs_fail_naming_the_report_field(self, change, message):
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=100e9,
                              fleet=HardwareFleet.of((v100(), 171)), data_center=dc())
        with pytest.raises(ModelError, match="^" + re.escape(message)):
            if "overrides" in change:
                change = {**change, "overrides": Overrides(**change["overrides"])}
            if "scaling" in change:
                change = {**change, "scaling": ScalingConstants(**change["scaling"])}
            estimate(req.replace(**change))

    def test_an_infinite_hardware_energy_fails_the_report_check(self):
        # The GPT-3 example (docs/examples/gpt3_training.yaml) at 1e308 W a
        # device: 10,000 of them draw an energy beyond the float range, which
        # is not priced, so the report's check names it, with no stage.
        hardware, _ = catalog.resolve_catalogs()
        req = EstimateRequest(
            arch=dense_arch("gpt3", 175e9), tokens=3.0e11,
            fleet=HardwareFleet.of((hardware["V100"], 10000)),
            data_center=DataCenterProfile(name="openai-dc", pue=1.1, carbon_intensity=0.429),
            overrides=Overrides(measured_flops=3.14e23, efficiency=0.197, device_count=10000,
                                system_power_watts=1e308))
        with pytest.raises(ModelError) as raised:
            estimate(req)
        assert str(raised.value) == "hardware_energy_mwh must be finite and >= 0, got inf"

    @pytest.mark.parametrize("change, message", [
        ({"tokens": -1.0}, "tokens must be finite and >= 0, got -1.0"),
        ({"tokens": math.inf}, "tokens must be finite and >= 0, got inf"),
        ({"phase": Phase.LIFECYCLE}, "phase must be training or inference, got lifecycle"),
        ({"phase": "training"}, "phase must be training or inference, got 'training'"),
        ({"overrides": {"device_count": 0, "efficiency": 0.5}},
         "device_count must be an integer >= 1, got 0"),
        ({"overrides": {"device_count": -8}}, "device_count must be an integer >= 1, got -8"),
        ({"overrides": {"device_count": 2.5}}, "device_count must be an integer >= 1, got 2.5"),
        ({"overrides": {"device_count": True}},
         "device_count must be an integer >= 1, got True"),
        ({"overrides": {"measured_flops": -1e21}},
         "measured_flops must be finite and >= 0, got -1e+21"),
        ({"overrides": {"system_power_watts": -330.0}},
         "system_power_watts must be finite and >= 0, got -330.0"),
        ({"tokens": "1e9"}, "tokens must be finite and >= 0, got '1e9'"),
        ({"overrides": {"measured_flops": "1e21"}},
         "measured_flops must be finite and >= 0, got '1e21'"),
        ({"overrides": {"efficiency": "0.5"}}, "efficiency must lie in (0, 1], got '0.5'"),
        ({"overrides": {"system_power_watts": True}},
         "system_power_watts must be finite and >= 0, got True"),
        ({"phase": Phase.STORAGE}, "phase must be training or inference, got storage"),
        pytest.param({"tokens": 10 ** 400}, "tokens is beyond the float range",
                     id="tokens-1e400"),
        pytest.param({"overrides": {"measured_flops": 10 ** 400}},
                     "measured_flops is beyond the float range", id="measured-flops-1e400"),
        pytest.param({"overrides": {"system_power_watts": 10 ** 400}},
                     "system_power_watts is beyond the float range", id="power-1e400"),
        pytest.param({"overrides": {"device_count": -10 ** 5000}},
                     "device_count is beyond the float range", id="device-count--1e5000"),
        pytest.param({"overrides": {"efficiency": 10 ** 400}},
                     "efficiency is beyond the float range", id="efficiency-1e400"),
    ])
    def test_requests_reject_bad_inputs_by_name(self, change, message):
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=100e9,
                              fleet=HardwareFleet.of((v100(), 171)), data_center=dc())
        with pytest.raises(ModelError, match="^" + re.escape(message)):
            if "overrides" in change:
                change = {**change, "overrides": Overrides(**change["overrides"])}
            req.replace(**change)

    @pytest.mark.parametrize("value", [1.5, 0.0, -0.1, math.inf])
    def test_efficiency_override_must_lie_in_zero_one(self, value):
        with pytest.raises(ModelError, match=r"^efficiency must lie in \(0, 1\]"):
            Overrides(efficiency=value)
        assert Overrides(efficiency=1.0).efficiency == 1.0

    @pytest.mark.parametrize("phase", [Phase.TRAINING, Phase.INFERENCE])
    @pytest.mark.parametrize("arch, message", BEYOND_FLOAT_RANGE)
    def test_counts_beyond_the_float_range_name_the_stage(self, arch, message, phase):
        req = EstimateRequest(arch=arch, tokens=1e9, fleet=HardwareFleet.of((v100(), 8)),
                              data_center=dc(), phase=phase)
        with pytest.raises(ModelError, match="^" + re.escape(message)):
            estimate(req)

    @pytest.mark.parametrize("phase", [Phase.TRAINING, Phase.INFERENCE])
    def test_a_nan_pipeline_depth_names_the_stage(self, phase):
        # Inf bytes of state over inf bytes of device memory.
        req = EstimateRequest(arch=dense_arch("huge", 1e308), tokens=1e9,
                              fleet=HardwareFleet.of((v100(), 8)), data_center=dc(),
                              phase=phase, device_memory_gb=1e300)
        with pytest.raises(ModelError, match="^" + re.escape(
                "[efficiency-model] the pipeline depth for 1e+308 parameters in 1e+300 GB "
                "devices overflows a float") + "$"):
            estimate(req)

    @pytest.mark.parametrize("fleet_count, device_count, error, message", [
        pytest.param(10 ** 300, None, ModelError, "[operational-carbon] throughput is beyond "
                     "the float range (devices=1e+300, peak=125 TFLOP/s", id="fleet-1e300"),
        pytest.param(10 ** 400, None, CatalogError,
                     "V100: fleet count is beyond the float range", id="fleet-1e400"),
        pytest.param(8, 10 ** 300, ModelError, "[operational-carbon] throughput is beyond "
                     "the float range (devices=1e+300, peak=125 TFLOP/s", id="device-count-1e300"),
        pytest.param(8, 10 ** 400, ModelError,
                     "device_count is beyond the float range", id="device-count-1e400"),
        pytest.param(math.nan, None, CatalogError,
                     "V100: fleet count must be an integer >= 1, got nan", id="fleet-nan"),
        pytest.param(2.5, None, CatalogError,
                     "V100: fleet count must be an integer >= 1, got 2.5", id="fleet-2.5"),
        pytest.param(True, None, CatalogError,
                     "V100: fleet count must be an integer >= 1, got True", id="fleet-True"),
        pytest.param(0, None, CatalogError,
                     "V100: fleet count must be an integer >= 1, got 0", id="fleet-0"),
        # Python formats no int of more than 4,300 digits, so the range test
        # must come before the message.
        pytest.param(-10 ** 5000, None, CatalogError,
                     "V100: fleet count is beyond the float range", id="fleet--1e5000"),
        pytest.param(8, -10 ** 5000, ModelError,
                     "device_count is beyond the float range", id="device-count--1e5000"),
    ])
    def test_device_counts_beyond_the_float_range_fail_by_name(self, fleet_count, device_count,
                                                               error, message):
        # At 1e300 devices the throughput overflows to inf, which would
        # make any workload take zero seconds and so have no footprint.
        with pytest.raises(error, match="^" + re.escape(message)):
            estimate(EstimateRequest(arch=dense_arch("m", 20e9), tokens=100e9,
                                     fleet=HardwareFleet.of((v100(), fleet_count)),
                                     data_center=dc(),
                                     overrides=Overrides(device_count=device_count)))

    def test_deterministic_reports(self):
        req = training_request(TRAINING_FIXTURES[0])
        assert estimate(req) == estimate(req)

    def test_efficiency_degrades_off_optimum(self):
        # 20e9 params -> optimum 171 devices; a 10x fleet must do worse per
        # device but the plan itself is unchanged.
        opt_req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=100e9,
                                  fleet=HardwareFleet.of((v100(), 171)),
                                  data_center=dc())
        big_req = opt_req.replace(fleet=HardwareFleet.of((v100(), 1710)))
        opt, big = estimate(opt_req), estimate(big_req)
        assert big.hardware_efficiency < opt.hardware_efficiency
        assert big.parallelism == opt.parallelism

    def test_moe_flops_use_base_model(self):
        # A full expert count in the TDP path would inflate time ~270x.
        moe = LlmArchitecture(name="gshard-like", kind=ArchKind.MOE,
                              explicit_param_count=int(619e9),
                              base_model_param_count=int(2.3e9))
        req = EstimateRequest(arch=moe, tokens=1e12,
                              fleet=HardwareFleet.of((v100(288), 1024)),
                              data_center=dc(pue=1.09, ci=0.177),
                              overrides=Overrides(efficiency=0.39))
        report = estimate(req)
        expected_seconds = 6 * 2.3e9 * 1e12 / (1024 * 125e12 * 0.39)
        assert report.duration_seconds == pytest.approx(expected_seconds)

    def test_moe_without_base_count_or_shape_is_an_error(self):
        moe = LlmArchitecture(name="opaque-moe", kind=ArchKind.MOE,
                              explicit_param_count=int(619e9))
        req = EstimateRequest(arch=moe, tokens=1e12,
                              fleet=HardwareFleet.of((v100(288), 1024)),
                              data_center=dc())
        with pytest.raises(ModelError, match="base_model_param_count"):
            estimate(req)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"arch": shaped_arch(hidden_size=10 ** 160)},
                     "[parameter-model] m: parameter count is beyond the float range",
                     id="parameter-model"),
        # An explicit count below one parameter is refused when it is built.
        pytest.param({"arch": {"kind": ArchKind.DENSE_GPT, "explicit_param_count": 0.5}},
                     "explicit_param_count: must be at least 1, got 0.5; hidden_size: must be "
                     "a positive integer; layer_count: must be a positive integer; "
                     "vocab_size: must be a positive integer", id="explicit-0.5"),
        pytest.param({"arch": LlmArchitecture(name="opaque", kind=ArchKind.MOE, hidden_size=1024,
                                              layer_count=24, moe_fraction=0.5,
                                              expert_groups=(ExpertGroup(1.0, 64),))},
                     "[flop-model] opaque: MoE FLOPs need base_model_param_count (or h, l, V to "
                     "derive the dense counterpart)", id="flop-model"),
        pytest.param({"device_memory_gb": 0.0},
                     "[efficiency-model] device_memory_gb must be positive", id="efficiency-model"),
        pytest.param({"overrides": Overrides(device_count=10**300)},
                     "[operational-carbon] throughput is beyond the float range "
                     "(devices=1e+300, peak=125 TFLOP/s, efficiency=0.1265)",
                     id="operational-carbon"),
        pytest.param({"fleet": HardwareFleet.of((cpu(), 8))},
                     "[efficiency-model] fleet has no accelerator entry", id="no-accelerator"),
        *(pytest.param({"arch": {"kind": ArchKind.DENSE_GPT, "explicit_param_count": value}},
                       "explicit_param_count: must be a positive number; hidden_size: must be "
                       "a positive integer; layer_count: must be a positive integer; "
                       "vocab_size: must be a positive integer", id=f"explicit-{name}")
          for name, value in (("nan", math.nan), ("str", "5"), ("True", True))),
        pytest.param({"device_memory_gb": "32"},
                     "[efficiency-model] device_memory_gb must be positive", id="memory-str"),
        pytest.param({"server_size": 2.5},
                     "[efficiency-model] server_size must be an integer >= 1, got 2.5",
                     id="server-size-2.5"),
        pytest.param({"arch": dense_arch("m", 1e11), "scaling": ScalingConstants(alpha=30.0)},
                     "[scaling-law] the loss law's terms are beyond the float range "
                     "(alpha=30.0, beta=0.28)", id="loss-overflow"),
        pytest.param({"tokens": 1e-20, "scaling": ScalingConstants(beta=30.0)},
                     "[scaling-law] the loss law's terms are beyond the float range "
                     "(alpha=0.34, beta=30.0)", id="loss-underflow"),
        pytest.param({"tokens": 1e-160, "scaling": ScalingConstants(beta=2.0)},
                     "[scaling-law] the loss law's terms are beyond the float range "
                     "(alpha=0.34, beta=2.0)", id="loss-quotient-overflow"),
        *(pytest.param({"arch": {**SHAPE, fname: value}}, f"{fname}: must be a positive integer",
                       id=f"{fname}-{value!r}")
          for fname, value in (("hidden_size", "5"), ("hidden_size", 2.5),
                               ("hidden_size", True), ("layer_count", math.nan))),
        pytest.param({"arch": {**SHAPE, "base_model_param_count": "5"}},
                     "base_model_param_count: must be a positive number", id="base-str"),
        pytest.param({"arch": {"kind": ArchKind.MOE, "explicit_param_count": 10 ** 11,
                               "base_model_param_count": "5"}},
                     "base_model_param_count: must be a positive number",
                     id="explicit-moe-base-str"),
        pytest.param({"arch": LlmArchitecture(name="m", kind=ArchKind.MOE,
                                              explicit_param_count=10 ** 11, hidden_size="5",
                                              layer_count=2, vocab_size=100)},
                     "[flop-model] m: MoE FLOPs need base_model_param_count (or h, l, V to "
                     "derive the dense counterpart)", id="explicit-moe-hidden-str"),
    ])
    def test_errors_name_the_failing_stage(self, change, message):
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=1e9,
                              fleet=HardwareFleet.of((v100(330), 8)), data_center=dc())
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            # An architecture given as keyword arguments may fail when it is
            # built, before any stage; then the error names its fields.
            if isinstance(change.get("arch"), dict):
                change = {**change, "arch": LlmArchitecture(name="m", **change["arch"])}
            estimate(req.replace(**change))

    @pytest.mark.parametrize("anchors", [None, [(1e9, 1.5)]])
    def test_an_efficiency_override_touches_no_anchor_table(self, monkeypatch, anchors):
        calls = []
        for module, name in ((pipeline, "fit_anchors"), (efficiency, "default_anchors")):
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9,
                              fleet=HardwareFleet.of((v100(), 64)), data_center=dc(),
                              overrides=Overrides(efficiency=0.4), anchors=anchors)
        assert estimate(req).hardware_efficiency == 0.4
        assert calls == []

    def test_inference_phase_batch(self):
        a100 = HardwareUnit(name="A100", role=HardwareRole.ACCELERATOR,
                            peak_tflops=312, tdp_watts=400,
                            die_area_mm2=826, cpa=1.6, cpa_basis="area")
        req = EstimateRequest(
            arch=dense_arch("gpt3", 175e9), tokens=32 * 128,
            fleet=HardwareFleet.of((a100, 16)), data_center=dc(),
            phase=Phase.INFERENCE,
            overrides=Overrides(efficiency=0.0926),
        )
        report = estimate(req)
        assert report.duration_seconds == pytest.approx(3.10, abs=0.05)
        assert report.test_loss is None

    def test_storage_phase(self):
        stored, moved = storage_energy(StorageWorkload(stored_tb=32.7, transferred_tb=277.4,
                                                       duration_days=180))
        _, carbon = operational_carbon(stored + moved, dc(pue=1.0, ci=0.5))
        assert stored + moved == pytest.approx(1.596 + 1.774, abs=0.01)
        assert carbon == pytest.approx((stored + moved) * 0.5)


class TestLifecycle:
    def base_request(self):
        return EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9,
                               fleet=HardwareFleet.of((v100(330), 171)),
                               data_center=dc())

    def test_zero_shares_equals_training(self):
        training = estimate(self.base_request())
        lifecycle = estimate_lifecycle(LifecyclePlan(training=self.base_request()))
        assert lifecycle.operational_tco2 == pytest.approx(training.operational_tco2)
        assert lifecycle.embodied_tco2 == pytest.approx(training.embodied_tco2)
        assert lifecycle.duration_seconds == pytest.approx(training.duration_seconds)

    def test_doubling_workload_doubles_operational(self):
        plan = LifecyclePlan(
            training=self.base_request(), inference_share=1.0,
            experimentation_share=0.5,
            storage=StorageWorkload(stored_tb=10, transferred_tb=40, duration_days=90),
        )
        doubled = LifecyclePlan(
            training=self.base_request().replace(tokens=400e9),
            inference_share=1.0, experimentation_share=0.5,
            storage=StorageWorkload(stored_tb=20, transferred_tb=80, duration_days=90),
        )
        a, b = estimate_lifecycle(plan), estimate_lifecycle(doubled)
        assert b.operational_tco2 == pytest.approx(2 * a.operational_tco2, rel=1e-9)

    def test_green_grid_example_is_embodied_dominated(self):
        # The docs example: on a ~97% carbon-free grid the embodied share of
        # the lifecycle footprint lands in the 24-35% window.
        xlm_fleet = HardwareFleet.of(
            (v100(342), 512),
            (HardwareUnit(name="CPU", role=HardwareRole.CPU, tdp_watts=205,
                          die_area_mm2=147, cpa=1.0, cpa_basis="area"), 64),
            (HardwareUnit(name="SSD", role=HardwareRole.SSD,
                          embodied_kg_override=576.0), 64),
            (HardwareUnit(name="DRAM", role=HardwareRole.DRAM,
                          embodied_kg_override=102.4), 64),
        )
        training = EstimateRequest(
            arch=dense_arch("xlm-0.55b", 0.55e9), tokens=7e12,
            fleet=xlm_fleet,
            data_center=DataCenterProfile(name="green", pue=1.1,
                                          carbon_intensity=0.016),
            overrides=Overrides(efficiency=0.212, device_count=512,
                                system_power_watts=342),
        )
        plan = LifecyclePlan(training=training, inference_share=1.0,
                             experimentation_share=0.5,
                             storage=StorageWorkload(stored_tb=5, transferred_tb=20,
                                                     duration_days=180))
        report = estimate_lifecycle(plan)
        share = report.embodied_tco2 / report.total_tco2
        assert 0.24 <= share <= 0.35


def mixed_request(**change):
    """A training request on a powered accelerator, a TDP-priced CPU and an
    SSD that counts for embodied carbon only."""
    fleet = HardwareFleet.of(
        (v100(330), 171),
        (HardwareUnit(name="CPU", role=HardwareRole.CPU, tdp_watts=205,
                      die_area_mm2=147, cpa=1.0, cpa_basis="area"), 16),
        (HardwareUnit(name="SSD", role=HardwareRole.SSD, embodied_kg_override=576.0), 16),
    )
    req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9, fleet=fleet,
                          data_center=dc(), overrides=Overrides(device_count=200))
    return req.replace(**change)


def cpu_listed_twice():
    entries = mixed_request().fleet.entries
    return mixed_request(fleet=HardwareFleet(entries + entries[1:2]))


def storage_report(storage, data_center):
    """The storage part of a lifecycle as a report of its own, with a storage
    and a transfer line item."""
    stored, moved = storage_energy(storage)
    facility, carbon = operational_carbon(stored + moved, data_center)
    return CarbonReport(phase=Phase.STORAGE,
                        duration_seconds=units.days_to_seconds(storage.duration_days),
                        hardware_energy_mwh=stored + moved, operational_energy_mwh=facility,
                        operational_tco2=carbon, embodied_tco2=0.0, total_tco2=carbon,
                        line_items=(LineItem("storage", 1, stored), LineItem("transfer", 1, moved)))


class TestPhaseSum:
    @pytest.mark.parametrize("report", [
        pytest.param(lambda: estimate(mixed_request()), id="training"),
        pytest.param(lambda: estimate(mixed_request(phase=Phase.INFERENCE, tokens=1e12)),
                     id="inference"),
        pytest.param(lambda: estimate_lifecycle(LifecyclePlan(mixed_request(), 1.0, 0.5)),
                     id="lifecycle"),
        pytest.param(lambda: estimate_lifecycle(LifecyclePlan(mixed_request(), 1.0, 0.5, STORAGE)),
                     id="lifecycle-with-storage"),
        pytest.param(lambda: estimate(cpu_listed_twice()), id="unit-listed-twice"),
        pytest.param(lambda: estimate_lifecycle(LifecyclePlan(cpu_listed_twice(), 1.0, 0.5)),
                     id="lifecycle-unit-listed-twice"),
    ])
    def test_line_items_add_up_to_the_report(self, report):
        r = report()
        assert math.isclose(sum(i.energy_mwh for i in r.line_items), r.hardware_energy_mwh,
                            rel_tol=1e-12)
        assert math.isclose(sum(i.embodied_tco2 for i in r.line_items), r.embodied_tco2,
                            rel_tol=1e-12)

    def test_zero_shares_without_storage_is_the_training_report(self):
        req = mixed_request()
        lifecycle = estimate_lifecycle(LifecyclePlan(training=req))
        assert lifecycle == estimate(req).replace(phase=Phase.LIFECYCLE)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(inference=st.floats(0, 5), experimentation=st.floats(0, 5),
           tokens=st.floats(1e9, 1e13), devices=st.integers(1, 2000),
           storage=st.none() | st.builds(StorageWorkload, stored_tb=st.floats(0, 100),
                                         transferred_tb=st.floats(0, 500),
                                         duration_days=st.floats(0, 365)))
    def test_lifecycle_is_the_weighted_sum_of_its_phase_reports(
            self, inference, experimentation, tokens, devices, storage):
        req = mixed_request(tokens=tokens, overrides=Overrides(device_count=devices))
        got = estimate_lifecycle(LifecyclePlan(req, inference, experimentation, storage))
        training = estimate(req)
        parts = [(1.0 + inference + experimentation, training)]
        if storage is not None:
            parts.append((1.0, storage_report(storage, req.data_center)))

        for name in ("duration_seconds", "hardware_energy_mwh", "operational_energy_mwh",
                     "operational_tco2", "embodied_tco2", "total_tco2"):
            want = sum(w * getattr(r, name) for w, r in parts)
            assert math.isclose(getattr(got, name), want, rel_tol=1e-12), name
        want_items: dict[str, list[float]] = {}
        for w, r in parts:
            for item in r.line_items:
                acc = want_items.setdefault(item.unit, [0.0, 0.0])
                acc[0] += w * item.energy_mwh
                acc[1] += w * item.embodied_tco2
        assert [i.unit for i in got.line_items] == list(want_items)
        for item in got.line_items:
            energy, embodied = want_items[item.unit]
            assert math.isclose(item.energy_mwh, energy, rel_tol=1e-12)
            assert math.isclose(item.embodied_tco2, embodied, rel_tol=1e-12)
        assert got.phase is Phase.LIFECYCLE
        assert (got.hardware_efficiency, got.test_loss, got.parallelism) == (
            training.hardware_efficiency, training.test_loss, training.parallelism)

    def test_a_fleet_unit_named_storage_keeps_its_own_item(self):
        ssd = HardwareUnit(name="storage", role=HardwareRole.SSD, embodied_kg_override=576.0)
        req = mixed_request(fleet=HardwareFleet.of((v100(330), 171), (ssd, 2)))
        got = estimate_lifecycle(LifecyclePlan(req, 1.0, 0.5, STORAGE))
        (ssd_item,) = [i for i in estimate(req).line_items if i.unit == "storage"]
        storage = storage_report(STORAGE, req.data_center)

        fleet_item, phase_item = [i for i in got.line_items if i.unit == "storage"]
        assert (fleet_item.count, fleet_item.energy_mwh) == (2, 0.0)
        assert fleet_item.embodied_tco2 == 2.5 * ssd_item.embodied_tco2 > 0.0
        assert phase_item == storage.line_items[0]
        assert phase_item.energy_mwh > 0.0
        assert math.isclose(sum(i.energy_mwh for i in got.line_items), got.hardware_energy_mwh,
                            rel_tol=1e-12)
        assert math.isclose(sum(i.embodied_tco2 for i in got.line_items), got.embodied_tco2,
                            rel_tol=1e-12)


class TestLineItems:
    """One line item per fleet entry, in fleet order, then ``others``."""

    def test_a_unit_listed_twice_has_an_item_per_entry(self):
        entries = mixed_request().fleet.entries
        req = mixed_request(fleet=HardwareFleet(entries + (entries[1].replace(count=3),)))
        items = estimate(req).line_items
        assert [(i.unit, i.count) for i in items] == [
            ("V100", 200), ("CPU", 16), ("SSD", 16), ("CPU", 3), ("others", 0)]
        sixteen, three = items[1], items[3]
        assert math.isclose(3 * sixteen.energy_mwh, 16 * three.energy_mwh, rel_tol=1e-14)
        assert math.isclose(3 * sixteen.embodied_tco2, 16 * three.embodied_tco2, rel_tol=1e-14)

    def test_a_fleet_unit_named_others_keeps_its_own_item(self):
        def report(name):
            box = HardwareUnit(name=name, role=HardwareRole.OTHER, embodied_kg_override=576.0)
            return estimate(mixed_request(fleet=HardwareFleet.of((v100(330), 171), (box, 2))))

        got, want = report("others"), report("box")
        assert [(i.unit, i.count) for i in got.line_items] == [
            ("V100", 200), ("others", 2), ("others", 0)]
        assert got.line_items[1] == want.line_items[1]._replace(unit="others")
        assert got.line_items[2] == want.line_items[2]
        assert got.line_items[1].embodied_tco2 > 0.0

    def test_an_unpowered_unit_keeps_its_fleet_position(self):
        accel, cpu_, ssd = mixed_request().fleet.entries
        got = estimate(mixed_request(fleet=HardwareFleet((accel, ssd, cpu_)))).line_items
        want = estimate(mixed_request()).line_items
        assert [i.unit for i in got] == ["V100", "SSD", "CPU", "others"]
        assert got[1:3] == (want[2], want[1])
        assert got[1].energy_mwh == 0.0 < got[2].energy_mwh


def weighted_sum(parts):
    """The lifecycle report of (weight, phase report) parts: weighted sums
    added in phase order, each part's line items weighted, and the first
    part's efficiency, loss and plan."""
    sums = dict.fromkeys(("duration_seconds", "hardware_energy_mwh", "operational_energy_mwh",
                          "operational_tco2", "embodied_tco2"), 0.0)
    for w, r in parts:
        for name in sums:
            sums[name] += w * getattr(r, name)
    first = parts[0][1]
    return CarbonReport(
        phase=Phase.LIFECYCLE, **sums, total_tco2=sums["operational_tco2"] + sums["embodied_tco2"],
        hardware_efficiency=first.hardware_efficiency, test_loss=first.test_loss,
        parallelism=first.parallelism,
        line_items=tuple(LineItem(i.unit, i.count, w * i.energy_mwh, w * i.embodied_tco2)
                         for w, r in parts for i in r.line_items))


OVERFLOWING_STORAGE = StorageWorkload(stored_tb=1e300, transferred_tb=1.0, duration_days=10.0,
                                      storage_w_per_tb=1e10)


class TestReportAssembly:
    def test_lifecycle_is_bit_for_bit_the_weighted_sum_of_its_parts(self):
        plans = [p for p in seeded.inputs("lifecycle", 1200) if isinstance(p, LifecyclePlan)]
        checked = {"storage": 0, "overrides": 0, "anchors": 0}
        for plan in plans:
            try:
                parts = [(1.0 + plan.inference_share + plan.experimentation_share,
                          estimate(plan.training))]
                if plan.storage is not None:
                    parts.append((1.0, storage_report(plan.storage, plan.training.data_center)))
                want = weighted_sum(parts)
            except ModelError as exc:
                with pytest.raises(ModelError, match="^" + re.escape(str(exc)) + "$"):
                    estimate_lifecycle(plan)
                continue
            assert seeded.report_text(estimate_lifecycle(plan)) == seeded.report_text(want)
            checked["storage"] += plan.storage is not None
            checked["overrides"] += plan.training.overrides != Overrides()
            checked["anchors"] += plan.training.anchors is not None
        assert min(checked.values()) >= 20, checked

    @pytest.mark.parametrize("training, shares, storage, fault", [
        pytest.param({"arch": LlmArchitecture(name="moe", kind=ArchKind.MOE, hidden_size=1024,
                                              layer_count=24, moe_fraction=0.5,
                                              expert_groups=(ExpertGroup(1.0, 64),))},
                     (1.0, 0.5), OVERFLOWING_STORAGE, "training", id="training-stage"),
        pytest.param({"tokens": 1e300}, (1.0, 0.5), OVERFLOWING_STORAGE, "training",
                     id="training-report"),
        pytest.param({}, (1e308, 1e308), OVERFLOWING_STORAGE,
                     "hardware_energy_mwh must be finite and >= 0, got inf", id="storage"),
        pytest.param({}, (1e308, 1e308), STORAGE,
                     "duration_seconds must be finite and >= 0, got inf", id="sums"),
    ])
    def test_lifecycle_faults_come_training_then_storage_then_sums(self, training, shares,
                                                                   storage, fault):
        req = mixed_request(**training)
        if fault == "training":
            with pytest.raises(ModelError) as raised:
                estimate(req)
            fault = str(raised.value)
        with pytest.raises(ModelError, match="^" + re.escape(fault) + "$"):
            estimate_lifecycle(LifecyclePlan(req, *shares, storage=storage))

    def test_a_count_that_rounds_to_zero_fails_in_the_scaling_law_as_test_loss_does(self):
        # The general MoE route with a tiny expert share counts 0 parameters.
        arch = LlmArchitecture(name="m", kind=ArchKind.MOE, hidden_size=64, layer_count=1,
                               head_count=1, head_dim=64, ff_size=100, moe_fraction=1e-300,
                               expert_groups=(ExpertGroup(1.0, 1),),
                               base_model_param_count=10 ** 9)
        with pytest.raises(ModelError, match=r"^\[scaling-law\] param_count must be positive, "
                                             r"got 0$"):
            estimate(mixed_request(arch=arch))

    def test_the_packaged_table_is_read_every_call_and_fitted_once(self, monkeypatch):
        calls = {"default_anchors": 0, "_fit": 0}
        for name in calls:
            def counting(*args, _real=getattr(efficiency, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(efficiency, name, counting)
        monkeypatch.setattr(efficiency, "_packaged_fit", (None, None))
        rng = random.Random(3)
        reqs = [mixed_request(arch=dense_arch(f"m{i}", 10 ** rng.uniform(9, 12)),
                              overrides=Overrides()) for i in range(100)]
        reports = [estimate(req) for req in reqs]
        assert calls == {"default_anchors": 100, "_fit": 1}
        # The same reports as with the packaged table given, and so fitted, each time.
        for req, report in zip(reqs[:10], reports):
            assert report == estimate(req.replace(anchors=catalog.default_anchors()))

    def test_another_packaged_table_is_fitted_afresh(self, monkeypatch):
        req = mixed_request(overrides=Overrides())
        packaged = estimate(req)
        table = [(1e9, 0.2), (3e10, 0.3), (2e11, 0.25)]
        monkeypatch.setattr(efficiency, "default_anchors", lambda: list(table))
        other = estimate(req)
        assert other == estimate(req.replace(anchors=table))
        assert other.hardware_efficiency != packaged.hardware_efficiency
        monkeypatch.undo()
        assert estimate(req) == packaged


class TestLifecyclePlanChecks:
    @pytest.mark.parametrize("fname", ["inference_share", "experimentation_share"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, "0.5", True,
                                       pytest.param(10 ** 400, id="1e400")])
    def test_shares_must_be_finite_and_non_negative(self, fname, value):
        fault = "is beyond the float range" if value == 10 ** 400 else "must be finite and >= 0"
        with pytest.raises(ModelError, match=f"^{fname} {fault}"):
            LifecyclePlan(training=mixed_request(), **{fname: value})

    def test_training_request_must_be_a_training_phase(self):
        with pytest.raises(ModelError, match="training request has phase inference"):
            LifecyclePlan(training=mixed_request(phase=Phase.INFERENCE))


class TestSweep:
    def fleet(self):
        return HardwareFleet.of((v100(), 1))

    def grid_dc(self):
        # Published sweep setting: PUE 1.1 at 0.431 kg/kWh.
        return dc(pue=1.1, ci=0.431)

    def test_two_point_dominance(self):
        grid = [(dense_arch("small", 1e9), 20e9), (dense_arch("big", 20e9), 400e9)]
        points, errors = sweep(grid, self.fleet(), self.grid_dc())
        assert errors == []
        by_name = {p.name: p for p in points}
        # big: lower loss, higher carbon; both nondominated.
        assert not by_name["small"].dominated
        assert not by_name["big"].dominated

    def test_dominated_point_flagged(self):
        # Pit an expert model against the dense model it matches in loss:
        # the expert model computes over its small base, so the dense one
        # must come out dominated.
        dense = dense_arch("dense-137b", 137.98e9)
        moe = LlmArchitecture(name="moe-1.1t", kind=ArchKind.MOE,
                              explicit_param_count=int(8 * 137.98e9),
                              base_model_param_count=int(6.6e9))
        points, errors = sweep([(dense, 300e9), (moe, 300e9)],
                               self.fleet(), self.grid_dc())
        assert errors == []
        by_name = {p.name: p for p in points}
        # Equal loss by construction (expert loss counts params / 8), but the
        # expert model computes over its small base model: less carbon.
        assert by_name["moe-1.1t"].test_loss == pytest.approx(by_name["dense-137b"].test_loss)
        assert by_name["moe-1.1t"].training_tco2 < by_name["dense-137b"].training_tco2
        assert by_name["dense-137b"].dominated
        assert not by_name["moe-1.1t"].dominated

    def test_single_point_nondominated(self):
        points, _ = sweep([(dense_arch("solo", 5e9), 100e9)],
                          self.fleet(), self.grid_dc())
        assert len(points) == 1
        assert not points[0].dominated

    def test_dominance_matches_brute_force_on_random_grids(self):
        rng = random.Random(53)
        grid = [(dense_arch(f"m{i}", 10 ** rng.uniform(8.5, 11.5)),
                 10 ** rng.uniform(9.5, 12.5)) for i in range(50)]
        points, errors = sweep(grid, self.fleet(), self.grid_dc())
        assert errors == []
        for p in points:
            expected = any(
                q.test_loss <= p.test_loss and q.training_tco2 <= p.training_tco2
                and (q.test_loss < p.test_loss or q.training_tco2 < p.training_tco2)
                for q in points if q is not p)
            assert p.dominated == expected

    def test_failing_point_reported_not_dropped(self):
        bad = LlmArchitecture(name="headless", kind=ArchKind.MOE,
                              explicit_param_count=int(100e9))  # no base model
        grid = [(dense_arch("fine", 5e9), 100e9), (bad, 100e9)]
        points, errors = sweep(grid, self.fleet(), self.grid_dc())
        assert len(points) == 1
        assert len(errors) == 1
        assert errors[0][0] == "headless"

    @pytest.mark.parametrize("tokens", [0.0, -1e9, math.inf, math.nan, "1e9",
                                        pytest.param(10 ** 400, id="1e400")])
    def test_tokens_must_be_finite_and_positive(self, tokens):
        grid = [(dense_arch("fine", 5e9), 100e9), (dense_arch("bad", 5e9), tokens)]
        points, errors = sweep(grid, self.fleet(), self.grid_dc())
        assert [p.name for p in points] == ["fine"]
        message = ("tokens is beyond the float range" if tokens == 10 ** 400 else
                   f"sweep points need a finite positive token count, got {tokens!r}")
        assert errors == [("bad", message)]

    @pytest.mark.parametrize("point, message", [
        pytest.param(("x", 1e9), "architecture must be a LlmArchitecture, got str",
                     id="name-for-architecture"),
        pytest.param(dense_arch("lone", 5e9),
                     "sweep points need an (architecture, tokens) pair, got a LlmArchitecture",
                     id="architecture-alone"),
        pytest.param(5, "sweep points need an (architecture, tokens) pair, got 5", id="int"),
        pytest.param((dense_arch("three", 5e9), 1e9, 2),
                     "sweep points need an (architecture, tokens) pair, got a tuple", id="triple"),
    ])
    def test_a_point_that_is_no_pair_is_an_error_row_named_by_its_index(self, point, message):
        grid = [(dense_arch("fine", 5e9), 100e9), point, (dense_arch("also-fine", 6e9), 100e9)]
        points, errors = sweep(grid, self.fleet(), self.grid_dc())
        assert sorted(p.name for p in points) == ["also-fine", "fine"]
        assert errors == [("grid[1]", message)]

    @pytest.mark.parametrize("setting, fault", [
        pytest.param({"fleet": HardwareFleet.of((cpu(), 8))}, "fleet has no accelerator entry",
                     id="no-accelerator"),
        pytest.param({"anchors": [(1e9, 0.5), (1e10, 1.5)]},
                     "efficiency anchor 1: efficiency must lie in (0, 1], got 1.5",
                     id="anchor-efficiency-1.5"),
        pytest.param({"anchors": []}, "efficiency anchor table is empty", id="anchors-empty"),
        *(pytest.param({"anchors": table}, "efficiency anchor table: expected a list of "
                       f"(param_count, efficiency) pairs, got {types.shown(table)}",
                       id=f"anchors-{type(table).__name__}")
          for table in (True, object(), 1j)),
        pytest.param({"device_memory_gb": 0}, "device_memory_gb must be positive", id="memory-0"),
        pytest.param({"device_memory_gb": math.nan}, "device_memory_gb must be positive",
                     id="memory-nan"),
        pytest.param({"device_memory_gb": math.inf}, "device_memory_gb must be finite",
                     id="memory-inf"),
        pytest.param({"device_memory_gb": "32"}, "device_memory_gb must be positive",
                     id="memory-str"),
        pytest.param({"server_size": 2.5}, "server_size must be an integer >= 1, got 2.5",
                     id="server-size-2.5"),
        pytest.param({"server_size": 0}, "server_size must be an integer >= 1, got 0",
                     id="server-size-0"),
    ])
    def test_a_setting_fault_fails_the_sweep_once(self, setting, fault):
        setting = {"fleet": self.fleet(), "data_center": self.grid_dc(), **setting}
        no_base = LlmArchitecture(name="no-base", kind=ArchKind.MOE,
                                  explicit_param_count=int(100e9))
        grid = [(dense_arch("a", 5e9), 100e9), (no_base, 100e9),
                (dense_arch("no-tokens", 6e9), 0.0)]
        message = "^" + re.escape(f"[efficiency-model] {fault}") + "$"
        # One error for the whole grid, not one row per point.
        with pytest.raises(ModelError, match=message):
            sweep(grid, **setting)
        # estimate() on a valid point of the grid raises the same error, and
        # so does a point with a fault of its own: the setting comes first.
        for arch in (dense_arch("a", 5e9), no_base):
            with pytest.raises(ModelError, match=message):
                estimate(EstimateRequest(arch=arch, tokens=100e9, **setting))

    def test_names_must_be_strings(self):
        # Two points of equal loss and carbon are ordered by name, so a name
        # that does not compare with a str is refused where it is given.
        with pytest.raises(ModelError, match=r"^architecture name must be a str, got None$"):
            dense_arch(None, 1e9)
        points, errors = sweep([(dense_arch("b", 1e9), 1e10), (dense_arch("a", 1e9), 1e10)],
                               self.fleet(), self.grid_dc())
        assert errors == []
        assert [p.name for p in points] == ["a", "b"]
        assert points[0].training_tco2 == points[1].training_tco2

    @pytest.mark.parametrize("arch, message", BEYOND_FLOAT_RANGE)
    def test_point_beyond_the_float_range_is_one_error_row(self, arch, message):
        grid = [(dense_arch("fine", 5e9), 100e9), (arch, 100e9)]
        points, errors = sweep(grid, self.fleet(), self.grid_dc())
        assert [p.name for p in points] == ["fine"]
        assert errors == [("huge", message)]

    def test_ordering_is_deterministic(self):
        rng = random.Random(59)
        grid = [(dense_arch(f"m{i}", 10 ** rng.uniform(9, 11)),
                 10 ** rng.uniform(10, 12)) for i in range(20)]
        a, _ = sweep(grid, self.fleet(), self.grid_dc())
        b, _ = sweep(list(reversed(grid)), self.fleet(), self.grid_dc())
        assert a == b

    def test_empty_grid_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            sweep([], self.fleet(), self.grid_dc())

    def test_points_are_immutable_hashable_records(self):
        point = pipeline.SweepPoint("a", 10, 2e10, 2.5, 1.25)
        with pytest.raises(AttributeError):
            point.dominated = True
        twin = pipeline.SweepPoint("a", 10, 2e10, 2.5, 1.25, False)
        assert point == twin and hash(point) == hash(twin)
        parameters = inspect.signature(pipeline.SweepPoint).parameters
        assert list(parameters) == ["name", "param_count", "tokens", "test_loss",
                                    "training_tco2", "dominated"]
        assert parameters["dominated"].default is False and point.dominated is False
        assert repr(point) == ("SweepPoint(name='a', param_count=10, tokens=20000000000.0, "
                               "test_loss=2.5, training_tco2=1.25, dominated=False)")


def brute_force_flags(pairs):
    """O(n^2) Pareto definition over (loss, carbon) pairs."""
    return [any(ql <= l and qc <= c and (ql < l or qc < c) for ql, qc in pairs)
            for l, c in pairs]


def one_pass_flags(pairs):
    ordered = sorted(pairs)
    return ordered, pipeline._dominance_flags(ordered)


class TestDominanceFlags:
    @pytest.mark.parametrize("pairs", [
        [(1.0, 1.0)],                                  # a single point
        [(1.0, 1.0), (1.0, 1.0)],                      # equal pairs
        [(1.0, 2.0), (1.0, 1.0), (1.0, 1.0)],          # equal losses
        [(2.0, 1.0), (1.0, 1.0)],                      # equal carbon
        [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)],          # a frontier
        [(1.0, 3.0), (2.0, 3.0), (2.0, 1.0), (3.0, 1.0), (3.0, 0.5)],
        [(1.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 9.0)],
    ])
    def test_matches_the_definition_on_hand_cases(self, pairs):
        ordered, flags = one_pass_flags(pairs)
        assert flags == brute_force_flags(ordered)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40))
    def test_matches_the_definition(self, pairs):
        # Small integer ranges make equal losses and equal pairs common.
        ordered, flags = one_pass_flags([(float(l), float(c)) for l, c in pairs])
        assert flags == brute_force_flags(ordered)


HOST_UNITS = {
    "cpu": cpu(),  # TDP only
    "dram": HardwareUnit(name="DRAM", role=HardwareRole.DRAM, avg_system_power_watts=40.0,
                         embodied_kg_override=102.4),  # measured power
    "ssd": HardwareUnit(name="SSD", role=HardwareRole.SSD,
                        embodied_kg_override=576.0),  # no power figure
}


@st.composite
def sweep_settings(draw):
    """A fleet, an anchor table and a grid with broken points, for sweep()."""
    accel = v100(draw(st.sampled_from([None, 330.0])))
    hosts = draw(st.lists(st.sampled_from(sorted(HOST_UNITS)), max_size=4))  # repeats list a unit twice
    fleet = HardwareFleet.of((accel, draw(st.integers(1, 4096))),
                             *((HOST_UNITS[h], draw(st.integers(1, 512))) for h in hosts))
    anchors = draw(st.none() | st.lists(
        st.tuples(st.floats(9.0, 12.0).map(lambda e: 10.0 ** e), st.floats(0.3, 0.6)),
        min_size=1, max_size=5, unique_by=lambda a: math.log10(a[0])))
    grid = []
    for i in range(draw(st.integers(1, 8))):
        params = 10 ** draw(st.floats(8.0, 12.5))
        tokens = 10 ** draw(st.floats(9.0, 13.0))
        kind = draw(st.sampled_from(["dense", "moe", "moe-without-base", "depth-beyond-float-range",
                                     "beyond-float-range"]))
        fields = {
            "dense": {"kind": ArchKind.DENSE_GPT, "explicit_param_count": int(params)},
            "moe": {"kind": ArchKind.MOE, "explicit_param_count": int(params),
                    "base_model_param_count": int(params / 16)},
            "moe-without-base": {"kind": ArchKind.MOE, "explicit_param_count": int(params)},
            "depth-beyond-float-range": {"kind": ArchKind.DENSE_GPT,
                                         "explicit_param_count": int(1e308)},
            "beyond-float-range": {"kind": ArchKind.DENSE_GPT, "hidden_size": 10 ** 160,
                                   "layer_count": 2, "vocab_size": 10},
        }[kind]
        grid.append((LlmArchitecture(name=f"p{i}", **fields), tokens))
    return fleet, anchors, grid


class TestFleetRates:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(measured=st.sampled_from([None, 330.0]), count=st.integers(1, 4096),
           hosts=st.lists(st.tuples(st.sampled_from(sorted(HOST_UNITS)), st.integers(1, 512)),
                          max_size=4),
           devices=st.none() | st.integers(1, 4096),
           power=st.none() | st.floats(100.0, 700.0), tokens=st.floats(1e9, 1e13))
    def test_energy_and_embodied_match_the_stage_functions(self, measured, count, hosts,
                                                           devices, power, tokens):
        # The estimate prices its fleet per second; hardware_energy and
        # fleet_embodied over the report's duration are the reference.
        accel = v100(measured)
        units_ = [(HOST_UNITS[h], n) for h, n in hosts]
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=tokens,
                              fleet=HardwareFleet.of((accel, count), *units_), data_center=dc(),
                              overrides=Overrides(device_count=devices, system_power_watts=power))
        r = estimate(req)
        at_count = [(accel, devices if devices is not None else count)] + units_
        powered = HardwareFleet.of(*((u, n) for u, n in at_count if u.name != "SSD"))
        energy, powered_items = hardware_energy(powered, r.duration_seconds,
                                                r.hardware_efficiency, power_override_watts=power)
        per_entry, others, embodied = fleet_embodied(HardwareFleet.of(*at_count),
                                                     r.duration_seconds)
        assert math.isclose(r.hardware_energy_mwh, energy, rel_tol=1e-14)
        assert math.isclose(r.embodied_tco2, embodied, rel_tol=1e-14)
        # One item per entry, in fleet order, then the others share.
        assert [(i.unit, i.count) for i in r.line_items] == [
            *((u.name, n) for u, n in at_count), ("others", 0)]
        powered_items = iter(powered_items)
        for item, (unit, _), tco2 in zip(r.line_items, at_count, per_entry):
            want = 0.0 if unit.name == "SSD" else next(powered_items).energy_mwh
            assert math.isclose(item.energy_mwh, want, rel_tol=1e-14)
            assert math.isclose(item.embodied_tco2, tco2, rel_tol=1e-14)
        assert math.isclose(r.line_items[-1].embodied_tco2, others, rel_tol=1e-14)


class TestSweepMatchesEstimate:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(sweep_settings())
    def test_points_and_error_rows_match_estimate(self, setting):
        fleet, anchors, grid = setting
        want, want_errors = {}, []
        for arch, tokens in grid:
            try:
                r = estimate(EstimateRequest(arch=arch, tokens=tokens, fleet=fleet,
                                             data_center=dc(), anchors=anchors))
                want[arch.name] = (r.test_loss, r.operational_tco2)
            except ModelError as exc:
                want_errors.append((arch.name, str(exc)))
        points, errors = sweep(grid, fleet, dc(), anchors=anchors)
        assert errors == want_errors
        assert sorted(p.name for p in points) == sorted(want)
        for p in points:
            loss, carbon = want[p.name]
            assert math.isclose(p.test_loss, loss, rel_tol=1e-14)
            assert math.isclose(p.training_tco2, carbon, rel_tol=1e-14)


class TestSweepCosts:
    @pytest.mark.parametrize("anchors", [None, [(1e9, 0.4), (3e10, 0.5), (2e11, 0.45)]])
    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_fleet_and_anchor_table_are_priced_once_per_sweep(self, monkeypatch, n, anchors):
        calls = {}

        def count(module, name):
            real = getattr(module, name)
            calls[name] = 0

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        for name in ("fleet_embodied", "unit_power", "fit_anchors"):
            count(pipeline, name)
        count(efficiency, "default_anchors")
        rng = random.Random(67)
        grid = [(dense_arch(f"m{i}", 10 ** rng.uniform(9, 11)), 10 ** rng.uniform(10, 12))
                for i in range(n)]
        fleet = HardwareFleet.of((v100(), 64), (cpu(), 8),
                                 (HOST_UNITS["ssd"], 4), (cpu(), 2))
        points, errors = sweep(grid, fleet, dc(), anchors=anchors)
        assert len(points) == n and errors == []
        # The power rule runs once per fleet entry, not once per point.
        assert calls == {"fleet_embodied": 1, "unit_power": len(fleet.entries), "fit_anchors": 1,
                         "default_anchors": int(anchors is None)}

    def test_one_parameter_count_per_valid_point(self, monkeypatch):
        calls = []
        real = pipeline.count_params

        def counting(arch, *args, **kwargs):
            calls.append(arch.name)
            return real(arch, *args, **kwargs)

        monkeypatch.setattr(pipeline, "count_params", counting)
        rng = random.Random(61)
        grid = [(dense_arch(f"m{i}", 10 ** rng.uniform(9, 11)), 10 ** rng.uniform(10, 12))
                for i in range(20)]
        grid.append((dense_arch("no-tokens", 1e9), 0.0))
        points, errors = sweep(grid, HardwareFleet.of((v100(), 1)), dc())
        assert len(points) == 20 and [name for name, _ in errors] == ["no-tokens"]
        assert sorted(calls) == sorted(p.name for p in points)

    def test_sizing_is_checked_once_and_only_estimate_builds_a_plan(self, monkeypatch):
        calls = {"sizing": 0, "plans": 0}
        real_check = pipeline._check_sizing
        real_post_init = types.ParallelismPlan.__post_init__

        def checking(*args):
            calls["sizing"] += 1
            return real_check(*args)

        def building(plan):
            calls["plans"] += 1
            return real_post_init(plan)

        monkeypatch.setattr(pipeline, "_check_sizing", checking)
        monkeypatch.setattr(types.ParallelismPlan, "__post_init__", building)
        grid = [(dense_arch(f"m{i}", 10 ** (9 + i / 10)), 1e11) for i in range(20)]
        points, errors = sweep(grid, HardwareFleet.of((v100(), 64)), dc())
        assert len(points) == 20 and errors == []
        assert calls == {"sizing": 1, "plans": 0}
        report = estimate(EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9,
                                          fleet=HardwareFleet.of((v100(), 64)), data_center=dc()))
        assert calls == {"sizing": 2, "plans": 1}
        assert report.parallelism == efficiency.plan_parallelism(20e9)

    def test_a_valid_dense_point_runs_at_most_13_python_frames(self):
        # The sys.setprofile "call" events of a 2,000-point sweep less those
        # of a 1,000-point one, per extra point: the stage chain, the
        # functions it runs and the report check.
        rng = random.Random(73)
        kinds = (ArchKind.DENSE_GPT, ArchKind.DENSE_ENCDEC, ArchKind.DENSE_DECONLY)

        def point(i):
            if i % 4 == 0:
                return dense_arch(f"m{i}", 10 ** rng.uniform(8, 12)), 10 ** rng.uniform(10, 12)
            h = 64 * rng.randint(8, 128)
            arch = LlmArchitecture(name=f"m{i}", kind=kinds[i % 3], hidden_size=h,
                                   layer_count=rng.randint(4, 96), vocab_size=50257,
                                   head_count=h // 64, head_dim=64, ff_size=4 * h)
            return arch, float(round(10 ** rng.uniform(10, 12)))

        fleet, center = HardwareFleet.of((v100(), 2048), (cpu(), 256)), dc()

        def calls(grid):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                points, errors = sweep(grid, fleet, center)
            finally:
                sys.setprofile(previous)
            assert len(points) == len(grid) and errors == []
            return count

        small, large = [point(i) for i in range(1000)], [point(i) for i in range(2000)]
        calls(small)  # the first sweep reads and fits the packaged anchor table
        assert (calls(large) - calls(small)) / 1000 <= 13

    def test_estimate_is_the_same_before_and_after_the_anchor_cache_is_warm(self):
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9,
                              fleet=HardwareFleet.of((v100(), 64)), data_center=dc())
        catalog._packaged.cache_clear()
        cold = estimate(req)
        assert estimate(req) == cold


class TestEstimateCosts:
    def test_a_packaged_anchor_dense_estimate_runs_at_most_28_python_frames(self):
        # The sys.setprofile "call" events of one estimate() on a three-entry
        # fleet: the setting prices each entry with one unit_power and reads
        # its unit's stored kg and lifetime, and the line items are built in C.
        req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9,
                              fleet=HardwareFleet.of((v100(), 64), (cpu(), 8),
                                                     (HOST_UNITS["ssd"], 4)),
                              data_center=dc())
        estimate(req)  # the first estimate reads and fits the packaged anchor table
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            report = estimate(req)
        finally:
            sys.setprofile(previous)
        assert [item.unit for item in report.line_items] == ["V100", "CPU", "SSD", "others"]
        assert count <= 28


class TestAcceleratorComparison:
    def test_newer_accelerators_cut_operational_carbon(self):
        # Same workload, different chip: TDP per delivered FLOP decides.
        catalog = {
            "H100": HardwareUnit(name="H100", role=HardwareRole.ACCELERATOR,
                                 peak_tflops=989, tdp_watts=700,
                                 die_area_mm2=814, cpa=1.8, cpa_basis="area"),
            "TPUv4": HardwareUnit(name="TPUv4", role=HardwareRole.ACCELERATOR,
                                  peak_tflops=275, tdp_watts=200,
                                  die_area_mm2=400, cpa=1.6, cpa_basis="area"),
            "V100": v100(),
        }
        results = {}
        for name, unit in catalog.items():
            req = EstimateRequest(arch=dense_arch("m", 20e9), tokens=200e9,
                                  fleet=HardwareFleet.of((unit, 171)),
                                  data_center=dc(ci=0.431))
            results[name] = estimate(req).operational_tco2
        assert results["H100"] < results["TPUv4"] < results["V100"]
