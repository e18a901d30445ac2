"""Operational model: execution time, fleet energy, carbon, storage."""

import math
import random
import re

import pytest

from carboncast import units
from carboncast.operational import (
    StorageWorkload,
    device_time,
    hardware_energy,
    operational_carbon,
    storage_energy,
)
from carboncast.pipeline import EstimateRequest, Overrides, estimate
from carboncast.types import (
    ArchKind,
    DataCenterProfile,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LlmArchitecture,
    ModelError,
    Phase,
)
from carboncast.validation import inference_request


def v100(avg_watts=None):
    return HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR,
                        peak_tflops=125, tdp_watts=300,
                        avg_system_power_watts=avg_watts,
                        die_area_mm2=815, cpa=1.2, cpa_basis="area")


class TestDeviceTime:
    def test_gpt3_published_training_days(self):
        seconds = device_time(314e21, 10000, 125, 0.197)
        assert units.seconds_to_days(seconds) == pytest.approx(14.8, rel=0.02)

    def test_t5_published_training_days(self):
        seconds = device_time(40.5e21, 512, 123, 0.37)
        assert units.seconds_to_days(seconds) == pytest.approx(20.0, rel=0.03)

    def test_unit_case(self):
        assert device_time(125e12, 1, 125, 1.0) == pytest.approx(1.0)

    def test_round_trip_identity(self):
        rng = random.Random(37)
        for _ in range(50):
            flops = 10 ** rng.uniform(15, 24)
            n = rng.randrange(1, 20000)
            peak = rng.uniform(50, 2000)
            eff = rng.uniform(0.01, 1.0)
            t = device_time(flops, n, peak, eff)
            assert t * n * peak * 1e12 * eff == pytest.approx(flops, rel=1e-12)

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 8, 125, 0.5), "total_flops must be >= 0, got nan"),
        ((-1.0, 8, 125, 0.5), "total_flops must be >= 0, got -1.0"),
        (("1e20", 8, 125, 0.5), "total_flops must be >= 0, got '1e20'"),
        ((10 ** 400, 8, 125, 0.5), "total_flops is beyond the float range"),
        ((1e20, True, 125, 0.5), "device_count must be a number, got True"),
        ((1e20, 10 ** 400, 125, 0.5), "device_count is beyond the float range"),
        ((1e20, 8, "5", 0.5), "peak_tflops must be a number, got '5'"),
        ((1e20, 8, 125, "0.5"), "efficiency must be a number, got '0.5'"),
        ((1e20, 8, math.nan, 0.5),
         "throughput must be positive (devices=8, peak=nan TFLOP/s, efficiency=0.5)"),
        ((1e20, 8, 125, math.nan), "efficiency must lie in (0, 1], got nan"),
        ((1e21, 0, 125, 0.2), "device_count must be an integer >= 1, got 0"),
        ((1e20, -1, 125.0, -1), "device_count must be an integer >= 1, got -1"),
        ((1e20, 2.5, 125.0, 0.5), "device_count must be an integer >= 1, got 2.5"),
        ((1e20, 8, 125.0, 7.0), "efficiency must lie in (0, 1], got 7.0"),
        ((1e20, 8, 125.0, 10 ** 300), "efficiency must lie in (0, 1], got an int"),
        ((1e20, 8, -125, 0.5),
         "throughput must be positive (devices=8, peak=-125 TFLOP/s, efficiency=0.5)"),
        ((1e20, 8, math.inf, 0.5),
         "throughput is beyond the float range (devices=8, peak=inf TFLOP/s, efficiency=0.5)"),
    ])
    def test_inputs_fail_by_name(self, args, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            device_time(*args)


class TestHardwareEnergy:
    def test_gpt3_fleet_energy(self):
        fleet = HardwareFleet.of((v100(avg_watts=330), 10000))
        mwh, items = hardware_energy(fleet, units.days_to_seconds(14.8), 0.197)
        assert mwh == pytest.approx(1172.2, rel=1e-3)
        assert items[0].unit == "V100"

    def test_measured_power_ignores_efficiency(self):
        fleet = HardwareFleet.of((v100(avg_watts=330), 100))
        lo, _ = hardware_energy(fleet, 1000.0, 0.1)
        hi, _ = hardware_energy(fleet, 1000.0, 0.9)
        assert lo == hi

    def test_tdp_path_derated_by_efficiency(self):
        fleet = HardwareFleet.of((v100(), 100))
        half, _ = hardware_energy(fleet, 1000.0, 0.5)
        full, _ = hardware_energy(fleet, 1000.0, 1.0)
        assert half == pytest.approx(0.5 * full)

    def test_zero_time_zero_energy(self):
        fleet = HardwareFleet.of((v100(avg_watts=330), 100))
        mwh, _ = hardware_energy(fleet, 0.0, 0.2)
        assert mwh == 0.0

    def test_linearity_in_count(self):
        one = HardwareFleet.of((v100(avg_watts=330), 2000))
        cpu = HardwareUnit(name="CPU", role=HardwareRole.CPU, tdp_watts=200,
                           die_area_mm2=147, cpa=1.0, cpa_basis="area")
        split = HardwareFleet(
            (one.entries[0],
             *HardwareFleet.of((cpu, 64), ).entries)
        )
        merged, _ = hardware_energy(split, 500.0, 0.3)
        base, _ = hardware_energy(HardwareFleet.of((v100(avg_watts=330), 1000)), 500.0, 0.3)
        cpu_only, _ = hardware_energy(HardwareFleet.of((cpu, 64)), 500.0, 0.3)
        assert merged == pytest.approx(2 * base + cpu_only, rel=1e-12)

    def test_powerless_entry_rejected(self):
        ghost = HardwareUnit(name="ghost", role=HardwareRole.OTHER,
                             embodied_kg_override=1.0)
        with pytest.raises(ModelError, match="ghost"):
            hardware_energy(HardwareFleet.of((ghost, 1)), 100.0, 0.5)

    @pytest.mark.parametrize("seconds, efficiency, message", [
        (math.nan, 0.5, "execution_seconds must be finite and >= 0, got nan"),
        (math.inf, 0.5, "execution_seconds must be finite and >= 0, got inf"),
        (-1.0, 0.5, "execution_seconds must be finite and >= 0, got -1.0"),
        ("10", 0.5, "execution_seconds must be finite and >= 0, got '10'"),
        (10 ** 400, 0.5, "execution_seconds is beyond the float range"),
        (10.0, math.nan, "efficiency must lie in (0, 1], got nan"),
        (10.0, 0.0, "efficiency must lie in (0, 1], got 0.0"),
        (10.0, 1.5, "efficiency must lie in (0, 1], got 1.5"),
        (10.0, True, "efficiency must lie in (0, 1], got True"),
        (10.0, 10 ** 400, "efficiency is beyond the float range"),
        # A value whose repr is too long for a message is named by its type.
        (10.0, 10 ** 300, "efficiency must lie in (0, 1], got an int"),
        (10.0, "x" * 200, "efficiency must lie in (0, 1], got a str"),
    ])
    def test_inputs_fail_by_name(self, seconds, efficiency, message):
        fleet = HardwareFleet.of((v100(avg_watts=330), 8))
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            hardware_energy(fleet, seconds, efficiency)

    @pytest.mark.parametrize("watts, message", [
        (math.nan, "power_override_watts must be finite and >= 0, got nan"),
        (-1.0, "power_override_watts must be finite and >= 0, got -1.0"),
        ("330", "power_override_watts must be finite and >= 0, got '330'"),
    ])
    def test_power_override_fails_by_name(self, watts, message):
        fleet = HardwareFleet.of((v100(avg_watts=330), 8))
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            hardware_energy(fleet, 10.0, 0.5, watts)


class TestOperationalCarbon:
    def test_gpt3_published_footprint(self):
        dc = DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.429)
        facility, tco2 = operational_carbon(1172.2, dc)
        assert facility == pytest.approx(1172.2 * 1.1)
        assert tco2 == pytest.approx(553.87, rel=0.01)

    def test_carbon_free_grid(self):
        dc = DataCenterProfile(name="green", pue=1.5, carbon_intensity=0.0)
        assert operational_carbon(9999.0, dc)[1] == 0.0

    def test_monotone_in_pue_and_intensity(self):
        rng = random.Random(41)
        for _ in range(50):
            e = rng.uniform(1, 1e4)
            pue_a, pue_b = sorted([rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)])
            ci_a, ci_b = sorted([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
            _, low = operational_carbon(e, DataCenterProfile("a", pue_a, ci_a))
            _, high = operational_carbon(e, DataCenterProfile("b", pue_b, ci_b))
            assert low <= high

    @pytest.mark.parametrize("energy, message", [
        (math.nan, "hardware_energy_mwh must be finite and >= 0, got nan"),
        # On a carbon-free grid, inf MWh would give inf * 0 = NaN tonnes.
        (math.inf, "hardware_energy_mwh must be finite and >= 0, got inf"),
        (-1.0, "hardware_energy_mwh must be finite and >= 0, got -1.0"),
        ("10", "hardware_energy_mwh must be finite and >= 0, got '10'"),
        (True, "hardware_energy_mwh must be finite and >= 0, got True"),
        (10 ** 400, "hardware_energy_mwh is beyond the float range"),
    ])
    def test_energy_fails_by_name(self, energy, message):
        dc = DataCenterProfile(name="green", pue=1.1, carbon_intensity=0.0)
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            operational_carbon(energy, dc)


class TestInferenceLatency:
    # An inference batch's latency is the duration of an inference-phase
    # estimate: 175 B parameters, 32 x 128 tokens, 16 A100s at 9.26%.
    def test_published_batch_latency(self):
        latency = estimate(inference_request()).duration_seconds
        assert latency == pytest.approx(3.10, abs=0.05)

    def test_prediction_close_to_measured(self):
        latency = estimate(inference_request()).duration_seconds
        assert (latency - 3.0) / 3.0 <= 0.035

    def test_single_token_single_device(self):
        p, d, n, peak, eff = 1e12, 1.0, 1, 1.0, 1.0
        chip = HardwareUnit(name="chip", role=HardwareRole.ACCELERATOR, peak_tflops=peak,
                            tdp_watts=100, die_area_mm2=100, cpa=1.0, cpa_basis="area")
        req = EstimateRequest(
            arch=LlmArchitecture(name="m", kind=ArchKind.DENSE_GPT,
                                 explicit_param_count=int(p)),
            tokens=d, fleet=HardwareFleet.of((chip, n)), phase=Phase.INFERENCE,
            data_center=DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.4),
            overrides=Overrides(efficiency=eff))
        assert estimate(req).duration_seconds == 2 * p * d / (n * peak * units.TERA * eff)


class TestStorageEnergy:
    def test_published_storage_phase(self):
        # Six-month storage phase: 32.7 TB held, 277.4 TB transferred.
        w = StorageWorkload(stored_tb=32.7, transferred_tb=277.4, duration_days=180)
        stored, moved = storage_energy(w)
        assert stored == pytest.approx(1.596, rel=0.005)
        assert moved == pytest.approx(1.77, rel=0.005)

    def test_zero_data(self):
        w = StorageWorkload(stored_tb=0, transferred_tb=0, duration_days=365)
        assert storage_energy(w) == (0.0, 0.0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ModelError):
            StorageWorkload(stored_tb=-1, transferred_tb=0, duration_days=1)

    @pytest.mark.parametrize("fname", ["stored_tb", "transferred_tb", "duration_days",
                                       "storage_w_per_tb", "transfer_w_per_tb"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "1",
                                       pytest.param(10 ** 400, id="1e400")])
    def test_non_finite_fields_rejected_by_name(self, fname, value):
        fields = {"stored_tb": 1.0, "transferred_tb": 1.0, "duration_days": 1.0, fname: value}
        fault = "is beyond the float range" if value == 10 ** 400 else "must be finite and >= 0"
        with pytest.raises(ModelError, match=f"^{fname} {fault}"):
            StorageWorkload(**fields)
