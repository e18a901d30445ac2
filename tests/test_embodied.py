"""Embodied carbon: per-chip pricing and fleet attribution."""

import io
import math
import pickle
import random
import re
from pathlib import Path

import pytest

from carboncast import catalog, units
from carboncast.embodied import chip_embodied, fleet_embodied
from carboncast.pipeline import EstimateRequest, estimate
from carboncast.types import (ArchKind, DataCenterProfile, HardwareFleet, HardwareRole,
                              HardwareUnit, LlmArchitecture, ModelError)
from carboncast.validation import XLM_EMBODIED_FLEET, XLM_TRAINING_DAYS

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def every_catalog_unit() -> list[HardwareUnit]:
    """The packaged units and those of the example catalogs."""
    found = catalog.default_hardware()
    for path in sorted(EXAMPLES.glob("*.csv")):
        found += catalog.load_hardware(io.StringIO(path.read_text(encoding="utf-8")))
    return found


def priced_as_before(unit: HardwareUnit) -> tuple[float, float]:
    """A unit's kg and lifetime seconds by the formulas pricing once ran on
    every call: the reference for the constants a unit now keeps."""
    if unit.embodied_kg_override is not None:
        kg = float(unit.embodied_kg_override)
    elif unit.embodied_basis == "area":
        kg = (unit.die_area_mm2 / 100.0) * unit.cpa
    else:
        kg = unit.capacity_gb * unit.cpa
    return kg, units.years_to_seconds(unit.lifetime_years)


class TestChipEmbodied:
    def test_v100_die_pricing(self):
        v100 = HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR,
                            peak_tflops=125, die_area_mm2=815, cpa=1.2,
                            cpa_basis="area")
        assert chip_embodied(v100) == pytest.approx(9.78)

    def test_cpu_die_pricing(self):
        cpu = HardwareUnit(name="CPU", role=HardwareRole.CPU,
                           die_area_mm2=147, cpa=1.0, cpa_basis="area")
        assert chip_embodied(cpu) == pytest.approx(1.47)

    def test_capacity_pricing(self):
        dram = HardwareUnit(name="DRAM", role=HardwareRole.DRAM,
                            capacity_gb=256, cpa=0.024, cpa_basis="gb")
        assert chip_embodied(dram) == pytest.approx(6.144)

    def test_zero_area_zero_carbon(self):
        chip = HardwareUnit(name="thin", role=HardwareRole.OTHER,
                            die_area_mm2=0.0, cpa=1.2, cpa_basis="area")
        assert chip_embodied(chip) == 0.0

    def test_override_bypasses_pricing(self):
        ssd = HardwareUnit(name="SSD", role=HardwareRole.SSD,
                           capacity_gb=32768, cpa=0.4, cpa_basis="gb",
                           embodied_kg_override=576.0)
        assert chip_embodied(ssd) == 576.0


class TestUnitConstants:
    """A unit's kg and lifetime seconds are worked out once, when it is built."""

    @pytest.mark.parametrize("unit", every_catalog_unit(), ids=lambda unit: unit.name)
    def test_stored_constants_are_the_old_formulas_bit_for_bit(self, unit):
        kg, seconds = priced_as_before(unit)
        assert chip_embodied(unit) is unit.embodied_kg
        # A pickled copy carries them; replace() works them out anew.
        for again in (unit, pickle.loads(pickle.dumps(unit)), unit.replace()):
            assert again.embodied_kg.hex() == kg.hex()
            assert again.lifetime_seconds.hex() == seconds.hex()

    def test_replace_works_them_out_anew(self):
        v100 = catalog.resolve_catalogs()[0]["V100"]
        changed = v100.replace(cpa=2.4, lifetime_years=2.5)
        assert changed.embodied_kg == priced_as_before(changed)[0] == 2 * v100.embodied_kg
        assert changed.lifetime_seconds == v100.lifetime_seconds / 2

    def test_a_kg_that_overflows_builds_and_fails_only_when_priced(self):
        # die area times CPA overflows to inf: the unit builds, as it always
        # has, and an estimate on it stops at the report check.
        big = HardwareUnit(name="big", role=HardwareRole.ACCELERATOR, peak_tflops=125,
                           tdp_watts=300, die_area_mm2=1e300, cpa=1e300, cpa_basis="area")
        assert big.embodied_kg == math.inf
        req = EstimateRequest(
            arch=LlmArchitecture(name="m", kind=ArchKind.DENSE_GPT,
                                 explicit_param_count=20_000_000_000),
            tokens=200e9, fleet=HardwareFleet.of((big, 8)),
            data_center=DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.429))
        with pytest.raises(ModelError,
                           match=r"^embodied_tco2 must be finite and >= 0, got inf$"):
            estimate(req)


class TestFleetEmbodied:
    def test_published_xlm_cluster(self):
        per_entry, _, total = fleet_embodied(XLM_EMBODIED_FLEET,
                                             units.days_to_seconds(XLM_TRAINING_DAYS))
        by_unit = {e.unit.name: tco2 for e, tco2 in zip(XLM_EMBODIED_FLEET.entries, per_entry)}
        assert total == pytest.approx(0.64, abs=0.01)
        assert by_unit["GPU"] == pytest.approx(0.056, abs=0.002)
        assert by_unit["SSD"] == pytest.approx(0.412, abs=0.005)
        assert by_unit["DRAM"] == pytest.approx(0.073, abs=0.002)

    def test_others_share_is_exact(self):
        _, others, total = fleet_embodied(XLM_EMBODIED_FLEET,
                                          units.days_to_seconds(XLM_TRAINING_DAYS))
        assert others / total == pytest.approx(0.15, abs=1e-12)

    def test_lifetime_share_uses_exact_day_arithmetic(self):
        # 20.4 days of a 5-year (1826.25-day) lifetime is 1.117%.
        per_entry, _, _ = fleet_embodied(XLM_EMBODIED_FLEET,
                                         units.days_to_seconds(XLM_TRAINING_DAYS))
        assert XLM_EMBODIED_FLEET.entries[0].unit.name == "GPU"
        share = per_entry[0] * 1000.0 / (512 * 9.78)
        assert share == pytest.approx(20.4 / 1826.25, rel=1e-12)

    def test_zero_time_all_zero(self):
        per_entry, others, total = fleet_embodied(XLM_EMBODIED_FLEET, 0.0)
        assert total == 0.0
        assert others == 0.0
        assert per_entry == [0.0] * len(XLM_EMBODIED_FLEET.entries)

    @pytest.mark.parametrize("seconds, message", [
        (math.nan, "execution_seconds must be finite and >= 0, got nan"),
        (math.inf, "execution_seconds must be finite and >= 0, got inf"),
        (-1.0, "execution_seconds must be finite and >= 0, got -1.0"),
        ("10", "execution_seconds must be finite and >= 0, got '10'"),
    ])
    def test_execution_seconds_fail_by_name(self, seconds, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            fleet_embodied(XLM_EMBODIED_FLEET, seconds)

    def test_linearity_in_time(self):
        rng = random.Random(43)
        for _ in range(20):
            t = rng.uniform(1, 1e8)
            once, _, once_total = fleet_embodied(XLM_EMBODIED_FLEET, t)
            twice, _, twice_total = fleet_embodied(XLM_EMBODIED_FLEET, 2 * t)
            assert twice_total == pytest.approx(2 * once_total, rel=1e-12)
            for a, b in zip(once, twice, strict=True):
                assert b == pytest.approx(2 * a, rel=1e-12)

    def test_zero_lifetime_rejected(self):
        # The unit type itself refuses nonpositive lifetimes.
        from carboncast.types import CatalogError
        with pytest.raises(CatalogError, match="lifetime"):
            HardwareFleet.of((HardwareUnit(name="x", role=HardwareRole.OTHER,
                                           embodied_kg_override=1.0,
                                           lifetime_years=0.0), 1))
