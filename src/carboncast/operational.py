"""Operational energy and carbon: execution time, fleet energy, grid carbon.

The chain is: FLOPs and achieved throughput give per-device execution time;
power draw times time gives hardware energy; PUE uplifts it to facility
energy; grid carbon intensity converts to emissions.

Power accounting per fleet entry follows one of two paths. When a measured
average system power is available it already reflects real utilization, so
it multiplies time directly. Otherwise the chip TDP is derated by the
hardware efficiency. Mixing the two in one fleet is fine.

Energy is therefore a per-second rate times device-seconds: measured watts
plus TDP watts times efficiency, times count, times execution time. Which
figure an entry draws is decided in one place, :func:`unit_power`;
:func:`hardware_energy` and the pipeline's per-second fleet rates, worked
out once per fleet and scaled for each estimate, both apply it.

The stages return plain floats: :func:`operational_carbon` the facility
energy and carbon, :func:`storage_energy` the storage and transfer energy.
An inference batch takes the :func:`device_time` of its 2*P*D FLOPs, which
``estimate()`` works out for the inference phase.
"""

from __future__ import annotations

from math import inf

from . import units
from .types import (DataCenterProfile, HardwareFleet, HardwareUnit, LineItem, ModelError,
                    Record, check_non_negative, is_number, is_shape_count, shown)


class StorageWorkload(Record):
    """Data at rest and in flight over a storage phase.

    Defaults: cloud storage draws 11.3 W per stored TB and intra-datacenter
    transfer capacity 1.48 W per TB, held for the whole phase.
    """

    stored_tb: float
    transferred_tb: float
    duration_days: float
    storage_w_per_tb: float = 11.3
    transfer_w_per_tb: float = 1.48

    def __post_init__(self) -> None:
        for fname in ("stored_tb", "transferred_tb", "duration_days",
                      "storage_w_per_tb", "transfer_w_per_tb"):
            check_non_negative(getattr(self, fname), fname, ModelError)


def device_time(total_flops: float, device_count: int,
                peak_tflops: float, efficiency: float) -> float:
    """Execution time in seconds: FLOPs / (devices * peak * efficiency).
    The device count must be an int >= 1 (:func:`is_shape_count`) and the
    efficiency lie in (0, 1]. Infinite FLOPs give infinite seconds, which a
    report refuses."""
    # Written so that NaN fails too.
    if not (is_number(total_flops, "total_flops", ModelError) and total_flops >= 0):
        raise ModelError(f"total_flops must be >= 0, got {shown(total_flops)}")
    for label, value in (("device_count", device_count), ("peak_tflops", peak_tflops),
                         ("efficiency", efficiency)):
        if not is_number(value, label, ModelError):
            raise ModelError(f"{label} must be a number, got {shown(value)}")
    if not is_shape_count(device_count):
        raise ModelError(f"device_count must be an integer >= 1, got {shown(device_count)}")
    if not 0.0 < efficiency <= 1.0:
        raise ModelError(f"efficiency must lie in (0, 1], got {shown(efficiency)}")
    return _seconds(total_flops, device_count, peak_tflops, efficiency)


def _seconds(total_flops: float, device_count: int, peak_tflops: float,
             efficiency: float) -> float:
    """:func:`device_time` on numbers that have passed its checks."""
    denom = device_count * peak_tflops * units.TERA * efficiency
    if not denom > 0:  # NaN fails too
        raise ModelError(
            f"throughput must be positive (devices={device_count}, peak={peak_tflops} "
            f"TFLOP/s, efficiency={efficiency})"
        )
    if denom == inf:
        # Dividing by it would turn any workload into zero seconds.
        raise ModelError(
            f"throughput is beyond the float range (devices={device_count:g}, "
            f"peak={peak_tflops} TFLOP/s, efficiency={efficiency})"
        )
    return total_flops / denom


def unit_power(unit: HardwareUnit,
               override_watts: float | None = None) -> tuple[float, bool] | None:
    """The watts one ``unit`` draws and whether they are measured.

    A measured average system power (``override_watts`` when given, else the
    unit's own) is used as it is; otherwise the TDP, which the caller scales
    by the hardware efficiency. ``None`` for a unit with neither figure.
    """
    watts = override_watts if override_watts is not None else unit.avg_system_power_watts
    if watts is not None:
        return watts, True
    if unit.tdp_watts is not None:
        return unit.tdp_watts, False
    return None


def hardware_energy(
    fleet: HardwareFleet,
    execution_seconds: float,
    efficiency: float,
    power_override_watts: float | None = None,
) -> tuple[float, list[LineItem]]:
    """Fleet energy in MWh plus a per-unit breakdown.

    Each entry contributes power * eff * count * time, where the efficiency
    factor is 1 for measured average system power and ``efficiency`` for the
    TDP path. ``power_override_watts`` substitutes a measured per-device
    power for the accelerator entry.
    """
    check_non_negative(execution_seconds, "execution_seconds", ModelError)
    if not (is_number(efficiency, "efficiency", ModelError) and 0 < efficiency <= 1):
        raise ModelError(f"efficiency must lie in (0, 1], got {shown(efficiency)}")
    if power_override_watts is not None:
        check_non_negative(power_override_watts, "power_override_watts", ModelError)
    total_j = 0.0
    items = []
    accel = fleet.accelerator
    for entry in fleet.entries:
        unit = entry.unit
        power = unit_power(unit, power_override_watts if entry is accel else None)
        if power is None:
            raise ModelError(
                f"{unit.name}: no power figure (needs avg_system_power_watts or tdp_watts)"
            )
        watts, measured = power
        eff = 1.0 if measured else efficiency
        joules = watts * eff * entry.count * execution_seconds
        total_j += joules
        items.append(LineItem(unit=unit.name, count=entry.count,
                              energy_mwh=units.joules_to_mwh(joules)))
    return units.joules_to_mwh(total_j), items


def operational_carbon(hardware_energy_mwh: float,
                       data_center: DataCenterProfile) -> tuple[float, float]:
    """Facility energy in MWh (hardware energy uplifted by PUE) and tonnes
    of CO2eq.

    MWh times kg/kWh lands directly in tonnes (1 MWh * 1 kg/kWh = 1 t).
    The energy must be finite: on a carbon-free grid, infinite energy would
    give NaN carbon.
    """
    # One chain for the common valid case; the check admits the rest or names a fault.
    if not (type(hardware_energy_mwh) is float and 0.0 <= hardware_energy_mwh < inf):
        check_non_negative(hardware_energy_mwh, "hardware_energy_mwh", ModelError)
    oper_mwh = hardware_energy_mwh * data_center.pue
    return oper_mwh, oper_mwh * data_center.carbon_intensity


def storage_energy(workload: StorageWorkload) -> tuple[float, float]:
    """Energy in MWh to hold and to move data over the phase."""
    seconds = units.days_to_seconds(workload.duration_days)
    return (units.watt_seconds_to_mwh(workload.stored_tb * workload.storage_w_per_tb, seconds),
            units.watt_seconds_to_mwh(workload.transferred_tb * workload.transfer_w_per_tb,
                                      seconds))
