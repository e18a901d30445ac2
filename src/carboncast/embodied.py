"""Embodied carbon: manufacturing emissions amortized onto a workload.

A chip's embodied footprint is its die area times the fab's carbon per cm^2
(or capacity times carbon per GB for memory and storage), unless a measured
per-unit figure overrides the pricing. A workload is charged the fraction of
each unit's lifetime it occupies, and the named units are topped up by an
"others" share covering motherboard, chassis, PSU and the like, which is
``OTHERS_FRACTION`` of the final total (15% in published teardowns). As in
the published validations, no utilization derate is applied.

Embodied carbon is therefore a per-second rate times device-seconds: count
times chip kg over lifetime, times execution time. A unit's kg and its
lifetime in seconds are constants of the unit, worked out once when it is
built (``HardwareUnit.embodied_kg`` and ``lifetime_seconds``), so pricing a
fleet only reads them. The pipeline takes a fleet's rates from
:func:`fleet_embodied` over one second, once per fleet, pairing each entry's
tCO2 with the entry in the same pass that applies the shared power rule
(:func:`carboncast.operational.unit_power`), and scales them for each
estimate.
"""

from __future__ import annotations

from math import inf

from .types import HardwareFleet, HardwareUnit, ModelError, check_non_negative

OTHERS_FRACTION = 0.15


def chip_embodied(unit: HardwareUnit) -> float:
    """Manufacturing kgCO2eq for a single unit, by its active pricing basis."""
    return unit.embodied_kg


def fleet_embodied(fleet: HardwareFleet,
                   execution_seconds: float) -> tuple[list[float], float, float]:
    """Embodied tCO2 a workload of ``execution_seconds`` is charged for:
    each fleet entry's, in fleet order, then the others share and the total.

    Per entry: count * chip kg * (time / lifetime); the entries' sum is
    then the ``1 - OTHERS_FRACTION`` share of the total.
    """
    # One chain for the common valid case; the check admits the rest or names a fault.
    if not (type(execution_seconds) is float and 0.0 <= execution_seconds < inf):
        check_non_negative(execution_seconds, "execution_seconds", ModelError)

    # Summed as they are made, left to right from int 0 as plain_sum adds.
    per_entry = []
    named = 0
    for entry in fleet.entries:
        unit = entry.unit
        share = execution_seconds / unit.lifetime_seconds
        tco2 = entry.count * unit.embodied_kg * share / 1000.0
        per_entry.append(tco2)
        named += tco2
    total = named / (1.0 - OTHERS_FRACTION)
    return per_entry, total - named, total
