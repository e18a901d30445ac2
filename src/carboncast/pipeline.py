"""End-to-end orchestration: architecture in, carbon report out.

The flow mirrors how the component models feed each other: parameter count,
then test loss, then the FLOP budget, then the parallelism plan and hardware
efficiency, then operational energy and carbon, then embodied carbon, and
finally their sum. Any stage can be short-circuited by a measured override
(FLOPs, efficiency, device count, per-device power); supplying the value the
model would have computed changes nothing.

Also here: the lifecycle, a weighted sum of phase reports (training, which
also stands for inference and experimentation, plus storage), and the
design-space sweep with Pareto dominance flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from math import inf

from . import units
from .efficiency import (
    DEFAULT_DEVICE_MEMORY_GB,
    DEFAULT_SERVER_SIZE,
    efficiency_at_count,
    optimal_efficiency,
    plan_parallelism,
)
from .embodied import OTHERS_FRACTION, fleet_embodied
from .flops import inference_flops, training_flops
from .operational import (
    StorageWorkload,
    device_time,
    hardware_energy,
    operational_carbon,
    storage_energy,
)
from .params import ParameterCount, count_params
from .scaling import test_loss
from .types import (
    CarbonReport,
    DataCenterProfile,
    HardwareFleet,
    LineItem,
    LlmArchitecture,
    ModelError,
    Phase,
    ScalingConstants,
)


@dataclass(frozen=True)
class Overrides:
    """Measured values that replace the corresponding model stage."""

    measured_flops: float | None = None
    efficiency: float | None = None
    device_count: int | None = None
    system_power_watts: float | None = None


@dataclass(frozen=True)
class EstimateRequest:
    """Everything needed to project one phase of one model."""

    arch: LlmArchitecture
    tokens: float
    fleet: HardwareFleet
    data_center: DataCenterProfile
    phase: Phase = Phase.TRAINING
    scaling: ScalingConstants = field(default_factory=ScalingConstants)
    overrides: Overrides = field(default_factory=Overrides)
    storage: StorageWorkload | None = None
    device_memory_gb: float = DEFAULT_DEVICE_MEMORY_GB
    server_size: int = DEFAULT_SERVER_SIZE
    anchors: list[tuple[float, float]] | None = None
    others_fraction: float = OTHERS_FRACTION


@dataclass(frozen=True)
class LifecyclePlan:
    """A training run plus the activity that surrounds it.

    ``inference_share`` and ``experimentation_share`` scale the training
    phase's device time (the fleet stays powered serving those activities);
    storage is its own workload. Published activity ratios vary by operator
    and are inputs here, not defaults. ``training`` must be a training-phase
    request without a storage workload of its own.
    """

    training: EstimateRequest
    inference_share: float = 0.0
    experimentation_share: float = 0.0
    storage: StorageWorkload | None = None

    def __post_init__(self) -> None:
        for fname in ("inference_share", "experimentation_share"):
            value = getattr(self, fname)
            # Written so that NaN fails too.
            if not (0.0 <= value < inf):
                raise ModelError(f"{fname} must be finite and >= 0, got {value!r}")
        if self.training.phase is not Phase.TRAINING:
            raise ModelError(f"training request has phase {self.training.phase.value}, "
                             "expected training")
        if self.training.storage is not None:
            raise ModelError("training request carries storage; give it as the "
                             "lifecycle's storage instead")


@dataclass(frozen=True)
class SweepPoint:
    name: str
    param_count: int
    tokens: float
    test_loss: float
    training_tco2: float
    dominated: bool = False


def _flop_param_count(arch, full_count: int) -> float:
    """Parameter count that drives FLOPs: the dense base model for MoE."""
    if not arch.is_moe:
        return float(full_count)
    if arch.base_model_param_count is not None:
        return float(arch.base_model_param_count)
    if arch.hidden_size > 0 and arch.layer_count > 0 and arch.vocab_size > 0:
        # Dense counterpart of the expert model.
        return float(12 * arch.layer_count * arch.hidden_size ** 2
                     + arch.vocab_size * arch.hidden_size)
    raise ModelError(
        f"{arch.name}: MoE FLOPs need base_model_param_count "
        "(or h, l, V to derive the dense counterpart)"
    )


class _stage:
    """Re-raise model errors with the failing pipeline stage named."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and issubclass(exc_type, ModelError):
            raise ModelError(f"[{self.name}] {exc}") from exc
        return False


def estimate(req: EstimateRequest) -> CarbonReport:
    """Project one phase end to end. See module docstring for the flow."""
    if req.phase is Phase.STORAGE:
        return _estimate_storage(req.storage, req.data_center)
    return _estimate(req)[0]


def _estimate(req: EstimateRequest) -> tuple[CarbonReport, ParameterCount]:
    """A training or inference estimate, with the parameter count it used."""
    if req.phase not in (Phase.TRAINING, Phase.INFERENCE):
        raise ModelError(f"estimate() handles training/inference/storage, not {req.phase}")

    arch = req.arch
    with _stage("parameter-model"):
        pcount = count_params(arch)

    loss = None
    if req.phase is Phase.TRAINING and req.tokens > 0:
        with _stage("scaling-law"):
            loss = test_loss(pcount.total, req.tokens, req.scaling, moe=arch.is_moe).loss

    with _stage("flop-model"):
        if req.overrides.measured_flops is not None:
            flops = req.overrides.measured_flops
        else:
            p_flops = _flop_param_count(arch, pcount.total)
            budget = (training_flops(p_flops, req.tokens) if req.phase is Phase.TRAINING
                      else inference_flops(p_flops, req.tokens))
            flops = budget.total_flops

    accel = req.fleet.accelerator
    if accel is None:
        raise ModelError("[efficiency-model] fleet has no accelerator entry")

    with _stage("efficiency-model"):
        plan = plan_parallelism(
            pcount.total, is_moe=arch.is_moe,
            device_memory_gb=req.device_memory_gb, server_size=req.server_size,
        )
        actual_devices = (req.overrides.device_count
                          if req.overrides.device_count is not None else accel.count)
        if req.overrides.efficiency is not None:
            eff = req.overrides.efficiency
        else:
            base_for_eff = _flop_param_count(arch, pcount.total) if arch.is_moe else pcount.total
            opt = optimal_efficiency(base_for_eff, is_moe=arch.is_moe, anchors=req.anchors,
                                     at_device_count=plan.device_count)
            if actual_devices == plan.device_count:
                eff = opt.efficiency
            else:
                eff = efficiency_at_count(actual_devices, plan.device_count,
                                          opt.efficiency).efficiency

    fleet = _with_accelerator_count(req.fleet, actual_devices)
    with _stage("operational-carbon"):
        seconds = 0.0 if flops == 0 else device_time(
            flops, actual_devices, accel.unit.peak_tflops, eff)
        # Units without a power figure ride along for embodied accounting
        # only; a measured accelerator system power already covers their
        # draw (host CPU, DRAM, network and so on).
        powered = _powered_subfleet(fleet, req.overrides.system_power_watts)
        energy_mwh, energy_items = hardware_energy(
            powered, seconds, eff, power_override_watts=req.overrides.system_power_watts)
        oper = operational_carbon(energy_mwh, req.data_center)

    with _stage("embodied-carbon"):
        emb = fleet_embodied(fleet, seconds, others_fraction=req.others_fraction)

    rows = [(i.unit, i.count, i.energy_mwh, 0.0) for i in energy_items]
    rows += [(e.unit, e.count, 0.0, e.attributed_tco2) for e in emb.per_unit]
    rows.append(("others", 0, 0.0, emb.others_tco2))
    report = CarbonReport(
        phase=req.phase,
        duration_seconds=seconds,
        hardware_energy_mwh=oper.hardware_energy_mwh,
        operational_energy_mwh=oper.operational_energy_mwh,
        operational_tco2=oper.operational_tco2,
        embodied_tco2=emb.total_tco2,
        total_tco2=oper.operational_tco2 + emb.total_tco2,
        hardware_efficiency=eff,
        test_loss=loss,
        parallelism=plan,
        line_items=_sum_line_items(rows),
    )
    return report, pcount


def _estimate_storage(storage: StorageWorkload | None,
                      data_center: DataCenterProfile) -> CarbonReport:
    if storage is None:
        raise ModelError("[operational-carbon] storage phase needs a storage workload")
    energy = storage_energy(storage)
    seconds = units.days_to_seconds(storage.duration_days)
    oper = operational_carbon(energy.total_mwh, data_center)
    return CarbonReport(
        phase=Phase.STORAGE,
        duration_seconds=seconds,
        hardware_energy_mwh=oper.hardware_energy_mwh,
        operational_energy_mwh=oper.operational_energy_mwh,
        operational_tco2=oper.operational_tco2,
        embodied_tco2=0.0,
        total_tco2=oper.operational_tco2,
        line_items=(
            LineItem(unit="storage", count=1, energy_mwh=energy.storage_mwh),
            LineItem(unit="transfer", count=1, energy_mwh=energy.transfer_mwh),
        ),
    )


def estimate_lifecycle(plan: LifecyclePlan) -> CarbonReport:
    """A lifecycle report: the weighted sum of its phase reports.

    Inference and experimentation are modeled as extra wall-clock on the
    training fleet, so the training report counts ``1 + inference_share +
    experimentation_share`` times; a storage report counts once. With both
    shares at zero and no storage the numbers are the training estimate's.
    """
    activity = 1.0 + plan.inference_share + plan.experimentation_share
    parts = [(activity, estimate(plan.training))]
    if plan.storage is not None:
        parts.append((1.0, _estimate_storage(plan.storage, plan.training.data_center)))
    return _sum_reports(parts)


def _sum_reports(parts: list[tuple[float, CarbonReport]]) -> CarbonReport:
    """The lifecycle report of (weight, phase report) parts: durations,
    energies, carbon and line items are weighted sums; hardware efficiency,
    test loss and plan are the first (training) part's."""
    duration = hardware = facility = operational = embodied = 0.0
    for w, r in parts:
        duration += w * r.duration_seconds
        hardware += w * r.hardware_energy_mwh
        facility += w * r.operational_energy_mwh
        operational += w * r.operational_tco2
        embodied += w * r.embodied_tco2
    training = parts[0][1]
    return CarbonReport(
        phase=Phase.LIFECYCLE,
        duration_seconds=duration,
        hardware_energy_mwh=hardware,
        operational_energy_mwh=facility,
        operational_tco2=operational,
        embodied_tco2=embodied,
        total_tco2=operational + embodied,
        hardware_efficiency=training.hardware_efficiency,
        test_loss=training.test_loss,
        parallelism=training.parallelism,
        line_items=_sum_line_items((i.unit, i.count, w * i.energy_mwh, w * i.embodied_tco2)
                                   for w, r in parts for i in r.line_items),
    )


def _sum_line_items(rows) -> tuple[LineItem, ...]:
    """Line items from (unit, count, energy_mwh, embodied_tco2) rows, summed
    by unit. A unit keeps the order and the count of its first row.
    """
    merged: dict[str, list] = {}
    for unit, count, energy, embodied in rows:
        acc = merged.setdefault(unit, [count, 0.0, 0.0])
        acc[1] += energy
        acc[2] += embodied
    return tuple(LineItem(unit, count, energy, embodied)
                 for unit, (count, energy, embodied) in merged.items())


def sweep(
    grid: list[tuple[LlmArchitecture, float]],
    fleet: HardwareFleet,
    data_center: DataCenterProfile,
    scaling: ScalingConstants | None = None,
    anchors: list[tuple[float, float]] | None = None,
    device_memory_gb: float = DEFAULT_DEVICE_MEMORY_GB,
    server_size: int = DEFAULT_SERVER_SIZE,
) -> tuple[list[SweepPoint], list[tuple[str, str]]]:
    """Evaluate a grid of (architecture, token count) design points.

    Every point runs the full optimal path (no overrides): its own plan,
    optimal efficiency and training carbon. Failing points are returned as
    (name, reason) alongside the successes, never silently dropped. Points
    come back sorted by (loss, carbon) and carry Pareto dominance flags.
    """
    if not grid:
        raise ModelError("sweep grid is empty")
    constants = scaling if scaling is not None else ScalingConstants()

    points: list[SweepPoint] = []
    errors: list[tuple[str, str]] = []
    for arch, tokens in grid:
        try:
            if not (0 < tokens < inf):
                raise ModelError(f"sweep points need a finite positive token count, got {tokens!r}")
            req = EstimateRequest(
                arch=arch, tokens=tokens, fleet=fleet, data_center=data_center,
                phase=Phase.TRAINING, scaling=constants, anchors=anchors,
                device_memory_gb=device_memory_gb, server_size=server_size,
            )
            report, pcount = _estimate(req)
            points.append(SweepPoint(
                name=arch.name, param_count=pcount.total, tokens=tokens,
                test_loss=report.test_loss, training_tco2=report.operational_tco2,
            ))
        except ModelError as exc:
            errors.append((getattr(arch, "name", "<unnamed>"), str(exc)))

    points.sort(key=lambda p: (p.test_loss, p.training_tco2, p.name))
    flagged = [replace(p, dominated=d) for p, d in zip(points, _dominance_flags(points))]
    return flagged, errors


def _dominance_flags(points: list[SweepPoint]) -> list[bool]:
    """Pareto dominance flags of points sorted by (test_loss, training_tco2).

    One pass over the groups of equal loss, as in the 2-D maxima method of
    Kung, Luccio and Preparata (J. ACM 1975). A point is dominated by an
    earlier group's point that has no more carbon, or by a point of its own
    group that has strictly less. Equal (loss, carbon) pairs do not
    dominate each other.
    """
    flags: list[bool] = []
    best = inf  # lowest carbon among points of strictly lower loss
    for _, group in groupby(points, key=lambda p: p.test_loss):
        carbons = [p.training_tco2 for p in group]
        lowest = carbons[0]
        flags.extend(best <= c or lowest < c for c in carbons)
        best = min(best, lowest)
    return flags


def _powered_subfleet(fleet: HardwareFleet, accel_power_override: float | None) -> HardwareFleet:
    accel = fleet.accelerator
    kept = tuple(
        e for e in fleet.entries
        if e.unit.avg_system_power_watts is not None
        or e.unit.tdp_watts is not None
        or (e is accel and accel_power_override is not None)
    )
    return HardwareFleet(kept)


def _with_accelerator_count(fleet: HardwareFleet, count: int) -> HardwareFleet:
    accel = fleet.accelerator
    if accel is None or accel.count == count:
        return fleet
    entries = tuple(replace(e, count=count) if e is accel else e for e in fleet.entries)
    return HardwareFleet(entries)
