"""End-to-end orchestration: architecture in, carbon report out.

The flow mirrors how the component models feed each other: parameter count,
then test loss, then the FLOP budget, then the parallelism plan and hardware
efficiency, then operational energy and carbon, then embodied carbon, and
finally their sum. Any stage can be short-circuited by a measured override
(FLOPs, efficiency, device count, per-device power); supplying the value the
model would have computed changes nothing.

What depends only on the fleet, the overrides, the anchor table and the
device sizing is worked out once, up front, in a ``_Setting``: the fitted
anchor curve, the fleet's energy and embodied carbon per second, and the
device memory and server size, checked. A fault of the setting (no
accelerator, a bad sizing, an anchor table that does not fit) is raised
once, as ``[efficiency-model]``, when the setting is built. The energy
rates follow the power rule that ``hardware_energy`` also applies,
``operational.unit_power``; the embodied rates are ``fleet_embodied`` over
one second. ``estimate()`` makes a setting per call; ``sweep()`` makes one
for all its points.

The model stages run in one chain, ``_stages``. The efficiency,
operational and embodied stages hand it plain floats, and the planning
stage the parallelism degrees as a tuple, from the planning core that
``plan_parallelism`` also calls. It multiplies its execution seconds by the
setting's rates and names every fault it meets by its stage. The chain has
two ends. ``estimate()`` builds a report, with its ``ParallelismPlan`` and
a line item per fleet unit, from the stage values. ``sweep()`` builds no
report and no plan: it checks the same values the report would check, with
the same messages, and keeps a row of the loss and carbon.

Also here: the lifecycle, a weighted sum of its parts (training, which
also stands for inference and experimentation, plus storage), and the
design-space sweep with Pareto dominance flags. Storage is priced only as a
lifecycle part: a request is a training or an inference phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import itemgetter

from . import units
from .efficiency import (
    DEFAULT_DEVICE_MEMORY_GB,
    DEFAULT_SERVER_SIZE,
    _check_param_count,
    _check_sizing,
    _plan_degrees,
    efficiency_at_count,
    fit_anchors,
    optimal_efficiency,
)
from .embodied import fleet_embodied
from .flops import inference_flops, training_flops
from .operational import (
    StorageWorkload,
    device_time,
    operational_carbon,
    storage_energy,
    unit_power,
)
from .params import ParameterCount, count_dense_gpt, count_params
from .scaling import test_loss
from .types import (
    CarbonReport,
    DataCenterProfile,
    FleetEntry,
    HardwareFleet,
    LineItem,
    LlmArchitecture,
    ModelError,
    ParallelismPlan,
    Phase,
    ScalingConstants,
    check_count,
    check_non_negative,
    check_report_floats,
    is_number,
    is_shape_count,
)


@dataclass(frozen=True)
class Overrides:
    """Measured values that replace the corresponding model stage."""

    measured_flops: float | None = None
    efficiency: float | None = None
    device_count: int | None = None
    system_power_watts: float | None = None

    def __post_init__(self) -> None:
        for fname in ("measured_flops", "system_power_watts"):
            if (value := getattr(self, fname)) is not None:
                check_non_negative(value, fname, ModelError)
        eff = self.efficiency
        if eff is not None and not (is_number(eff, "efficiency", ModelError) and 0 < eff <= 1):
            raise ModelError(f"efficiency must lie in (0, 1], got {eff!r}")
        if self.device_count is not None:
            check_count(self.device_count, "device_count", ModelError)


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
    device_memory_gb: float = DEFAULT_DEVICE_MEMORY_GB
    server_size: int = DEFAULT_SERVER_SIZE
    anchors: list[tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        check_non_negative(self.tokens, "tokens", ModelError)
        if self.phase not in (Phase.TRAINING, Phase.INFERENCE):
            raise ModelError("phase must be training or inference, got " + (
                self.phase.value if isinstance(self.phase, Phase) else repr(self.phase)))


@dataclass(frozen=True)
class LifecyclePlan:
    """A training run plus the activity that surrounds it.

    ``inference_share`` and ``experimentation_share`` scale the training
    phase's device time (the fleet stays powered serving those activities);
    storage is its own workload, priced here and nowhere else. Published
    activity ratios vary by operator and are inputs here, not defaults.
    ``training`` must be a training-phase request.
    """

    training: EstimateRequest
    inference_share: float = 0.0
    experimentation_share: float = 0.0
    storage: StorageWorkload | None = None

    def __post_init__(self) -> None:
        for fname in ("inference_share", "experimentation_share"):
            check_non_negative(getattr(self, fname), fname, ModelError)
        if self.training.phase is not Phase.TRAINING:
            raise ModelError(f"training request has phase {self.training.phase.value}, "
                             "expected training")


@dataclass(frozen=True, slots=True)
class SweepPoint:
    name: str
    param_count: int
    tokens: float
    test_loss: float
    training_tco2: float
    dominated: bool = False


def _flop_param_count(arch, full_count: int, is_moe: bool) -> float:
    """Parameter count that drives FLOPs and efficiency: the dense base model
    for MoE (``is_moe``)."""
    if not is_moe:
        return float(full_count)
    if arch.base_model_param_count is not None:  # a finite number, checked when built
        return float(arch.base_model_param_count)
    try:
        if (is_shape_count(arch.hidden_size) and is_shape_count(arch.layer_count)
                and is_shape_count(arch.vocab_size)):
            # Dense counterpart of the expert model.
            return float(count_dense_gpt(arch).total)
    except OverflowError:
        raise ModelError(f"{arch.name}: dense base parameter count is beyond the float "
                         "range") from None
    raise ModelError(
        f"{arch.name}: MoE FLOPs need base_model_param_count "
        "(or h, l, V to derive the dense counterpart)"
    )


def estimate(req: EstimateRequest) -> CarbonReport:
    """Project one phase end to end. See module docstring for the flow."""
    setting = _Setting(req.fleet, req.overrides, req.anchors, req.device_memory_gb,
                       req.server_size)
    _, loss, degrees, eff, seconds, energies, hardware, facility, carbon, embodied = _stages(
        req.arch, req.tokens, req.phase, req.scaling, req.overrides, req.data_center, setting)
    rates, _ = setting.rates
    return CarbonReport(
        phase=req.phase,
        duration_seconds=seconds,
        hardware_energy_mwh=hardware,
        operational_energy_mwh=facility,
        operational_tco2=carbon,
        embodied_tco2=embodied,
        total_tco2=carbon + embodied,
        hardware_efficiency=eff,
        test_loss=loss,
        parallelism=ParallelismPlan(*degrees),
        line_items=tuple([LineItem(unit, count, energy, unit_embodied * seconds)
                          for (unit, (count, _, _, unit_embodied)), energy
                          in zip(rates.items(), energies)]),
    )


class _Setting:
    """What estimates on one fleet, set of overrides, anchor table and device
    sizing share, made once, up front: the accelerator entry and the device
    count, the fleet's per-second rates, the fitted anchor curve (when there
    is no efficiency override) and the checked device memory and server
    size. Building it checks the accelerator entry, then the sizing, then
    the anchor table, and raises the first fault as ``[efficiency-model]``.
    ``sweep()`` makes one setting for all its points; ``estimate()`` makes
    one per call.
    """

    __slots__ = ("accel", "device_count", "curve", "rates", "device_memory_gb", "server_size")

    def __init__(self, fleet: HardwareFleet, overrides: Overrides,
                 anchors: list[tuple[float, float]] | None, device_memory_gb: float,
                 server_size: int) -> None:
        self.accel = accel = fleet.accelerator
        try:
            if accel is None:
                raise ModelError("fleet has no accelerator entry")
            _check_sizing(device_memory_gb, server_size)
            self.curve = None if overrides.efficiency is not None else fit_anchors(anchors)
        except ModelError as exc:
            raise ModelError(f"[efficiency-model] {exc}") from exc
        self.device_count = overrides.device_count or accel.count
        self.rates = _fleet_rates(fleet, accel, self.device_count, overrides.system_power_watts)
        self.device_memory_gb = device_memory_gb
        self.server_size = server_size


def _fleet_rates(fleet: HardwareFleet, accel: FleetEntry, device_count: int,
                 power_watts: float | None) -> tuple[dict[str, list], float]:
    """Energy and embodied carbon per second of execution of ``fleet``, whose
    accelerator entry is ``accel``, with ``device_count`` accelerators and,
    when ``power_watts`` is given, that measured power per accelerator: each
    unit's draw by ``unit_power`` at full efficiency, and ``fleet_embodied``
    over one second.

    Returns the units, mapping each unit name to [count, measured MWh/s, TDP
    MWh/s at full efficiency, embodied tCO2/s] (powered units first, then
    the rest, each in fleet order, then the ``others`` share); and the
    fleet's embodied tCO2/s, named units plus others.
    """
    if accel.count != device_count:
        resized = FleetEntry(accel.unit, device_count)
        fleet = HardwareFleet(tuple(resized if e is accel else e for e in fleet.entries))
        accel = resized
    per_entry, others, total = fleet_embodied(fleet, 1.0)
    merged: dict[str, list] = {}
    # Units without a power figure ride along for embodied accounting only;
    # a measured accelerator system power already covers their draw (host
    # CPU, DRAM, network and so on).
    unpowered = []
    for e, tco2 in zip(fleet.entries, per_entry):
        power = unit_power(e.unit, power_watts if e is accel else None)
        if power is None:
            unpowered.append((e, tco2))
            continue
        watts, measured = power
        row = merged.setdefault(e.unit.name, [e.count, 0.0, 0.0, 0.0])
        row[1 if measured else 2] += units.joules_to_mwh(watts * e.count)
        row[3] += tco2
    for e, tco2 in unpowered:
        merged.setdefault(e.unit.name, [e.count, 0.0, 0.0, 0.0])[3] += tco2
    merged.setdefault("others", [0, 0.0, 0.0, 0.0])[3] += others
    return merged, total


def _stages(arch: LlmArchitecture, tokens: float, phase: Phase, scaling: ScalingConstants,
            overrides: Overrides, data_center: DataCenterProfile, setting: _Setting,
            ) -> tuple[ParameterCount, float | None, tuple[int, int, int, int], float, float,
                       list[float], float, float, float, float]:
    """The model stages of one training or inference estimate, on ``setting``,
    which is made from the estimate's fleet, overrides, anchor table and
    device sizing.

    Returns the stage values: the parameter count, the test loss (``None``
    for inference or zero tokens), the (pipeline, tensor, data, expert)
    parallelism degrees, the hardware efficiency, the execution seconds,
    each fleet unit's hardware energy in MWh in the order of
    ``setting.rates``, the fleet's hardware energy and facility energy in
    MWh, the operational tCO2 and the embodied tCO2.
    """
    # A model error is re-raised with the stage it was met in named.
    stage = "parameter-model"
    try:
        pcount = count_params(arch)
        total = pcount.total
        is_moe = arch.is_moe

        loss = None
        if phase is Phase.TRAINING and tokens > 0:
            stage = "scaling-law"
            loss = test_loss(total, tokens, scaling, moe=is_moe).loss

        stage = "flop-model"
        p_flops = None  # worked out where a stage first needs it
        if overrides.measured_flops is not None:
            flops = overrides.measured_flops
        else:
            p_flops = _flop_param_count(arch, total, is_moe)
            budget = (training_flops(p_flops, tokens) if phase is Phase.TRAINING
                      else inference_flops(p_flops, tokens))
            flops = budget.total_flops

        stage = "efficiency-model"
        # plan_parallelism's own checks; the setting checked the sizing.
        _check_param_count(total)
        degrees = _plan_degrees(total, is_moe, setting.device_memory_gb, setting.server_size)
        if overrides.efficiency is not None:
            eff = overrides.efficiency
        else:
            if p_flops is None:
                p_flops = _flop_param_count(arch, total, is_moe)
            opt = optimal_efficiency(p_flops, is_moe=is_moe, anchors=setting.curve)
            pipeline, tensor, data, _ = degrees
            eff = efficiency_at_count(setting.device_count, tensor * pipeline * data, opt)

        stage = "operational-carbon"
        rates, embodied_per_s = setting.rates
        seconds = 0.0 if flops == 0 else device_time(
            flops, setting.device_count, setting.accel.unit.peak_tflops, eff)
        energies = [(measured + tdp * eff) * seconds
                    for _, measured, tdp, _ in rates.values()]
        hardware = sum(energies)
        facility, carbon = operational_carbon(hardware, data_center)
    except ModelError as exc:
        raise ModelError(f"[{stage}] {exc}") from exc

    return (pcount, loss, degrees, eff, seconds, energies, hardware, facility, carbon,
            embodied_per_s * seconds)


def _estimate_storage(storage: StorageWorkload, data_center: DataCenterProfile) -> CarbonReport:
    stored, moved = storage_energy(storage)
    hardware = stored + moved
    facility, carbon = operational_carbon(hardware, data_center)
    return CarbonReport(
        phase=Phase.STORAGE,
        duration_seconds=units.days_to_seconds(storage.duration_days),
        hardware_energy_mwh=hardware,
        operational_energy_mwh=facility,
        operational_tco2=carbon,
        embodied_tco2=0.0,
        total_tco2=carbon,
        line_items=(
            LineItem(unit="storage", count=1, energy_mwh=stored),
            LineItem(unit="transfer", count=1, energy_mwh=moved),
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
    energies and carbon are weighted sums, and each part's line items are
    kept, weighted, in phase order; hardware efficiency, test loss and plan
    are the first (training) part's."""
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
        line_items=tuple([LineItem(i.unit, i.count, w * i.energy_mwh, w * i.embodied_tco2)
                          for w, r in parts for i in r.line_items]),
    )


def sweep(
    grid: list[tuple[LlmArchitecture, float]],
    fleet: HardwareFleet,
    data_center: DataCenterProfile,
    anchors: list[tuple[float, float]] | None = None,
    device_memory_gb: float = DEFAULT_DEVICE_MEMORY_GB,
    server_size: int = DEFAULT_SERVER_SIZE,
) -> tuple[list[SweepPoint], list[tuple[str, str]]]:
    """Evaluate a grid of (architecture, token count) design points.

    Every point runs the full optimal path (no overrides): its own plan,
    optimal efficiency and training carbon. A fault of the shared fleet,
    device sizing or anchor table raises its ``ModelError`` once, the one
    ``estimate()`` raises for a valid point. Failing points are returned as
    (name, reason) alongside the successes, never silently dropped. Past
    its check for a finite positive token count, a point fails exactly when
    ``estimate()`` on it would, with the same message. Points come back
    sorted by (loss, carbon) and carry Pareto dominance flags.
    """
    if not grid:
        raise ModelError("sweep grid is empty")
    overrides, scaling = Overrides(), ScalingConstants()
    setting = _Setting(fleet, overrides, anchors, device_memory_gb, server_size)

    rows: list[tuple[float, float, str, int, float]] = []
    errors: list[tuple[str, str]] = []
    for arch, tokens in grid:
        try:
            if not (is_number(tokens, "tokens", ModelError) and 0 < tokens < inf):
                raise ModelError(f"sweep points need a finite positive token count, got {tokens!r}")
            pcount, loss, _, eff, seconds, _, hardware, facility, carbon, embodied = _stages(
                arch, tokens, Phase.TRAINING, scaling, overrides, data_center, setting)
            check_report_floats(seconds, hardware, facility, carbon, embodied, carbon + embodied,
                                eff, loss)
            rows.append((loss, carbon, arch.name, pcount.total, tokens))
        except ModelError as exc:
            errors.append((getattr(arch, "name", "<unnamed>"), str(exc)))

    rows.sort(key=itemgetter(0, 1, 2))
    points = [SweepPoint(name=name, param_count=count, tokens=tokens, test_loss=loss,
                         training_tco2=carbon, dominated=dominated)
              for (loss, carbon, name, count, tokens), dominated
              in zip(rows, _dominance_flags(rows))]
    return points, errors


def _dominance_flags(rows) -> list[bool]:
    """Pareto dominance flags of (test_loss, training_tco2, ...) rows sorted
    by loss, then carbon.

    One pass, as in the 2-D maxima method of Kung, Luccio and Preparata
    (J. ACM 1975). A point is dominated by a point of lower loss that has no
    more carbon, or by a point of equal loss that has strictly less. Equal
    (loss, carbon) pairs do not dominate each other.
    """
    flags: list[bool] = []
    best = inf    # lowest carbon among points of strictly lower loss
    lowest = inf  # lowest carbon among points of the current loss
    loss = None
    for row in rows:
        carbon = row[1]
        if row[0] != loss:
            if lowest < best:
                best = lowest
            loss, lowest = row[0], carbon
        flags.append(best <= carbon or lowest < carbon)
    return flags
