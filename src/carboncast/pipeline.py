"""End-to-end orchestration: architecture in, carbon report out.

The flow mirrors how the component models feed each other: parameter count,
then test loss, then the FLOP budget, then the parallelism plan and hardware
efficiency, then operational energy and carbon, then embodied carbon, and
finally their sum. Any stage can be short-circuited by a measured override
(FLOPs, efficiency, device count, per-device power); supplying the value the
model would have computed changes nothing.

A request is an ``EstimateRequest`` record (:class:`~carboncast.types.Record`),
with its ``Overrides``; a lifecycle is a ``LifecyclePlan``. Each checks its
own fields when it is built.

Everything of a request but its architecture, token count and phase is
made once, up front, in a ``_Setting``: the fleet priced per second of
execution, the data center, the overrides, the scaling constants, the
fitted anchor curve and the checked device sizing. It raises a fault of its
own once, as ``[efficiency-model]``. Pricing the fleet reads each unit's
kg and lifetime seconds, which the unit worked out when it was built, and
converts its watts to MWh inline.

The model stages run in one chain, ``_stages(arch, tokens, phase,
setting)``, on plain values. Three public stage functions run by their
module-level names: ``count_params``, ``optimal_efficiency`` and
``operational_carbon``. The benchmark's layer tracer (``bench/spans.py``)
times a stage by rebinding such a name, so these stay visible to it; the two
that take a float admit a checked one in one comparison chain. The rest runs
on the private cores that the public functions wrap: ``scaling._loss``
(``test_loss``), ``flops._training`` and ``flops._inference`` (the FLOP
functions), ``efficiency._plan_degrees`` (``plan_parallelism``),
``efficiency._at_count`` (``efficiency_at_count``) and
``operational._seconds`` (``device_time``). Their inputs are values the
chain or the setting has checked, so no core checks them again. The chain
names every fault it meets by its stage, then checks the values a report
would, with the same messages. ``estimate()`` and ``estimate_lifecycle()``
build their report in one pass from the stage values (``_report``): the
lifecycle weights them and adds its storage part, the one place storage is
priced. ``sweep()`` builds no report; it flags the Pareto-dominated points
and returns each as a ``SweepPoint`` named tuple. Both build their named
tuples (a report's line items, the sweep's points) with
``tuple.__new__``, in C, not through the named tuple's Python ``__new__``.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter
from typing import NamedTuple

from . import units
from .efficiency import (
    DEFAULT_DEVICE_MEMORY_GB,
    DEFAULT_SERVER_SIZE,
    _at_count,
    _check_param_count,
    _check_sizing,
    _plan_degrees,
    fit_anchors,
    optimal_efficiency,
)
from .embodied import fleet_embodied
from .flops import _inference as _inference_flops
from .flops import _training as _training_flops
from .operational import StorageWorkload, _seconds, operational_carbon, storage_energy, unit_power
from .params import count_dense_gpt, count_params
from .scaling import _loss
from .types import (
    ArchKind,
    CarbonReport,
    DataCenterProfile,
    FleetEntry,
    HardwareFleet,
    LineItem,
    LlmArchitecture,
    ModelError,
    ParallelismPlan,
    Phase,
    Record,
    ScalingConstants,
    check_count,
    check_non_negative,
    check_report_floats,
    check_type,
    is_number,
    is_shape_count,
    shown,
)


class Overrides(Record):
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
            raise ModelError(f"efficiency must lie in (0, 1], got {shown(eff)}")
        if self.device_count is not None:
            check_count(self.device_count, "device_count", ModelError)


class EstimateRequest(Record):
    """Everything needed to project one phase of one model."""

    arch: LlmArchitecture
    tokens: float
    fleet: HardwareFleet
    data_center: DataCenterProfile
    phase: Phase = Phase.TRAINING
    scaling: ScalingConstants = ScalingConstants()
    overrides: Overrides = Overrides()
    device_memory_gb: float = DEFAULT_DEVICE_MEMORY_GB
    server_size: int = DEFAULT_SERVER_SIZE
    anchors: list[tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        check_type(self.arch, "arch", LlmArchitecture, ModelError)
        check_non_negative(self.tokens, "tokens", ModelError)
        check_type(self.fleet, "fleet", HardwareFleet, ModelError)
        check_type(self.data_center, "data_center", DataCenterProfile, ModelError)
        if self.phase not in (Phase.TRAINING, Phase.INFERENCE):
            raise ModelError("phase must be training or inference, got " + (
                self.phase.value if isinstance(self.phase, Phase) else shown(self.phase)))
        check_type(self.scaling, "scaling", ScalingConstants, ModelError)
        check_type(self.overrides, "overrides", Overrides, ModelError)


class LifecyclePlan(Record):
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
        check_type(self.training, "training", EstimateRequest, ModelError)
        for fname in ("inference_share", "experimentation_share"):
            check_non_negative(getattr(self, fname), fname, ModelError)
        if self.storage is not None:
            check_type(self.storage, "storage", StorageWorkload, ModelError)
        if self.training.phase is not Phase.TRAINING:
            raise ModelError(f"training request has phase {self.training.phase.value}, "
                             "expected training")


class SweepPoint(NamedTuple):
    """One evaluated design point of a :func:`sweep`: a named tuple, so it
    unpacks and compares equal to the tuple of its fields."""

    name: str
    param_count: int
    tokens: float
    test_loss: float
    training_tco2: float
    dominated: bool = False


def _moe_flop_param_count(arch) -> float:
    """Parameter count that drives an MoE model's FLOPs and efficiency: its
    dense base model's. A dense model's is its own count."""
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
    return _report(req, req.phase, 1.0)


def estimate_lifecycle(plan: LifecyclePlan) -> CarbonReport:
    """A lifecycle report: the training values and line items, weighted,
    plus the storage part.

    Inference and experimentation are modeled as extra wall-clock on the
    training fleet, so the training values count ``1 + inference_share +
    experimentation_share`` times; storage counts once. With both shares at
    zero and no storage the numbers are the training estimate's. A training
    fault is the one ``estimate()`` raises.
    """
    activity = 1.0 + plan.inference_share + plan.experimentation_share
    return _report(plan.training, Phase.LIFECYCLE, activity, plan.storage)


def _report(req: EstimateRequest, phase: Phase, weight: float,
            storage: StorageWorkload | None = None) -> CarbonReport:
    """The report of ``phase``: the stage values and fleet line items of
    ``req`` count ``weight`` times, and a lifecycle's ``storage`` part once,
    with a storage and a transfer item. The stage values are checked in
    ``_stages``; a lifecycle then checks the storage part as its own report
    would, then the sums."""
    setting = _Setting(req.fleet, req.data_center, req.anchors, req.device_memory_gb,
                       req.server_size, req.overrides, req.scaling)
    _, loss, degrees, eff, seconds, hardware, facility, carbon, embodied = _stages(
        req.arch, req.tokens, req.phase, setting)
    # Each entry's energy as _stages adds it into ``hardware``. tuple.__new__
    # builds each item in C, as sweep() builds its points.
    items = [tuple.__new__(LineItem, (unit, count, weight * ((measured + tdp * eff) * seconds),
                                      weight * (unit_embodied * seconds)))
             for unit, count, measured, tdp, unit_embodied in setting.rates]
    duration, hardware, facility, carbon, embodied = (
        weight * seconds, weight * hardware, weight * facility, weight * carbon, weight * embodied)
    if storage is not None:
        stored, moved = storage_energy(storage)
        part_seconds, part_hardware = units.days_to_seconds(storage.duration_days), stored + moved
        part_facility, part_carbon = operational_carbon(part_hardware, req.data_center)
        check_report_floats(part_seconds, part_hardware, part_facility, part_carbon, 0.0,
                            part_carbon, 1.0, None)
        duration, hardware = duration + part_seconds, hardware + part_hardware
        facility, carbon = facility + part_facility, carbon + part_carbon
        items += (tuple.__new__(LineItem, ("storage", 1, stored, 0.0)),
                  tuple.__new__(LineItem, ("transfer", 1, moved, 0.0)))
    # By position, in field order: a record given every field that way is
    # filled in without matching keywords to fields.
    return CarbonReport(phase, duration, hardware, facility, carbon, embodied, carbon + embodied,
                        eff, loss, ParallelismPlan(*degrees), tuple(items))


class _Setting:
    """The shared context of a request: all of it but the architecture, the
    token count and the phase. Building it checks the accelerator entry, then
    the sizing, then the anchor table, and raises the first fault as
    ``[efficiency-model]``; then it prices the fleet, its accelerator at the
    overrides' device count and system power when they are given. ``sweep()``
    makes one setting for all its points, a report one per call.

    ``rates`` has one (name, count, measured MWh/s, TDP MWh/s, embodied tCO2/s)
    row per fleet entry, in fleet order, then the ``others`` share's; a report
    has a line item per row. ``embodied_rate`` is the fleet's embodied tCO2/s.
    """

    __slots__ = ("accel", "device_count", "curve", "rates", "embodied_rate", "data_center",
                 "overrides", "scaling", "device_memory_gb", "server_size")

    def __init__(self, fleet: HardwareFleet, data_center: DataCenterProfile,
                 anchors: list[tuple[float, float]] | None, device_memory_gb: float,
                 server_size: int, overrides: Overrides = Overrides(),
                 scaling: ScalingConstants = ScalingConstants()) -> None:
        self.accel = accel = fleet.accelerator
        try:
            if accel is None:
                raise ModelError("fleet has no accelerator entry")
            _check_sizing(device_memory_gb, server_size)
            self.curve = None if overrides.efficiency is not None else fit_anchors(anchors)
        except ModelError as exc:
            raise ModelError(f"[efficiency-model] {exc}") from exc
        self.device_count = overrides.device_count or accel.count
        if accel.count != self.device_count:
            resized = FleetEntry(accel.unit, self.device_count)
            fleet = HardwareFleet(tuple(resized if e is accel else e for e in fleet.entries))
            accel = resized
        per_entry, others, self.embodied_rate = fleet_embodied(fleet, 1.0)
        # A unit without a power figure is a row at zero rates, for embodied carbon only: a
        # measured accelerator system power already covers its draw (host CPU, DRAM, network).
        self.rates = rates = []
        for e, tco2 in zip(fleet.entries, per_entry):
            power = unit_power(e.unit, overrides.system_power_watts if e is accel else None)
            watts, measured = power or (0.0, False)
            rate = watts * e.count / units.JOULES_PER_MWH  # joules_to_mwh, bit for bit
            rates.append((e.unit.name, e.count, *((rate, 0.0) if measured else (0.0, rate)), tco2))
        rates.append(("others", 0, 0.0, 0.0, others))
        self.data_center, self.overrides, self.scaling = data_center, overrides, scaling
        self.device_memory_gb, self.server_size = device_memory_gb, server_size


def _stages(arch: LlmArchitecture, tokens: float, phase: Phase, setting: _Setting) -> tuple:
    """The model stages of one training or inference estimate on ``setting``.

    Returns the stage values: the parameter count (an int), the test loss
    (``None`` for inference or zero tokens), the (pipeline, tensor, data,
    expert) degrees, the hardware efficiency, the execution seconds, the
    fleet's hardware and facility MWh, the operational and the embodied tCO2. A
    stage's fault is named by its stage; a value a report would refuse fails
    last, with the report's message.

    The public ``count_params``, ``optimal_efficiency`` and
    ``operational_carbon`` run by their module-level names, so the layer
    tracer, which rebinds those names, times them. The rest runs on the
    private cores ``_loss``, ``_training``/``_inference``, ``_plan_degrees``,
    ``_at_count`` and ``_seconds``, on values already checked. A sweep point
    of a dense model runs 13 Python frames: this one, those eight functions,
    its count formula's (12 with an explicit count), ``_optimum``,
    ``AnchorCurve.at`` and the report check.
    """
    # A model error is re-raised with the stage it was met in named.
    stage = "parameter-model"
    try:
        total = count_params(arch).total
        is_moe = arch.kind is ArchKind.MOE

        loss = None
        if phase is Phase.TRAINING and tokens > 0:
            stage = "scaling-law"
            # The one check of test_loss's that a count can fail here.
            if not total > 0:
                raise ModelError(f"param_count must be positive, got {total!r}")
            loss = _loss(total, tokens, setting.scaling, is_moe)

        stage = "flop-model"
        # An MoE's base count is worked out where a stage first needs it: a
        # fault in it is that stage's.
        p_flops = None if is_moe else float(total)
        flops = setting.overrides.measured_flops
        if flops is None:
            if p_flops is None:
                p_flops = _moe_flop_param_count(arch)
            flops = (_training_flops(p_flops, tokens) if phase is Phase.TRAINING
                     else _inference_flops(p_flops, tokens))

        stage = "efficiency-model"
        # plan_parallelism's own check, which an int count inside the float
        # range fails only at 0 (MoE rounding); the setting checked the sizing.
        if total < 1:
            _check_param_count(total)
        degrees = _plan_degrees(total, is_moe, setting.device_memory_gb, setting.server_size)
        eff = setting.overrides.efficiency
        if eff is None:
            if p_flops is None:
                p_flops = _moe_flop_param_count(arch)
            opt = optimal_efficiency(p_flops, is_moe=is_moe, anchors=setting.curve)
            pipeline, tensor, data, _ = degrees
            eff = _at_count(setting.device_count, tensor * pipeline * data, opt)

        stage = "operational-carbon"
        seconds = 0.0 if flops == 0 else _seconds(
            flops, setting.device_count, setting.accel.unit.peak_tflops, eff)
        # Each entry's energy, summed left to right from int 0 as plain_sum adds.
        hardware = 0
        for _, _, measured, tdp, _ in setting.rates:
            hardware += (measured + tdp * eff) * seconds
        # Infinite seconds make a zero-rate row's energy 0 * inf, a NaN. An
        # energy that is not finite is not priced: the report check names it.
        facility, carbon = (operational_carbon(hardware, setting.data_center)
                            if hardware < inf else (hardware, hardware))
    except ModelError as exc:
        raise ModelError(f"[{stage}] {exc}") from exc

    # Outside the handler: a report's messages name no stage.
    embodied = setting.embodied_rate * seconds
    check_report_floats(seconds, hardware, facility, carbon, embodied, carbon + embodied, eff,
                        loss)
    return total, loss, degrees, eff, seconds, hardware, facility, carbon, embodied


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
    (name, reason) alongside the successes, never silently dropped; a point
    that is not an (``LlmArchitecture``, tokens) pair is named ``grid[i]``. Past
    its check for a finite positive token count, a point fails exactly when
    ``estimate()`` on it would, with the same message. Points come back
    sorted by (loss, carbon, name) and carry Pareto dominance flags.
    """
    if not grid:
        raise ModelError("sweep grid is empty")
    setting = _Setting(fleet, data_center, anchors, device_memory_gb, server_size)

    rows: list[tuple[float, float, str, int, float]] = []
    errors: list[tuple[str, str]] = []
    for i, point in enumerate(grid):
        arch = None
        try:
            try:
                arch, tokens = point
            except (TypeError, ValueError):  # not a pair
                raise ModelError("sweep points need an (architecture, tokens) pair, "
                                 f"got {shown(point)}") from None
            # One test for the common valid case; the check admits the rest or names a fault.
            if type(arch) is not LlmArchitecture:
                check_type(arch, "architecture", LlmArchitecture, ModelError)
            if not (type(tokens) is float and 0.0 < tokens < inf):
                if not (is_number(tokens, "tokens", ModelError) and 0 < tokens < inf):
                    raise ModelError("sweep points need a finite positive token count, "
                                     f"got {shown(tokens)}")
            count, loss, _, _, _, _, _, carbon, _ = _stages(
                arch, tokens, Phase.TRAINING, setting)
            rows.append((loss, carbon, arch.name, count, tokens))
        except ModelError as exc:
            errors.append((arch.name if isinstance(arch, LlmArchitecture) else f"grid[{i}]",
                           str(exc)))

    rows.sort(key=itemgetter(0, 1, 2))
    # tuple.__new__ builds each point in C; SweepPoint() would run the named
    # tuple's __new__, a Python function.
    points = [tuple.__new__(SweepPoint, (name, count, tokens, loss, carbon, dominated))
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
