"""Seeded library inputs for the bit-for-bit tests, and their outputs as text.

``inputs(seed, n)`` draws ``n`` estimate requests and lifecycle plans from a
``random.Random(seed)``: all four architecture kinds (expert groups with
fractional layer shares among them), explicit counts, overrides, the packaged
anchor table and four of its own, fleets of 1 to 12,000 accelerators with
host units, lifecycles with and without storage, and about one input in eight
broken so that it fails in a stage or in its report. ``outputs`` runs them and
writes each report with every float as ``float.hex``, or the error message.

Nothing here comes from ``bench/``, so a change to the benchmark's generator
cannot move a pin that is taken over these inputs.
"""

import random

from carboncast.operational import StorageWorkload
from carboncast.pipeline import (
    EstimateRequest,
    LifecyclePlan,
    Overrides,
    estimate,
    estimate_lifecycle,
    sweep,
)
from carboncast.types import (
    ArchKind,
    DataCenterProfile,
    ExpertGroup,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LlmArchitecture,
    ModelError,
    Phase,
)

ACCELERATORS = (
    HardwareUnit(name="A100", role=HardwareRole.ACCELERATOR, peak_tflops=312, tdp_watts=400,
                 die_area_mm2=826, cpa=1.6, cpa_basis="area"),
    HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR, peak_tflops=125, tdp_watts=300,
                 avg_system_power_watts=330, die_area_mm2=815, cpa=1.2, cpa_basis="area"),
    HardwareUnit(name="TPU", role=HardwareRole.ACCELERATOR, peak_tflops=275, tdp_watts=192,
                 embodied_kg_override=1200.0, lifetime_years=4.5),
)
HOSTS = (
    HardwareUnit(name="CPU", role=HardwareRole.CPU, tdp_watts=205, die_area_mm2=147, cpa=1.0,
                 cpa_basis="area"),
    HardwareUnit(name="DRAM", role=HardwareRole.DRAM, capacity_gb=256, cpa=0.024,
                 cpa_basis="gb", lifetime_years=4),
    HardwareUnit(name="SSD", role=HardwareRole.SSD, capacity_gb=32768, cpa=0.4, cpa_basis="gb"),
)
# An accelerator whose throughput underflows to zero at a low efficiency.
SLOW = HardwareUnit(name="slow", role=HardwareRole.ACCELERATOR, peak_tflops=1e-310,
                    tdp_watts=100, embodied_kg_override=10.0)

ANCHOR_TABLES = (
    None,
    [(2e9, 0.33), (6e10, 0.45), (5e11, 0.41)],
    [(1.3e9, 0.31), (2e10, 0.44), (1.75e11, 0.47), (5.4e11, 0.42)],
    [(1e9, 0.29), (8e9, 0.38), (7e10, 0.46), (3e11, 0.44), (1.2e12, 0.37)],
    [(3e9, 0.35), (4e11, 0.43)],
)


def architecture(rng: random.Random, name: str) -> LlmArchitecture:
    """An architecture of a random kind and a size of about 0.1 B to 1 T."""
    kind = rng.choice(list(ArchKind))
    layers = rng.choice((12, 24, 40, 64, 96))
    h = 64 * rng.randint(8, 160)
    if rng.random() < 0.1:
        base = int(10 ** rng.uniform(8, 10)) if kind is ArchKind.MOE else None
        return LlmArchitecture(name=name, kind=kind, base_model_param_count=base,
                               explicit_param_count=int(10 ** rng.uniform(8, 12)))
    if kind is ArchKind.MOE:
        share = rng.choice((1.0, 0.3, 0.25, 0.6))
        groups = ((ExpertGroup(1.0, rng.choice((8, 16, 64))),) if share == 1.0 else
                  (ExpertGroup(share, 16), ExpertGroup(1.0 - share, 32)))
        # Conventional dimensions take the standard sizing route, others the
        # general one. The FLOP model needs a dense base or a vocabulary.
        ff_size = 4 * h if rng.random() < 0.5 else 3 * h
        vocab, base = (32000, None) if rng.random() < 0.5 else (0, 12 * layers * h * h)
        return LlmArchitecture(
            name=name, kind=kind, hidden_size=h, layer_count=layers, vocab_size=vocab,
            moe_fraction=rng.choice((0.5, 1.0, 0.35)), expert_groups=groups,
            head_count=h // 64, head_dim=64, ff_size=ff_size, base_model_param_count=base)
    fields = dict(hidden_size=h, layer_count=layers, vocab_size=rng.choice((32000, 50257)))
    if kind is not ArchKind.DENSE_GPT:
        fields.update(head_count=h // 64, head_dim=64, ff_size=4 * h)
    return LlmArchitecture(name=name, kind=kind, **fields)


def request(rng: random.Random, name: str, phase: Phase, broken: bool) -> EstimateRequest:
    arch = architecture(rng, name)
    tokens = 10 ** rng.uniform(10, 12.5) if phase is Phase.TRAINING else 10 ** rng.uniform(6, 11)
    accel = rng.choice(ACCELERATORS)
    devices = rng.choice((1, 8, 64, 512, 2048, 12000))
    overrides = Overrides()
    if rng.random() < 0.3:
        overrides = Overrides(
            measured_flops=10 ** rng.uniform(20, 24) if rng.random() < 0.5 else None,
            efficiency=rng.uniform(0.1, 0.6) if rng.random() < 0.5 else None,
            device_count=rng.choice((16, 256, 4096)) if rng.random() < 0.5 else None,
            system_power_watts=rng.uniform(250, 700) if rng.random() < 0.5 else None)
    if broken:
        fault = rng.randrange(3)
        if fault == 0:    # a FLOP budget that overflows: the duration is not finite
            tokens = 1e300
            overrides = Overrides()
        elif fault == 1:  # a throughput that underflows to zero
            accel = SLOW
            overrides = Overrides(efficiency=1e-30)
        else:             # an expert model with neither a dense base nor a vocabulary
            arch = LlmArchitecture(name=name, kind=ArchKind.MOE, hidden_size=1024,
                                   layer_count=24, moe_fraction=0.5,
                                   expert_groups=(ExpertGroup(1.0, 64),))
            overrides = Overrides()
    pairs = [(accel, devices), (HOSTS[0], max(1, devices // 8))]
    pairs += [(unit, max(1, devices // rng.choice((8, 64)))) for unit in HOSTS[1:]
              if rng.random() < 0.4]
    data_center = DataCenterProfile(name="dc", pue=rng.uniform(1.05, 1.6),
                                    carbon_intensity=rng.uniform(0.01, 0.8))
    return EstimateRequest(arch=arch, tokens=tokens, fleet=HardwareFleet.of(*pairs),
                           data_center=data_center, phase=phase, overrides=overrides,
                           device_memory_gb=rng.choice((16.0, 32.0, 80.0)),
                           server_size=rng.choice((4, 8, 16)),
                           anchors=rng.choice(ANCHOR_TABLES))


def inputs(seed, n: int) -> list:
    """``n`` seeded ``EstimateRequest`` and ``LifecyclePlan`` inputs."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        broken = rng.random() < 0.125
        if rng.random() < 0.25:
            storage = None
            if rng.random() < 0.5:
                storage = StorageWorkload(stored_tb=rng.uniform(0.1, 50),
                                          transferred_tb=rng.uniform(0, 200),
                                          duration_days=rng.uniform(0, 365))
            shares = (rng.uniform(0, 2), rng.uniform(0, 1))
            if broken and rng.random() < 0.5:
                broken = False
                if rng.random() < 0.5:  # a storage part that overflows
                    storage = StorageWorkload(stored_tb=1e300, transferred_tb=1.0,
                                              duration_days=10.0, storage_w_per_tb=1e10)
                else:                   # weighted sums that overflow
                    shares = (1e308, 1e308)
            out.append(LifecyclePlan(request(rng, f"m{i}", Phase.TRAINING, broken), *shares,
                                     storage=storage))
        else:
            phase = Phase.INFERENCE if rng.random() < 0.25 else Phase.TRAINING
            out.append(request(rng, f"m{i}", phase, broken))
    return out


def report_text(report) -> str:
    """A report as one line, with every float written by ``float.hex``."""
    def num(value):
        return "None" if value is None else value.hex()
    plan = report.parallelism
    fields = [report.phase.value] + [num(getattr(report, f)) for f in (
        "duration_seconds", "hardware_energy_mwh", "operational_energy_mwh", "operational_tco2",
        "embodied_tco2", "total_tco2", "hardware_efficiency", "test_loss")]
    fields.append(f"{plan.pipeline}/{plan.tensor}/{plan.data}/{plan.expert}")
    fields += [f"{i.unit}:{i.count}:{i.energy_mwh.hex()}:{i.embodied_tco2.hex()}"
               for i in report.line_items]
    return " ".join(fields)


def outputs(items: list) -> list[str]:
    """One line per input: its report as :func:`report_text`, or its error."""
    lines = []
    for item in items:
        try:
            report = (estimate_lifecycle(item) if isinstance(item, LifecyclePlan)
                      else estimate(item))
            lines.append(report_text(report))
        except ModelError as exc:
            lines.append(f"error: {exc}")
    return lines


def sweep_inputs(seed, n: int) -> tuple:
    """The ``(grid, fleet, data_center)`` of a seeded sweep of ``n`` points
    on one fleet, dense and expert, some broken."""
    rng = random.Random(seed)
    grid = []
    for i in range(n):
        arch = architecture(rng, f"p{i}")
        tokens = 10 ** rng.uniform(10, 12.5) if rng.random() > 0.05 else 0.0
        grid.append((arch, tokens))
    fleet = HardwareFleet.of((ACCELERATORS[0], 1024), (HOSTS[0], 128), (HOSTS[1], 128))
    return grid, fleet, DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.4)


def sweep_text(seed, n: int, anchors) -> list[str]:
    """The sweep of :func:`sweep_inputs` as one line per point and per error
    row."""
    points, errors = sweep(*sweep_inputs(seed, n), anchors=anchors)
    return ([f"{p.name} {p.param_count} {p.test_loss.hex()} {p.training_tco2.hex()} {p.dominated}"
             for p in points] + [f"{name}: {reason}" for name, reason in errors])
