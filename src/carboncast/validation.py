"""Embedded validation fixtures and the pass/fail matrix over them.

Each fixture pins published inputs (architecture shapes, fleet sizes,
measured powers, data-center profiles) against golden expected outputs, with
a tolerance reflecting how precisely the published figures are printed.
Sources: Patterson et al. 2021 (T5/GPT-3/GShard/Switch carbon accounting),
Wu et al. MLSys 2022 (Meta XLM operational and embodied data), Lakim et al.
2022 (Noor storage phase), Yu et al. OSDI 2022 (GPT-3 inference batch), and
the architecture papers for each model's shape.
"""

from __future__ import annotations

from . import units
from .catalog import default_hardware
from .efficiency import efficiency_at_count
from .operational import StorageWorkload, device_time, storage_energy
from .params import ParameterCount, ParameterEquation, count_params
from .pipeline import EstimateRequest, Overrides, estimate
from .embodied import fleet_embodied
from .types import (
    ArchKind,
    ConfigError,
    DataCenterProfile,
    ExpertGroup,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LlmArchitecture,
    Phase,
    Record,
    shown,
)


class ValidationRow(Record):
    """One row of the validation matrix: a prediction against its published figure."""

    group: str
    name: str
    predicted: float
    expected: float
    tolerance: float  # absolute, in the row's unit
    unit: str

    @property
    def delta(self) -> float:
        return self.predicted - self.expected

    @property
    def passed(self) -> bool:
        return abs(self.delta) <= self.tolerance


# --------------------------------------------------------------------------
# Parameter-model fixtures. Expected counts in billions; tolerance 0.05 B
# (print rounding) except PR-MoE, whose published expert split is unstated
# and which is held to 3%.
# --------------------------------------------------------------------------

def _dense(name, kind, h, l, v, heads=None, dim=None, ff=None):
    return LlmArchitecture(name=name, kind=kind, hidden_size=h, layer_count=l,
                           vocab_size=v, head_count=heads, head_dim=dim, ff_size=ff)


PARAMETER_FIXTURES: list[tuple[LlmArchitecture, ParameterEquation | None, float, float]] = [
    # (arch, forced MoE route or None, expected billions, tolerance in B)
    (_dense("T5", ArchKind.DENSE_ENCDEC, 1024, 24, 32000, 128, 128, 65536), None, 11.3, 0.05),
    (_dense("GPT3", ArchKind.DENSE_GPT, 12288, 96, 51200), None, 174.58, 0.05),
    (_dense("XLM", ArchKind.DENSE_GPT, 1024, 24, 250000), None, 0.557, 0.05),
    (_dense("PaLM", ArchKind.DENSE_DECONLY, 18432, 118, 256000, 48, 256, 73728), None, 539.24, 0.05),
    (_dense("Gopher", ArchKind.DENSE_GPT, 16384, 80, 51200), None, 258.54, 0.05),
    (_dense("Chinchilla", ArchKind.DENSE_GPT, 8192, 80, 51200), None, 64.84, 0.05),
    (_dense("LaMDA", ArchKind.DENSE_DECONLY, 8192, 64, 51200, 128, 128, 65536), None, 137.86, 0.05),
    # Jurassic-1's published table lists V=256K, but its own predicted figure
    # (and the -1.68% delta against the actual 178 B) only closes with the
    # 51.2K vocabulary; pinned accordingly.
    (_dense("Jurassic-1", ArchKind.DENSE_GPT, 13824, 76, 51200), None, 175.0, 0.05),
    (_dense("MT-NLG", ArchKind.DENSE_GPT, 20480, 105, 51200), None, 529.53, 0.05),
    (_dense("Bloom", ArchKind.DENSE_GPT, 14336, 70, 51200), None, 173.37, 0.05),
    (_dense("GLM", ArchKind.DENSE_GPT, 12288, 70, 51200), None, 127.46, 0.05),
    (LlmArchitecture(
        name="GShard", kind=ArchKind.MOE, hidden_size=1024, layer_count=36,
        head_count=16, head_dim=128, ff_size=8192, moe_fraction=0.5,
        expert_groups=(ExpertGroup(1.0, 2048),),
    ), None, 618.47, 0.05),
    # Switch is T5-derived: each counted layer is an encoder-decoder pair
    # with two expert FF blocks, hence ff_stacks=2.
    (LlmArchitecture(
        name="Switch", kind=ArchKind.MOE, hidden_size=2048, layer_count=15,
        head_count=64, head_dim=32, ff_size=6144, moe_fraction=1.0,
        expert_groups=(ExpertGroup(1.0, 2048),), ff_stacks=2,
    ), None, 1546.19, 0.05),
    # GLaM's published sizing used the standard route even though its
    # head_count*head_dim is 2h; force it.
    (LlmArchitecture(
        name="GLaM", kind=ArchKind.MOE, hidden_size=8192, layer_count=64,
        vocab_size=256000, head_count=128, head_dim=128, ff_size=32768,
        moe_fraction=0.5, expert_groups=(ExpertGroup(1.0, 64),),
    ), ParameterEquation.MOE_STANDARD, 1133.87, 0.05),
    (LlmArchitecture(
        name="FB-MoE", kind=ArchKind.MOE, hidden_size=4096, layer_count=32,
        head_count=32, head_dim=128, ff_size=16384, moe_fraction=0.5,
        expert_groups=(ExpertGroup(1.0, 512),),
    ), None, 1103.81, 0.05),
    # PR-MoE mixes 64- and 128-expert layers; the published "64/128" row does
    # not state the split. A 75/25 split reproduces the published 31.8 B
    # within the 3% band.
    (LlmArchitecture(
        name="PR-MoE", kind=ArchKind.MOE, hidden_size=2048, layer_count=24,
        head_count=16, head_dim=128, ff_size=8192, moe_fraction=0.5,
        expert_groups=(ExpertGroup(0.75, 64), ExpertGroup(0.25, 128)),
    ), ParameterEquation.MOE_GENERAL, 31.8, 31.8 * 0.03),
]


# --------------------------------------------------------------------------
# Training-phase operational fixtures (published footprint reports).
# "1K" TPUv3 fleets are pods of 1024 chips; GPT-3 ran on 10,000 V100s. Each
# device is the packaged catalog's unit of that name.
# measured_zettaflops records the published total; rows whose published
# carbon only closes through the 6*P*D path leave the override unset there.
# --------------------------------------------------------------------------

class TrainingFixture(Record):
    """The published inputs and footprint of one training run."""

    name: str
    param_count_b: float            # full model size, billions
    base_param_count_b: float | None
    tokens: float
    device_name: str
    avg_system_power_watts: float
    device_count: int
    efficiency: float
    pue: float
    carbon_intensity: float         # kg/kWh
    measured_zettaflops: float      # published total FLOPs
    use_measured_flops: bool        # feed it to the pipeline, or fall back to 6PD
    expected_tco2: float
    tco2_rel_tol: float
    expected_days: float
    days_rel_tol: float


TRAINING_FIXTURES: list[TrainingFixture] = [
    TrainingFixture("T5", 11, None, 500e9, "TPUv3", 310, 512, 0.37,
                    1.12, 0.545, 40.5, True, 45.66, 0.03, 20.0, 0.03),
    TrainingFixture("GPT3", 175, None, 300e9, "V100", 330, 10000, 0.197,
                    1.10, 0.429, 314, True, 553.87, 0.01, 14.8, 0.02),
    TrainingFixture("GShard", 619, 2.3, 1e12, "TPUv3", 288, 1024, 0.39,
                    1.09, 0.177, 13.3, False, 4.46, 0.03, 3.1, 0.02),
    TrainingFixture("Switch", 1500, 7.41, 2e12, "TPUv3", 245, 1024, 0.28,
                    1.10, 0.33, 82.2, False, 63.9, 0.03, 27.0, 0.02),
    TrainingFixture("XLM", 0.55, None, 7e12, "V100", 342, 512, 0.212,
                    1.10, 0.413, 23.9, False, 37.6, 0.03, 20.4, 0.02),
]


def _catalog_unit(name: str) -> HardwareUnit:
    """The packaged hardware catalog's unit called ``name``."""
    return next(u for u in default_hardware() if u.name == name)


def training_request(fx: TrainingFixture) -> EstimateRequest:
    """Build the pipeline request reproducing one published training run."""
    accel = _catalog_unit(fx.device_name)
    is_moe = fx.base_param_count_b is not None
    arch = LlmArchitecture(
        name=fx.name, kind=ArchKind.MOE if is_moe else ArchKind.DENSE_GPT,
        explicit_param_count=int(fx.param_count_b * 1e9),
        base_model_param_count=(int(fx.base_param_count_b * 1e9) if is_moe else None),
    )
    return EstimateRequest(
        arch=arch, tokens=fx.tokens,
        fleet=HardwareFleet.of((accel, fx.device_count)),
        data_center=DataCenterProfile(name=f"{fx.name}-dc", pue=fx.pue,
                                      carbon_intensity=fx.carbon_intensity),
        phase=Phase.TRAINING,
        overrides=Overrides(
            measured_flops=fx.measured_zettaflops * units.ZETTA if fx.use_measured_flops else None,
            efficiency=fx.efficiency,
            system_power_watts=fx.avg_system_power_watts,
        ),
    )


# --------------------------------------------------------------------------
# Embodied fixture: Meta's XLM training cluster, 64 8-GPU servers, 20.4-day
# run, 5-year lifetimes. Per-unit kg are the published teardown figures
# (the SSD/DRAM values do not equal capacity*CPA from the fab tables, so
# they ride the per-unit override).
# --------------------------------------------------------------------------

XLM_EMBODIED_FLEET = HardwareFleet.of(
    (HardwareUnit(name="GPU", role=HardwareRole.OTHER, embodied_kg_override=9.78), 512),
    (HardwareUnit(name="CPU", role=HardwareRole.CPU, embodied_kg_override=1.47), 64),
    (HardwareUnit(name="SSD", role=HardwareRole.SSD, embodied_kg_override=576.0), 64),
    (HardwareUnit(name="DRAM", role=HardwareRole.DRAM, embodied_kg_override=102.4), 64),
)
XLM_TRAINING_DAYS = 20.4
XLM_EMBODIED_EXPECTED = {
    "total": (0.64, 0.01),
    "GPU": (0.056, 0.002),
    "CPU": (0.0018, 0.002),
    "SSD": (0.412, 0.005),
    "DRAM": (0.073, 0.002),
    "others": (0.096, 0.002),
}

# Noor's storage phase: six months (180 days), 32.7 TB held, 277.4 TB moved.
NOOR_STORAGE = StorageWorkload(stored_tb=32.7, transferred_tb=277.4, duration_days=180.0)
NOOR_EXPECTED_STORAGE_MWH = (1.596, 0.005)   # (value, relative tolerance)
NOOR_EXPECTED_TRANSFER_MWH = (1.77, 0.005)

# GPT-3 inference batch: 16 A100s, batch 32 x 128 tokens, measured 3.0 s,
# run at the published efficiency.
INFERENCE_FIXTURE = dict(
    param_count=175e9, batch_tokens=32 * 128, device_name="A100", device_count=16,
    efficiency=0.0926,
    expected_latency_s=3.10, latency_tol_s=0.05,
    actual_latency_s=3.0, max_carbon_delta=0.035,
)

# Off-optimal efficiency calibration point: the 175 B model's 1.5K-device
# optimum of 47% degrades to 19.7% on 10K devices.
EFFICIENCY_FIXTURE = dict(optimal_devices=1500, optimal_eff=0.47,
                          actual_devices=10000, expected=0.197, tol=0.001)


# --------------------------------------------------------------------------
# The matrix.
# --------------------------------------------------------------------------

def _param_rows() -> list[ValidationRow]:
    rows = []
    for arch, forced, expected_b, tol_b in PARAMETER_FIXTURES:
        got: ParameterCount = count_params(arch, force_moe_equation=forced)
        rows.append(ValidationRow("parameters", arch.name, round(got.billions, 4),
                                  expected_b, tol_b, "B params"))
    return rows


def _training_rows() -> list[ValidationRow]:
    rows = []
    for fx in TRAINING_FIXTURES:
        report = estimate(training_request(fx))
        rows.append(ValidationRow(
            "training", fx.name, round(report.operational_tco2, 3),
            fx.expected_tco2, fx.expected_tco2 * fx.tco2_rel_tol, "tCO2eq"))
    return rows


def _days_rows() -> list[ValidationRow]:
    rows = []
    for fx in TRAINING_FIXTURES:
        seconds = device_time(fx.measured_zettaflops * units.ZETTA, fx.device_count,
                              _catalog_unit(fx.device_name).peak_tflops, fx.efficiency)
        rows.append(ValidationRow(
            "days", fx.name, round(units.seconds_to_days(seconds), 3),
            fx.expected_days, fx.expected_days * fx.days_rel_tol, "days"))
    return rows


def _embodied_rows() -> list[ValidationRow]:
    per_entry, others, total = fleet_embodied(XLM_EMBODIED_FLEET,
                                              units.days_to_seconds(XLM_TRAINING_DAYS))
    by_unit = {e.unit.name: tco2 for e, tco2 in zip(XLM_EMBODIED_FLEET.entries, per_entry)}
    by_unit["total"] = total
    by_unit["others"] = others
    rows = []
    for key, (expected, tol) in XLM_EMBODIED_EXPECTED.items():
        rows.append(ValidationRow("embodied", f"XLM {key}", round(by_unit[key], 4),
                                  expected, tol, "tCO2eq"))
    return rows


def _storage_rows() -> list[ValidationRow]:
    stored, moved = storage_energy(NOOR_STORAGE)
    sto, sto_rel = NOOR_EXPECTED_STORAGE_MWH
    tra, tra_rel = NOOR_EXPECTED_TRANSFER_MWH
    return [
        ValidationRow("storage", "Noor stored", round(stored, 4), sto, sto * sto_rel, "MWh"),
        ValidationRow("storage", "Noor transfer", round(moved, 4), tra, tra * tra_rel, "MWh"),
    ]


def inference_request() -> EstimateRequest:
    """Build the pipeline request for the published inference batch.

    The rows read only the batch's duration, so its data center is a
    placeholder.
    """
    fx = INFERENCE_FIXTURE
    return EstimateRequest(
        arch=LlmArchitecture(name="GPT3", kind=ArchKind.DENSE_GPT,
                             explicit_param_count=int(fx["param_count"])),
        tokens=fx["batch_tokens"],
        fleet=HardwareFleet.of((_catalog_unit(fx["device_name"]), fx["device_count"])),
        data_center=DataCenterProfile(name="GPT3-inference-dc", pue=1.0, carbon_intensity=0.0),
        phase=Phase.INFERENCE,
        overrides=Overrides(efficiency=fx["efficiency"]),
    )


def _inference_rows() -> list[ValidationRow]:
    fx = INFERENCE_FIXTURE
    latency = estimate(inference_request()).duration_seconds
    carbon_delta = (latency - fx["actual_latency_s"]) / fx["actual_latency_s"]
    return [
        ValidationRow("inference", "GPT3 batch latency", round(latency, 4),
                      fx["expected_latency_s"], fx["latency_tol_s"], "s"),
        ValidationRow("inference", "GPT3 carbon delta", round(carbon_delta, 4),
                      0.0, fx["max_carbon_delta"], "fraction"),
    ]


def _efficiency_rows() -> list[ValidationRow]:
    fx = EFFICIENCY_FIXTURE
    eff = efficiency_at_count(fx["actual_devices"], fx["optimal_devices"], fx["optimal_eff"])
    return [ValidationRow("efficiency", "175B at 10K devices",
                          round(eff, 4), fx["expected"], fx["tol"], "fraction")]


GROUPS = {
    "parameters": _param_rows,
    "training": _training_rows,
    "days": _days_rows,
    "embodied": _embodied_rows,
    "storage": _storage_rows,
    "inference": _inference_rows,
    "efficiency": _efficiency_rows,
}


def run_validation(only: str | None = None) -> list[ValidationRow]:
    """Evaluate every embedded fixture (or one group) and return the matrix.
    A group that is not one of ``GROUPS`` raises ``ConfigError``."""
    if only is not None and not (isinstance(only, str) and only in GROUPS):
        raise ConfigError(f"unknown validation group {shown(only)}; "
                         f"choose from {', '.join(sorted(GROUPS))}")
    rows: list[ValidationRow] = []
    for group, fn in GROUPS.items():
        if only is None or group == only:
            rows.extend(fn())
    return rows
