"""Exact reports for hand-built requests, pinned bit for bit.

The other pipeline tests compare against reference functions within a
tolerance, which a rewrite that reorders float arithmetic still passes. Here
every float field and every line item of each report is pinned as
``float.hex``, so a change in the last bit fails. The values were captured
from the pipeline before its per-call pricing was rewritten in one pass,
except the line items of ``ssd-before-cpu-and-a-unit-twice``: they were
captured again when line items became one per fleet entry, since a unit
listed twice used to share one item with the first entry's count.

A sweep is pinned the same way: each point's count, loss, carbon and
dominance flag, and each error row word for word. Those values were captured
while ``sweep()`` still built a full report for every point.
"""

import builtins
import hashlib
import re

import pytest
import seeded
from neumaier_sum import neumaier_sum

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

A100 = HardwareUnit(name="A100", role=HardwareRole.ACCELERATOR, peak_tflops=312, tdp_watts=400,
                    die_area_mm2=826, cpa=1.6, cpa_basis="area")
V100 = HardwareUnit(name="V100", role=HardwareRole.ACCELERATOR, peak_tflops=125, tdp_watts=300,
                    avg_system_power_watts=330, die_area_mm2=815, cpa=1.2, cpa_basis="area")
CPU = HardwareUnit(name="CPU", role=HardwareRole.CPU, tdp_watts=205, die_area_mm2=147, cpa=1.0,
                   cpa_basis="area")
DRAM = HardwareUnit(name="DRAM", role=HardwareRole.DRAM, capacity_gb=256, cpa=0.024,
                    cpa_basis="gb", lifetime_years=4)
SSD = HardwareUnit(name="SSD", role=HardwareRole.SSD, capacity_gb=32768, cpa=0.4, cpa_basis="gb")
DC = DataCenterProfile(name="dc", pue=1.12, carbon_intensity=0.429)

DENSE = LlmArchitecture(name="dense-6.6b", kind=ArchKind.DENSE_GPT, hidden_size=4096,
                        layer_count=32, vocab_size=50257)
DENSE_OPTIMUM = 56  # plan_parallelism(count_params(DENSE).total).device_count
MOE = LlmArchitecture(name="moe-2x", kind=ArchKind.MOE, hidden_size=2048, layer_count=24,
                      vocab_size=32000, moe_fraction=0.5,
                      expert_groups=(ExpertGroup(0.5, 32), ExpertGroup(0.5, 64)))
ANCHORS_4 = [(1.3e9, 0.31), (2e10, 0.44), (1.75e11, 0.47), (5.4e11, 0.42)]


def dense(devices, **kwargs):
    return EstimateRequest(arch=DENSE, tokens=1.3e11,
                           fleet=HardwareFleet.of((A100, devices), (CPU, max(1, devices // 8))),
                           data_center=DC, **kwargs)


CASES = {
    "dense-at-optimum": dense(DENSE_OPTIMUM),
    "dense-below-optimum": dense(DENSE_OPTIMUM // 4),
    "dense-above-optimum": dense(DENSE_OPTIMUM * 3,
                                 overrides=Overrides(system_power_watts=520.0)),
    "moe": EstimateRequest(arch=MOE, tokens=4e11, fleet=HardwareFleet.of((V100, 96), (CPU, 12)),
                           data_center=DC),
    "inference": EstimateRequest(arch=DENSE, tokens=2.5e10, phase=Phase.INFERENCE,
                                 fleet=HardwareFleet.of((A100, 16), (CPU, 2)), data_center=DC),
    "regression-4-anchors": dense(DENSE_OPTIMUM * 2, anchors=ANCHORS_4),
    "ssd-before-cpu-and-a-unit-twice": EstimateRequest(
        arch=DENSE, tokens=1.3e11, data_center=DC,
        fleet=HardwareFleet.of((A100, 64), (SSD, 2), (CPU, 8), (DRAM, 8), (CPU, 3)),
        overrides=Overrides(device_count=48)),
    "lifecycle-with-storage": LifecyclePlan(
        training=dense(DENSE_OPTIMUM), inference_share=0.6, experimentation_share=0.25,
        storage=StorageWorkload(stored_tb=12.5, transferred_tb=80.0, duration_days=200.0)),
}

FLOAT_FIELDS = ("duration_seconds", "hardware_energy_mwh", "operational_energy_mwh",
                "operational_tco2", "embodied_tco2", "total_tco2", "hardware_efficiency",
                "test_loss")


def pinned(report) -> dict:
    """A report as plain data, with every float written by ``float.hex``."""
    plan = report.parallelism
    return {
        "phase": report.phase.value,
        **{f: None if getattr(report, f) is None else getattr(report, f).hex()
           for f in FLOAT_FIELDS},
        "parallelism": (plan.pipeline, plan.tensor, plan.data, plan.expert),
        "line_items": [(i.unit, i.count, i.energy_mwh.hex(), i.embodied_tco2.hex())
                       for i in report.line_items],
    }


GOLDEN = {
    "dense-above-optimum": {
        "phase": "training",
        "duration_seconds": "0x1.553148379f0cep+18",
        "hardware_energy_mwh": "0x1.131788d796661p+3",
        "operational_energy_mwh": "0x1.341a5bd2bced4p+3",
        "operational_tco2": "0x1.085a3322e4a8cp+2",
        "embodied_tco2": "0x1.8051ccb0b6250p-8",
        "total_tco2": "0x1.08ba479610d65p+2",
        "hardware_efficiency": "0x1.21f671529a486p-2",
        "test_loss": "0x1.18bdb77328388p+1",
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 168, "0x1.0f4e5c0f901d0p+3", "0x1.42312507fc3b2p-8"),
            ("CPU", 21, "0x1.e496640324842p-4", "0x1.1eb23d27a5dddp-14"),
            ("others", 0, "0x0.0p+0", "0x1.cd2ef5a0da931p-11"),
        ],
    },
    "dense-at-optimum": {
        "phase": "training",
        "duration_seconds": "0x1.3457f9c66b614p+19",
        "hardware_energy_mwh": "0x1.f70e12c023f4cp+0",
        "operational_energy_mwh": "0x1.19b5f60532db0p+1",
        "operational_tco2": "0x1.e36a6bcd87656p-1",
        "embodied_tco2": "0x1.cf17664dd9a97p-9",
        "total_tco2": "0x1.e5398333d53f1p-1",
        "hardware_efficiency": "0x1.e147ae147ae14p-2",
        "test_loss": "0x1.18bdb77328388p+1",
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 56, "0x1.d8c4ac7ff1ac8p+0", "0x1.843adabcd26d0p-9"),
            ("CPU", 7, "0x1.e496640324841p-4", "0x1.59757489a58c6p-15"),
            ("others", 0, "0x0.0p+0", "0x1.15dad6fb8298fp-11"),
        ],
    },
    "dense-below-optimum": {
        "phase": "training",
        "duration_seconds": "0x1.3457f9c66b614p+23",
        "hardware_energy_mwh": "0x1.ea133012578cap+0",
        "operational_energy_mwh": "0x1.12712528fdd3ep+1",
        "operational_tco2": "0x1.d6f142d6b9b65p-1",
        "embodied_tco2": "0x1.cc5ead0cc40e1p-7",
        "total_tco2": "0x1.de22bd8aecc69p-1",
        "hardware_efficiency": "0x1.e147ae147ae14p-4",
        "test_loss": "0x1.18bdb77328388p+1",
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 14, "0x1.d8c4ac7ff1ac8p+0", "0x1.843adabcd26d0p-7"),
            ("CPU", 1, "0x1.14e839265e025p-4", "0x1.8acf609d4f7bep-14"),
            ("others", 0, "0x0.0p+0", "0x1.1438ce3adc088p-9"),
        ],
    },
    "inference": {
        "phase": "inference",
        "duration_seconds": "0x1.e441f63942e5fp+18",
        "hardware_energy_mwh": "0x1.01fa16be6e562p-3",
        "operational_energy_mwh": "0x1.20ef23b6900e9p-3",
        "operational_tco2": "0x1.efcf9c840795fp-5",
        "embodied_tco2": "0x1.9f98481e7b21fp-11",
        "total_tco2": "0x1.f64dfda481827p-5",
        "hardware_efficiency": "0x1.130463796ac9dp-3",
        "test_loss": None,
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 16, "0x1.e4e3f920c35b9p-4", "0x1.5c6954b695759p-11"),
            ("CPU", 2, "0x1.f10345c1950acp-8", "0x1.3606f26e669eep-17"),
            ("others", 0, "0x0.0p+0", "0x1.f2b6bcf1608f0p-14"),
        ],
    },
    "lifecycle-with-storage": {
        "phase": "lifecycle",
        "duration_seconds": "0x1.197f7c70abcedp+24",
        "hardware_energy_mwh": "0x1.386d6a6ef3e03p+2",
        "operational_energy_mwh": "0x1.5deb2f8681c7fp+2",
        "operational_tco2": "0x1.2c3af0f803d50p+1",
        "embodied_tco2": "0x1.ac5c0b6e69566p-8",
        "total_tco2": "0x1.2d111efdbb09bp+1",
        "hardware_efficiency": "0x1.e147ae147ae14p-2",
        "test_loss": "0x1.18bdb77328388p+1",
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 56, "0x1.b54f85f659260p+1", "0x1.671cd721dc3e7p-8"),
            ("CPU", 7, "0x1.c03e4fb61b609p-3", "0x1.3f8ca565b921ep-14"),
            ("others", 0, "0x0.0p+0", "0x1.010406dbd8cd8p-10"),
            ("storage", 1, "0x1.5b22d0e560419p-1", "0x0.0p+0"),
            ("transfer", 1, "0x1.22fad6cb53501p-1", "0x0.0p+0"),
        ],
    },
    "moe": {
        "phase": "training",
        "duration_seconds": "0x1.48b7b03ecb15fp+20",
        "hardware_energy_mwh": "0x1.80b928188b112p+3",
        "operational_energy_mwh": "0x1.aee3dafcc4b71p+3",
        "operational_tco2": "0x1.71b423d3c15b8p+2",
        "embodied_tco2": "0x1.3aa78b8b9d8bcp-7",
        "total_tco2": "0x1.72517799872a4p+2",
        "hardware_efficiency": "0x1.8369d0369d036p-3",
        "test_loss": "0x1.17156a9adf46ep+1",
        "parallelism": (2, 8, 1, 64),
        "line_items": [
            ("V100", 96, "0x1.7b27628d06419p+3", "0x1.06861f23431a3p-7"),
            ("CPU", 12, "0x1.647162e133e23p-3", "0x1.3bac44da4d8bfp-13"),
            ("others", 0, "0x0.0p+0", "0x1.7995daa789db0p-10"),
        ],
    },
    "regression-4-anchors": {
        "phase": "training",
        "duration_seconds": "0x1.b60fcdf61bdb0p+18",
        "hardware_energy_mwh": "0x1.f70e12c023f4ep+0",
        "operational_energy_mwh": "0x1.19b5f60532db1p+1",
        "operational_tco2": "0x1.e36a6bcd87658p-1",
        "embodied_tco2": "0x1.48f49589e05a6p-8",
        "total_tco2": "0x1.e5fc54f89b263p-1",
        "hardware_efficiency": "0x1.52c3a2b2a9656p-2",
        "test_loss": "0x1.18bdb77328388p+1",
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 112, "0x1.d8c4ac7ff1acap+0", "0x1.13c71d52e5877p-8"),
            ("CPU", 14, "0x1.e496640324842p-4", "0x1.eaca7df2fc47dp-15"),
            ("others", 0, "0x0.0p+0", "0x1.8abf19d8a6d2fp-11"),
        ],
    },
    "ssd-before-cpu-and-a-unit-twice": {
        "phase": "training",
        "duration_seconds": "0x1.a3b0a231a060ep+19",
        "hardware_energy_mwh": "0x1.08259ea57c433p+1",
        "operational_energy_mwh": "0x1.27d836cdd2daap+1",
        "operational_tco2": "0x1.fbab57e65039bp-1",
        "embodied_tco2": "0x1.6167db7c94e39p-3",
        "total_tco2": "0x1.2a02a762bab95p+0",
        "hardware_efficiency": "0x1.9c869536202ecp-2",
        "test_loss": "0x1.18bdb77328388p+1",
        "parallelism": (1, 4, 14, 1),
        "line_items": [
            ("A100", 48, "0x1.d8c4ac7ff1acap+0", "0x1.c4ef5486f57f4p-9"),
            ("SSD", 2, "0x0.0p+0", "0x1.2473afdcd294bp-3"),
            ("CPU", 8, "0x1.430eed576dad6p-3", "0x1.0cb0aff947df0p-14"),
            ("DRAM", 8, "0x0.0p+0", "0x1.5ef1396f6318cp-12"),
            ("CPU", 3, "0x1.e496640324840p-5", "0x1.930907f5ebce8p-16"),
            ("others", 0, "0x0.0p+0", "0x1.a8163a957f77bp-6"),
        ],
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_bit_identical_to_the_pinned_one(case):
    req = CASES[case]
    report = estimate_lifecycle(req) if isinstance(req, LifecyclePlan) else estimate(req)
    assert pinned(report) == GOLDEN[case]


def sweep_dense(name, params):
    return LlmArchitecture(name=name, kind=ArchKind.DENSE_GPT, explicit_param_count=int(params))


def sweep_moe(name, params, base):
    return LlmArchitecture(name=name, kind=ArchKind.MOE, explicit_param_count=int(params),
                           base_model_param_count=int(base))


# A measured accelerator and a TDP-only host, so both power paths are priced.
SWEEP_FLEET = HardwareFleet.of((V100, 64), (CPU, 8))
SWEEP_ANCHORS = {"packaged": None, "3-anchors": [(1e9, 0.4), (3e10, 0.5), (2e11, 0.45)]}
SWEEP_GRID = [
    (DENSE, 1.3e11),
    (LlmArchitecture(name="dense-6.6b-longer", kind=ArchKind.DENSE_GPT, hidden_size=4096,
                     layer_count=32, vocab_size=50257), 3e11),
    (sweep_dense("dense-1b", 1e9), 2e10),
    (sweep_dense("dense-70b", 70e9), 1.4e12),
    (sweep_dense("dense-175b", 175e9), 3e11),
    (sweep_dense("dense-137b", 137.98e9), 3e11),
    (sweep_dense("dense-13b", 13e9), 2.6e11),
    # Equal to the point above in loss and carbon: neither dominates the other.
    (sweep_dense("dense-13b-twin", 13e9), 2.6e11),
    (sweep_dense("dense-400m", 4e8), 8e9),
    (LlmArchitecture(name="encdec-t5ish", kind=ArchKind.DENSE_ENCDEC, hidden_size=1024,
                     layer_count=24, vocab_size=32128, head_count=16, head_dim=64,
                     ff_size=4096), 1e11),
    (LlmArchitecture(name="deconly-palmish", kind=ArchKind.DENSE_DECONLY, hidden_size=8192,
                     layer_count=64, vocab_size=256000, head_count=64, head_dim=128,
                     ff_size=32768), 7.8e11),
    (sweep_moe("moe-1.1t", 8 * 137.98e9, 6.6e9), 3e11),
    (MOE, 4e11),
    (sweep_moe("moe-600b", 600e9, 2.3e9), 1e12),
    # Broken points, one per kind of fault.
    (sweep_dense("no-tokens", 1e9), 0.0),
    (sweep_dense("negative-tokens", 1e9), -1e9),
    (LlmArchitecture(name="moe-no-base-no-vocab", kind=ArchKind.MOE, hidden_size=1024,
                     layer_count=24, moe_fraction=0.5, expert_groups=(ExpertGroup(1.0, 64),)),
     1e11),
    # Its FLOP budget overflows to inf, so the report's duration is not finite.
    (sweep_dense("flops-overflow", 1e15), 1e300),
]


def pinned_sweep(points, errors) -> dict:
    """A sweep's points as (name, count, loss, carbon, dominated), with every
    float written by ``float.hex``, and its error rows as they are."""
    return {
        "points": [(p.name, p.param_count, p.test_loss.hex(), p.training_tco2.hex(), p.dominated)
                   for p in points],
        "errors": errors,
    }


# No fault here depends on the anchor table, so both tables give the same
# error rows.
GOLDEN_SWEEP_ERRORS = [
    ("no-tokens", "sweep points need a finite positive token count, got 0.0"),
    ("negative-tokens", "sweep points need a finite positive token count, got -1000000000.0"),
    ("moe-no-base-no-vocab",
     "[flop-model] moe-no-base-no-vocab: MoE FLOPs need base_model_param_count (or h, l, V "
     "to derive the dense counterpart)"),
    ("flops-overflow", "duration_seconds must be finite and >= 0, got inf"),
]
GOLDEN_SWEEP = {
    "3-anchors": {
        "points": [
            ("dense-70b", 70000000000, "0x1.efc7ff5fff086p+0", "0x1.f48728ea7cee2p+11", False),
            ("moe-600b", 600000000000, "0x1.f36982e3223aep+0", "0x1.03dcbcfd41f13p+6", False),
            ("deconly-palmish", 70816628736, "0x1.f7214ee0016e8p+0",
             "0x1.1a482907aa063p+11", True),
            ("dense-175b", 175000000000, "0x1.004af89a426aep+1", "0x1.64226102e57bep+12", True),
            ("moe-1.1t", 1103840000000, "0x1.00f396b9a0921p+1", "0x1.7514d104e10acp+6", True),
            ("dense-137b", 137980000000, "0x1.00f396b9a0921p+1", "0x1.a79d9ccd3e453p+11", True),
            ("dense-13b", 13000000000, "0x1.0cb91e7bf7888p+1", "0x1.9aa7e918761d1p+4", False),
            ("dense-13b-twin", 13000000000, "0x1.0cb91e7bf7888p+1", "0x1.9aa7e918761d1p+4", False),
            ("dense-6.6b-longer", 6648303616, "0x1.104276bdd6c59p+1",
             "0x1.fe4281a8ae2c0p+2", False),
            ("moe-2x", 20132659200, "0x1.17156a9adf46ep+1", "0x1.4e4b81c292580p+2", False),
            ("dense-6.6b", 6648303616, "0x1.18bdb77328388p+1", "0x1.ba39a392308cap+1", False),
            ("encdec-t5ish", 737542144, "0x1.364b0e142c9fbp+1", "0x1.f2da3d7b93ef0p-1", False),
            ("dense-1b", 1000000000, "0x1.4a3f0238b0336p+1", "0x1.e090194097274p-3", False),
            ("dense-400m", 400000000, "0x1.6ee0651c7524fp+1", "0x1.8a7d05b3df918p-5", False),
        ],
        "errors": GOLDEN_SWEEP_ERRORS,
    },
    "packaged": {
        "points": [
            ("dense-70b", 70000000000, "0x1.efc7ff5fff086p+0", "0x1.034ba2b26b9d2p+12", False),
            ("moe-600b", 600000000000, "0x1.f36982e3223aep+0", "0x1.ee706fba5e754p+5", False),
            ("deconly-palmish", 70816628736, "0x1.f7214ee0016e8p+0",
             "0x1.244cc657e10f5p+11", True),
            ("dense-175b", 175000000000, "0x1.004af89a426aep+1", "0x1.598a4cd62b95ep+12", True),
            ("moe-1.1t", 1103840000000, "0x1.00f396b9a0921p+1", "0x1.8161f223bf50ap+6", True),
            ("dense-137b", 137980000000, "0x1.00f396b9a0921p+1", "0x1.a3c9a72b2b317p+11", True),
            ("dense-13b", 13000000000, "0x1.0cb91e7bf7888p+1", "0x1.b2944522c3742p+4", False),
            ("dense-13b-twin", 13000000000, "0x1.0cb91e7bf7888p+1", "0x1.b2944522c3742p+4", False),
            ("dense-6.6b-longer", 6648303616, "0x1.104276bdd6c59p+1",
             "0x1.0564f11e1097fp+3", False),
            ("moe-2x", 20132659200, "0x1.17156a9adf46ep+1", "0x1.3dedc7c6a154ap+2", False),
            ("dense-6.6b", 6648303616, "0x1.18bdb77328388p+1", "0x1.c5155dab943aap+1", False),
            ("encdec-t5ish", 737542144, "0x1.364b0e142c9fbp+1", "0x1.da4245c2e338dp-1", False),
            ("dense-1b", 1000000000, "0x1.4a3f0238b0336p+1", "0x1.c858236db1d7bp-3", False),
            ("dense-400m", 400000000, "0x1.6ee0651c7524fp+1", "0x1.796cbf1dd80e2p-5", False),
        ],
        "errors": GOLDEN_SWEEP_ERRORS,
    },
}


@pytest.mark.parametrize("anchors", sorted(SWEEP_ANCHORS))
def test_sweep_is_bit_identical_to_the_pinned_one(anchors):
    points, errors = sweep(SWEEP_GRID, SWEEP_FLEET, DC, anchors=SWEEP_ANCHORS[anchors])
    assert pinned_sweep(points, errors) == GOLDEN_SWEEP[anchors]


# Architectures that the parameter model cannot count are refused when they
# are built, so they never become sweep points.
@pytest.mark.parametrize("fields, message", [
    pytest.param({"kind": ArchKind.DENSE_ENCDEC, "hidden_size": 512, "layer_count": 4,
                  "vocab_size": 100},
                 "head_count: required for dense_encdec architectures; head_dim: required for "
                 "dense_encdec architectures; ff_size: required for dense_encdec architectures",
                 id="encdec-no-heads"),
    pytest.param({"kind": ArchKind.DENSE_GPT, "explicit_param_count": 0},
                 "explicit_param_count: must be a positive number; hidden_size: must be a "
                 "positive integer; layer_count: must be a positive integer; vocab_size: must "
                 "be a positive integer", id="zero-params"),
])
def test_a_sweep_point_the_parameter_model_cannot_count_is_refused_when_built(fields, message):
    with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
        LlmArchitecture(name="bad", **fields)


# sha256 over the lines of seeded.outputs(seeded.inputs("golden", 2000))
# followed by seeded.sweep_text("golden", 300, <the 4-anchor table>), captured
# before estimate() and estimate_lifecycle() shared one report assembler.
SEEDED_DIGEST = "f15a59bc2daed35bc42f3121d3810401fc783eab916c0ed54907d8af5135efa7"


def seeded_lines(seed, n, points):
    return (seeded.outputs(seeded.inputs(seed, n))
            + seeded.sweep_text(seed, points, seeded.ANCHOR_TABLES[2]))


def test_seeded_outputs_match_the_pinned_digest():
    lines = seeded_lines("golden", 2000, 300)
    assert sum(line.startswith("error: ") for line in lines) > 100
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEEDED_DIGEST


def test_outputs_are_the_same_under_the_float_sum_of_python_3_12(monkeypatch):
    # Python 3.12's sum() compensates; the package adds floats left to right
    # itself, so its bits do not depend on the interpreter.
    want = seeded_lines("sum", 400, 200)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert seeded_lines("sum", 400, 200) == want
