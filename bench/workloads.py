"""Seeded input generators for the three benchmark workloads.

Every generator takes its randomness from a ``random.Random`` built from the
workload seed, so the same seed gives the same inputs. The program under test
only ever sees the generated objects, never the seed.

Each generator also tallies the input properties a later performance claim
may depend on (how many calls use the packaged anchor table, how many carry
overrides, where the fleet sits against the planned optimum, ...), so that a
result can state the share of its inputs that has each property.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

import carboncast as cc

ACCELERATORS = ("V100", "A100", "H100", "TPUv3", "TPUv4")
DATA_CENTERS = ("asia-east2", "europe-north1", "us-central1", "us-south1")
VOCABS = (32000, 50257, 51200, 256000)
LAYERS = (12, 24, 32, 48, 64, 80, 96, 128)
EXPERTS = (8, 16, 32, 64, 128)
MIN_PARAMS, MAX_PARAMS = 1e8, 1.5e12

LIFECYCLE_SHARE = 0.20     # share of estimate-mix operations that are lifecycles
REGRESSION_SHARE = 0.25    # share of requests passing >= 3 anchors
OVERRIDE_SHARE = 0.30      # share of requests carrying at least one override
INFERENCE_SHARE = 0.25     # share of estimate() requests in the inference phase


@dataclass
class Tally:
    """Counts of input properties, turned into shares for the result."""

    total: int = 0
    counts: Counter = field(default_factory=Counter)

    def add(self, *props: str) -> None:
        self.total += 1
        self.counts.update(props)

    def shares(self) -> dict[str, float]:
        return {k: self.counts[k] / self.total for k in sorted(self.counts)} if self.total else {}


def _dims(rng: random.Random, kind: cc.ArchKind, params: float) -> dict:
    """Architecture fields that land near ``params`` parameters for ``kind``."""
    layers = rng.choice(LAYERS)
    if kind is cc.ArchKind.MOE:
        experts = rng.choice(EXPERTS)
        rho = rng.choice((0.5, 1.0))
        per_h2 = layers * ((1 - rho) * 12 + rho * (4 + 8 * experts))
        h = max(64, round(math.sqrt(params / per_h2) / 64) * 64)
        if rng.random() < 0.5:
            groups = (cc.ExpertGroup(1.0, experts),)
        else:
            groups = (cc.ExpertGroup(0.5, experts), cc.ExpertGroup(0.5, 2 * experts))
        dims = dict(hidden_size=h, layer_count=layers, moe_fraction=rho, expert_groups=groups)
        # The FLOP model needs either a dense base count or h, l and V.
        if rng.random() < 0.5:
            dims["vocab_size"] = rng.choice(VOCABS)
        else:
            dims["base_model_param_count"] = 12 * layers * h * h
        return dims
    per_h2 = {cc.ArchKind.DENSE_GPT: 12, cc.ArchKind.DENSE_ENCDEC: 28,
              cc.ArchKind.DENSE_DECONLY: 16}[kind] * layers
    h = max(64, round(math.sqrt(params / per_h2) / 64) * 64)
    dims = dict(hidden_size=h, layer_count=layers, vocab_size=rng.choice(VOCABS))
    if kind is not cc.ArchKind.DENSE_GPT:
        dims.update(head_count=h // 64, head_dim=64, ff_size=4 * h)
    return dims


def random_arch(rng: random.Random, name: str,
                kinds: tuple[cc.ArchKind, ...] = tuple(cc.ArchKind)) -> cc.LlmArchitecture:
    """An architecture of a random kind and a log-uniform size in 0.1 B - 1.5 T."""
    kind = rng.choice(kinds)
    params = 10 ** rng.uniform(math.log10(MIN_PARAMS), math.log10(MAX_PARAMS))
    return cc.LlmArchitecture(name=name, kind=kind, **_dims(rng, kind, params))


def _anchor_table(rng: random.Random) -> list[tuple[float, float]]:
    """Three to five anchors spread over 1 B - 1 T, so optimal_efficiency regresses."""
    k = rng.randint(3, 5)
    sizes = sorted(10 ** rng.uniform(9, 12) for _ in range(k))
    return [(p, rng.uniform(0.38, 0.52)) for p in sizes]


class EstimateMix:
    """Endless stream of distinct ``EstimateRequest`` and ``LifecyclePlan`` inputs.

    Yields ``(kind, payload)`` with kind ``"estimate"`` or ``"lifecycle"``.
    Fleets are drawn below, at and above the planned optimum device count in
    equal shares, so both branches of the off-optimal efficiency model and the
    exact-optimum path all run.
    """

    def __init__(self, seed: int, catalogs) -> None:
        self.rng = random.Random(f"estimate-mix:{seed}")
        self.units, self.centers = catalogs
        self.tally = Tally()
        self._n = 0

    def __iter__(self):
        return self

    def __next__(self):
        rng = self.rng
        self._n += 1
        if rng.random() < LIFECYCLE_SHARE:
            req, props = self._request(cc.Phase.TRAINING)
            storage = self._storage() if rng.random() < 0.5 else None
            plan = cc.LifecyclePlan(training=req, inference_share=rng.uniform(0.0, 2.0),
                                    experimentation_share=rng.uniform(0.0, 1.0),
                                    storage=storage)
            self.tally.add("lifecycle", *props)
            return "lifecycle", plan
        phase = cc.Phase.INFERENCE if rng.random() < INFERENCE_SHARE else cc.Phase.TRAINING
        req, props = self._request(phase)
        self.tally.add("estimate", *props)
        return "estimate", req

    def _storage(self) -> cc.StorageWorkload:
        rng = self.rng
        return cc.StorageWorkload(stored_tb=rng.uniform(0.1, 50), transferred_tb=rng.uniform(0, 200),
                                  duration_days=rng.uniform(1, 365))

    def _request(self, phase: cc.Phase) -> tuple[cc.EstimateRequest, list[str]]:
        rng = self.rng
        arch = random_arch(rng, f"m{self._n}")
        total = cc.count_params(arch).total
        tokens = (total * rng.uniform(5, 40) if phase is cc.Phase.TRAINING
                  else 10 ** rng.uniform(8, 12))
        memory = rng.choice((16.0, 32.0, 40.0, 80.0))
        server = rng.choice((4, 8, 16))
        optimum = cc.plan_parallelism(total, is_moe=arch.is_moe, device_memory_gb=memory,
                                      server_size=server).device_count
        position = rng.choice(("below", "at", "above")) if optimum > 1 else rng.choice(("at", "above"))
        devices = {"below": lambda: rng.randint(max(1, optimum // 10), optimum - 1),
                   "at": lambda: optimum,
                   "above": lambda: rng.randint(optimum + 1, 4 * optimum + 1)}[position]()

        overrides = cc.Overrides()
        fleet_count = devices
        props = [f"fleet_{position}_optimum"]
        if rng.random() < OVERRIDE_SHARE:
            fields = rng.sample(("measured_flops", "efficiency", "device_count",
                                 "system_power_watts"), rng.randint(1, 4))
            overrides = cc.Overrides(
                measured_flops=(6.0 * total * tokens * rng.uniform(0.8, 1.2)
                                if "measured_flops" in fields else None),
                efficiency=rng.uniform(0.1, 0.6) if "efficiency" in fields else None,
                device_count=devices if "device_count" in fields else None,
                system_power_watts=rng.uniform(250, 700) if "system_power_watts" in fields else None,
            )
            if "device_count" in fields:
                fleet_count = rng.randint(1, 4 * optimum + 1)
            props.append("overrides")

        anchors = None
        if rng.random() < REGRESSION_SHARE:
            anchors = _anchor_table(rng)
            props.append("anchors_regression")
        else:
            props.append("anchors_packaged")

        accel = self.units[rng.choice(ACCELERATORS)]
        pairs = [(accel, fleet_count), (self.units["CPU"], max(1, fleet_count // 8))]
        if rng.random() < 0.5:
            pairs.append((self.units["DRAM-256GB"], max(1, fleet_count // 8)))
        if rng.random() < 0.3:
            pairs.append((self.units["SSD-32TB"], max(1, fleet_count // 64)))
        if rng.random() < 0.5:
            dc = self.centers[rng.choice(DATA_CENTERS)]
        else:
            dc = cc.DataCenterProfile(name="inline", pue=rng.uniform(1.05, 1.6),
                                      carbon_intensity=rng.uniform(0.01, 0.8))
        req = cc.EstimateRequest(
            arch=arch, tokens=tokens, fleet=cc.HardwareFleet.of(*pairs), data_center=dc,
            phase=phase, overrides=overrides, device_memory_gb=memory, server_size=server,
            anchors=anchors,
        )
        return req, props


# --------------------------------------------------------------------------
# sweep-frontier
# --------------------------------------------------------------------------

SWEEP_ACCELERATOR, SWEEP_DEVICES = "A100", 2048
SWEEP_DATA_CENTER = "us-central1"


def sweep_setting(catalogs) -> tuple[cc.HardwareFleet, cc.DataCenterProfile]:
    """The fixed fleet and data center every sweep grid is evaluated on."""
    units, centers = catalogs
    fleet = cc.HardwareFleet.of((units[SWEEP_ACCELERATOR], SWEEP_DEVICES),
                                (units["CPU"], SWEEP_DEVICES // 8))
    return fleet, centers[SWEEP_DATA_CENTER]


def sweep_grid(rng: random.Random, n: int, invalid: int = 0
               ) -> tuple[list[tuple[cc.LlmArchitecture, float]], set[str]]:
    """``n`` design points near the compute-optimal frontier, ``invalid`` of them broken.

    Points sample a compute budget log-uniformly and split it close to the
    compute-optimal tokens-per-parameter ratio, with jitter, so loss falls as
    carbon rises along most of the grid and a large share of points is
    nondominated. Broken points cycle through a zero token count, a negative
    token count and an MoE model whose FLOP count has no base (no base count
    and no vocabulary); the sweep must return each as an error row.
    Returns the grid and the names of the broken points.
    """
    grid = []
    bad: set[str] = set()
    bad_at = set(rng.sample(range(n), invalid)) if invalid else set()
    for i in range(n):
        name = f"p{i}"
        if i in bad_at:
            bad.add(name)
            flavour = len(bad) % 3
            if flavour == 2:
                arch = cc.LlmArchitecture(name=name, kind=cc.ArchKind.MOE, hidden_size=1024,
                                          layer_count=24, moe_fraction=0.5,
                                          expert_groups=(cc.ExpertGroup(1.0, 64),))
                grid.append((arch, 1e11))
            else:
                grid.append((random_arch(rng, name, (cc.ArchKind.DENSE_GPT,)),
                             0.0 if flavour == 0 else -1e9))
            continue
        compute = 10 ** rng.uniform(19, 25)
        params = math.sqrt(compute / 6 / 20) * 10 ** rng.gauss(0, 0.15)
        kind = rng.choice((cc.ArchKind.DENSE_GPT, cc.ArchKind.DENSE_DECONLY))
        arch = cc.LlmArchitecture(name=name, kind=kind, **_dims(rng, kind, params))
        grid.append((arch, float(round(compute / 6 / params))))
    return grid, bad


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------

CLI_KINDS = ("estimate", "lifecycle", "validate", "catalog", "sweep")
CLI_SWEEP_POINTS = 100


def cli_sweep_config(rng: random.Random) -> tuple[str, list[tuple[cc.LlmArchitecture, float]]]:
    """A valid sweep config as YAML text, plus the grid it describes."""
    grid, _ = sweep_grid(rng, CLI_SWEEP_POINTS)
    lines = ["schema: 1", "sweep:",
             f"  fleet: [{{unit: {SWEEP_ACCELERATOR}, count: {SWEEP_DEVICES}}},"
             f" {{unit: CPU, count: {SWEEP_DEVICES // 8}}}]",
             f"  data_center: {SWEEP_DATA_CENTER}", "  grid:"]
    for arch, tokens in grid:
        fields = {k: getattr(arch, k) for k in ("hidden_size", "layer_count", "vocab_size",
                                                "head_count", "head_dim", "ff_size")
                  if getattr(arch, k) is not None}
        body = ", ".join(f"{k}: {v}" for k, v in fields.items())
        lines.append(f"    - {{tokens: {int(tokens)}, architecture: "
                     f"{{name: {arch.name}, kind: {arch.kind.value}, {body}}}}}")
    return "\n".join(lines) + "\n", grid
