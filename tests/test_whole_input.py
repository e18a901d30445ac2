"""Whole-input property: whatever numbers a library caller passes in, building
the inputs and running ``estimate``, ``estimate_lifecycle`` or ``sweep`` ends
in a finite, non-negative, additive report or sweep row, or in a named
``ModelError`` or ``CatalogError``. No other exception type gets out. The
exported stage functions, called on their own, return no NaN or end in the
same named errors. A config document, a broken copy of one of the packaged
examples, ends in exit 0 with such a report or rows, or in exit 2 or 3 with a
message that names a key path or a stage. A broken copy of a packaged
catalog loads, or ends in a ``CatalogError`` that names the row and a field,
or the header."""

import contextlib
import copy
import csv
import functools
import io
import math
import operator
import re
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from carboncast import catalog, cli
from carboncast import (
    device_time,
    efficiency_at_count,
    fleet_embodied,
    hardware_energy,
    inference_flops,
    operational_carbon,
    optimal_efficiency,
    plan_parallelism,
    test_loss,
    training_flops,
)
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
    CarbonReport,
    CatalogError,
    DataCenterProfile,
    ExpertGroup,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LlmArchitecture,
    ModelError,
    Phase,
    Record,
    ScalingConstants,
    shown,
)

# What each number field is tried with instead of a valid value. Python
# formats no int of more than 4,300 digits, so -10**5000 also checks that no
# message formats a value before its range is known.
BAD_NUMBERS = [0, -1.0, math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 5000, "1e9", True]
BAD_COUNTS = BAD_NUMBERS + [2.5]

# Valid values of each caller-number field, by the object that takes it.
VALID = {
    "accel": {"peak_tflops": [125.0, 312], "tdp_watts": [300.0, None],
              "avg_system_power_watts": [None, 330.0], "die_area_mm2": [815.0, 826],
              "cpa": [1.2, 0.0], "capacity_gb": [None, 32.0],
              "embodied_kg_override": [None, 150.0], "lifetime_years": [5.0, 3]},
    "fleet": {"count": [8, 1496]},
    "dc": {"pue": [1.1, 1], "carbon_intensity": [0.429, 0.0]},
    "storage": {"stored_tb": [32.7, 0], "transferred_tb": [277.4, 0.0],
                "duration_days": [180, 0.5], "storage_w_per_tb": [11.3, 0.0],
                "transfer_w_per_tb": [1.48, 2]},
    "overrides": {"measured_flops": [None, 3.14e23], "system_power_watts": [None, 330.0],
                  "efficiency": [None, 0.197, 1], "device_count": [None, 10000]},
    # 1e308 parameters in 1e300 GB devices are inf bytes over inf bytes: a
    # NaN pipeline depth.
    "request": {"tokens": [300e9, 0, 10 ** 9], "device_memory_gb": [32.0, 80, 1e300],
                "server_size": [8, 1]},
    "plan": {"inference_share": [0.0, 1.5], "experimentation_share": [0, 0.25]},
    "scaling": {"A": [406.4], "B": [410.7, 400], "alpha": [0.34], "beta": [0.28],
                "E": [1.69, 2]},
    "arch": {"explicit_param_count": [None, 175_000_000_000, 1.3e9, 0, 1e308],
             "base_model_param_count": [None, 6_600_000_000, 2.5e9],
             "hidden_size": [12288, 64], "layer_count": [96, 2], "vocab_size": [51200, 1000],
             "head_count": [None, 96, 8], "head_dim": [None, 128, 8], "ff_size": [None, 4096],
             "ff_stacks": [1, 2]},
    # Read only by the expert (MoE) architectures.
    "moe": {"moe_fraction": [0.5, 1], "layer_fraction": [1.0, 1], "expert_count": [64, 2]},
}
COUNTS = {("fleet", "count"), ("overrides", "device_count"), ("request", "server_size"),
          ("arch", "explicit_param_count"), ("moe", "expert_count"),
          *(("arch", f) for f in ("hidden_size", "layer_count", "vocab_size", "head_count",
                                  "head_dim", "ff_size", "ff_stacks"))}
FIELDS = sorted((group, fname) for group, fields in VALID.items() for fname in fields)
# The strategies are made once: making them per draw costs more than the runs.
GOOD_DRAW = {(g, f): st.sampled_from(VALID[g][f]) for g, f in FIELDS}
BAD_DRAW = {(g, f): st.sampled_from(BAD_COUNTS if (g, f) in COUNTS else BAD_NUMBERS)
            for g, f in FIELDS}
# Up to three broken fields of any input, or one to three of the architecture.
BROKEN_DRAW = {"any": st.sets(st.sampled_from(FIELDS), max_size=3),
               "arch": st.sets(st.sampled_from([f for f in FIELDS if f[0] in ("arch", "moe")]),
                               min_size=1, max_size=3)}
RUNNER_DRAW = st.sampled_from(["training", "inference", "lifecycle", "sweep"])
KIND_DRAW = st.sampled_from([ArchKind.DENSE_GPT, ArchKind.DENSE_DECONLY, ArchKind.MOE])


@st.composite
def whole_inputs(draw, broken_from="any"):
    """A runner, an architecture kind and the number fields of every input,
    with up to three of them broken (``broken_from`` ``"arch"``: one to three
    of the architecture's)."""
    broken = draw(BROKEN_DRAW[broken_from])
    values = {group: {} for group in VALID}
    for field in FIELDS:
        group, fname = field
        values[group][fname] = draw((BAD_DRAW if field in broken else GOOD_DRAW)[field])
    return draw(RUNNER_DRAW), draw(KIND_DRAW), values


def run(runner, kind, v):
    """Build the inputs from the field values ``v`` and run ``runner`` on an
    architecture of ``kind``."""
    accel = HardwareUnit(name="gpu", role=HardwareRole.ACCELERATOR, cpa_basis="area",
                         **v["accel"])
    cpu = HardwareUnit(name="cpu", role=HardwareRole.CPU, tdp_watts=205, die_area_mm2=147,
                       cpa=1.0)
    fleet = HardwareFleet.of((accel, v["fleet"]["count"]), (cpu, 2))
    dc = DataCenterProfile(name="dc", **v["dc"])
    storage = StorageWorkload(**v["storage"])
    moe = v["moe"]
    expert = {} if kind is not ArchKind.MOE else {
        "moe_fraction": moe["moe_fraction"],
        "expert_groups": (ExpertGroup(moe["layer_fraction"], moe["expert_count"]),)}
    arch = LlmArchitecture(name="m", kind=kind, **v["arch"], **expert)
    if runner == "sweep":
        grid = [(arch, v["request"]["tokens"]), (LlmArchitecture(
            name="fine", kind=ArchKind.DENSE_GPT, explicit_param_count=10 ** 9), 1e10)]
        sizing = {k: v["request"][k] for k in ("device_memory_gb", "server_size")}
        return sweep(grid, fleet, dc, **sizing)
    phase = Phase.TRAINING if runner in ("training", "lifecycle") else Phase(runner)
    req = EstimateRequest(arch=arch, fleet=fleet, data_center=dc, phase=phase,
                          scaling=ScalingConstants(**v["scaling"]),
                          overrides=Overrides(**v["overrides"]), **v["request"])
    if runner == "lifecycle":
        return estimate_lifecycle(LifecyclePlan(req, storage=storage, **v["plan"]))
    return estimate(req)


def finite(value) -> bool:
    return 0.0 <= value < math.inf


def check_report(r):
    assert all(finite(x) for x in (
        r.duration_seconds, r.hardware_energy_mwh, r.operational_energy_mwh,
        r.operational_tco2, r.embodied_tco2, r.total_tco2, r.hardware_efficiency))
    assert r.test_loss is None or finite(r.test_loss)
    assert r.total_tco2 == r.operational_tco2 + r.embodied_tco2
    # Counts stay whole: a 2.5-device fleet or a 2.5-way tensor split is no plan.
    assert all(type(i.count) is int for i in r.line_items)
    plan = r.parallelism
    assert plan is None or all(type(d) is int for d in (plan.pipeline, plan.tensor, plan.data))
    assert math.isclose(sum(i.energy_mwh for i in r.line_items), r.hardware_energy_mwh,
                        rel_tol=1e-12)
    assert math.isclose(sum(i.embodied_tco2 for i in r.line_items), r.embodied_tco2,
                        rel_tol=1e-12)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(whole_inputs())
def test_every_number_ends_in_a_report_or_a_named_error(case):
    check_outcome(*case)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(whole_inputs("arch"))
def test_every_architecture_number_ends_in_a_report_or_a_named_error(case):
    check_outcome(*case)


def check_outcome(runner, kind, values):
    try:
        result = run(runner, kind, values)
    except (ModelError, CatalogError):
        return
    if runner != "sweep":
        check_report(result)
        return
    points, errors = result
    assert len(points) + len(errors) == 2
    for p in points:
        assert finite(p.test_loss) and finite(p.training_tco2)
    for name, message in errors:
        assert isinstance(name, str) and isinstance(message, str)


# The number parameters of each exported stage function and their valid
# values; the other arguments are fixed below.
STAGE_VALID = {
    test_loss: {"param_count": [1.3e9, 175_000_000_000], "token_count": [300e9, 1]},
    training_flops: {"param_count": [1.3e9, 0], "token_count": [300e9, 10 ** 9]},
    inference_flops: {"param_count": [1.3e9, 0], "token_count": [2048.0, 1]},
    device_time: {"total_flops": [3.14e23, 0], "device_count": [1496, 1],
                  "peak_tflops": [125.0, 312], "efficiency": [0.197, 1]},
    hardware_energy: {"execution_seconds": [1.3e6, 0], "efficiency": [0.197, 1],
                      "power_override_watts": [None, 330.0, 0]},
    operational_carbon: {"hardware_energy_mwh": [1287.0, 0], "carbon_intensity": [0.429, 0.0]},
    fleet_embodied: {"execution_seconds": [1.3e6, 0.0]},
    optimal_efficiency: {"param_count": [175e9, 10 ** 9], "anchor_param_count": [1e9, 10 ** 11],
                         "anchor_efficiency": [0.52, 1]},
    efficiency_at_count: {"actual_devices": [10000, 1], "optimal_devices": [1500, 1],
                          "optimal_eff": [0.47, 1]},
    plan_parallelism: {"param_count": [175e9, 10 ** 9], "device_memory_gb": [32.0, 80],
                       "server_size": [8, 1]},
}
STAGE_COUNTS = {(efficiency_at_count, "actual_devices"), (efficiency_at_count, "optimal_devices"),
                (plan_parallelism, "server_size"), (device_time, "device_count")}
# Where the README says an infinite result is one that a report refuses.
INF_REFUSED_BY_A_REPORT = {training_flops, inference_flops, device_time}
STAGE_FLEET = HardwareFleet.of(
    (HardwareUnit(name="gpu", role=HardwareRole.ACCELERATOR, peak_tflops=125.0, tdp_watts=300,
                  die_area_mm2=815, cpa=1.2), 8),
    (HardwareUnit(name="cpu", role=HardwareRole.CPU, tdp_watts=205, die_area_mm2=147,
                  cpa=1.0), 2))


def call_stage(function, v):
    """Call ``function`` with the number arguments ``v``."""
    if function in (hardware_energy, fleet_embodied):
        return function(STAGE_FLEET, **v)
    if function is operational_carbon:
        dc = DataCenterProfile(name="dc", pue=1.1, carbon_intensity=v["carbon_intensity"])
        return function(v["hardware_energy_mwh"], dc)
    if function is optimal_efficiency:
        anchors = [(v["anchor_param_count"], v["anchor_efficiency"]), (3e9, 0.38), (1e10, 0.52)]
        return function(v["param_count"], anchors=anchors)
    return function(**v)


@st.composite
def stage_arguments(draw, function):
    """The number arguments of ``function``, one to three of them broken."""
    names = sorted(STAGE_VALID[function])
    broken = draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
    return {name: draw(st.sampled_from(
                (BAD_COUNTS if (function, name) in STAGE_COUNTS else BAD_NUMBERS)
                if name in broken else STAGE_VALID[function][name]))
            for name in names}


def numbers_in(result):
    """Every int and float in a stage result, through tuples, lists and
    records."""
    if isinstance(result, (int, float)):
        yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from numbers_in(item)
    elif isinstance(result, Record):
        for name in result._fields:
            yield from numbers_in(getattr(result, name))


# Per function: a draw over all ten gives the smaller ones too few examples.
@pytest.mark.parametrize("function", list(STAGE_VALID), ids=lambda f: f.__name__)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_every_stage_function_number_ends_in_a_number_or_a_named_error(function, data):
    values = data.draw(stage_arguments(function))
    try:
        result = call_stage(function, values)
    except (ModelError, CatalogError):
        return
    numbers = list(numbers_in(result))
    assert numbers
    assert not any(math.isnan(x) for x in numbers)
    assert all(x >= 0 for x in numbers)
    if function not in INF_REFUSED_BY_A_REPORT:
        assert all(x < math.inf for x in numbers)


ENTRY_REQUEST = EstimateRequest(
    arch=LlmArchitecture(name="m", kind=ArchKind.DENSE_GPT, explicit_param_count=10 ** 9),
    tokens=1e9, fleet=STAGE_FLEET,
    data_center=DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.4))
ENTRY_PLAN = LifecyclePlan(ENTRY_REQUEST)


# Each entry point names its argument; the other entry point's record is refused too.
@pytest.mark.parametrize("entry, name, kind, valid, other", [
    (estimate, "request", "an EstimateRequest", ENTRY_REQUEST, ENTRY_PLAN),
    (estimate_lifecycle, "plan", "a LifecyclePlan", ENTRY_PLAN, ENTRY_REQUEST),
], ids=["estimate", "estimate_lifecycle"])
@pytest.mark.parametrize("value", BAD_NUMBERS + [None, "other"], ids=[
    "0", "-1.0", "nan", "inf", "-inf", "1e400", "-1e5000", "str", "True", "None", "other"])
def test_an_entry_point_refuses_an_argument_of_the_wrong_type(entry, name, kind, valid, other,
                                                              value):
    if value == "other":
        value = other
    with pytest.raises(ModelError) as raised:
        entry(value)
    assert type(raised.value) is ModelError
    assert str(raised.value) == f"{name} must be {kind}, got {type(value).__name__}"
    assert entry(valid).total_tco2 > 0


# What every field of an architecture is tried with: wrong types, broken
# numbers, empty and one-item sequences, and records of the wrong kind.
FIELD_POOL = [None, "x", 2.5, True, False, 0, -1, math.nan, 10 ** 400, [], {}, (), [1], (1,),
              ExpertGroup(1.0, 8), DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.4),
              object()]
# One architecture of each way the parameter model reads the fields.
FIELD_ARCHS = {
    "decoder-only": {"kind": ArchKind.DENSE_DECONLY, "hidden_size": 64, "layer_count": 2,
                     "vocab_size": 1000, "head_count": 8, "head_dim": 8, "ff_size": 256},
    "shaped-moe": {"kind": ArchKind.MOE, "hidden_size": 64, "layer_count": 2, "vocab_size": 1000,
                   "moe_fraction": 0.5, "expert_groups": (ExpertGroup(1.0, 8),)},
    "explicit-dense": {"kind": ArchKind.DENSE_GPT, "explicit_param_count": 10 ** 9},
    "explicit-moe": {"kind": ArchKind.MOE, "explicit_param_count": 10 ** 10,
                     "base_model_param_count": 10 ** 9},
}


@pytest.mark.parametrize("fname", LlmArchitecture._fields)
@pytest.mark.parametrize("arch", FIELD_ARCHS)
def test_every_architecture_field_value_is_refused_or_hashes_and_runs(arch, fname):
    # Each value is refused when built, or builds an architecture that
    # hashes and that estimate() and a one-point sweep() run to a report or
    # point or to a named error.
    dc = DataCenterProfile(name="dc", pue=1.1, carbon_intensity=0.4)
    escapes = []
    for value in FIELD_POOL:
        try:
            built = LlmArchitecture(**{"name": "m", **FIELD_ARCHS[arch], fname: value})
        except ModelError:
            continue
        try:
            hash(built)
            try:
                check_report(estimate(EstimateRequest(arch=built, tokens=1e9, fleet=STAGE_FLEET,
                                                      data_center=dc)))
            except (ModelError, CatalogError):
                pass
            points, errors = sweep([(built, 1e9)], STAGE_FLEET, dc)
            assert len(points) + len(errors) == 1
        except Exception as escape:  # listed, so that one run names every escape
            escapes.append(f"{shown(value)}: {type(escape).__name__}: {escape}")
    assert escapes == []


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
# Each packaged example config and the command line that runs it.
EXAMPLE_COMMANDS = {
    "gpt3_training.yaml": ["estimate"],
    "lifecycle_green_grid.yaml": ["lifecycle", "--catalog",
                                  str(EXAMPLES / "xlm_cluster_hardware.csv")],
    "sweep_grid.yaml": ["sweep"],
}
EXAMPLE_DOCS = {name: yaml.safe_load((EXAMPLES / name).read_text(encoding="utf-8"))
                for name in EXAMPLE_COMMANDS}
# What an edit puts in place of a value: broken numbers, wrong types and
# empty values. PyYAML writes no int of more than 4,300 digits either.
BAD_VALUES = [None, True, "", "x", "1e9", [1, 2], {"a": 1}, 0, -1, 2.5, 10 ** 400,
              math.nan, math.inf, -math.inf]
EDIT_DRAW = st.sampled_from([("delete",), ("unknown key",), ("nest",), ("nest deep",)]
                            + [("set", v) for v in BAD_VALUES])
# What a "nest deep" edit puts in place of a value. PyYAML's representer
# recurses in Python, so the dumped text gets block sequences nested just
# past the config nesting limit in place of this marker.
DEEP = "nested-past-the-limit"
EXAMPLE_DRAW = st.sampled_from(sorted(EXAMPLE_COMMANDS))
# A config fault names a key path: one under the section, or the file's own
# ``schema`` or top key; a document nested too deep names the file.
KEY_PATH = re.compile(r"config error: (estimate|lifecycle|sweep)[.:\[]|config error: \S+\.yaml\.\w+: "
                      rf"|config error: \S+\.yaml: nested deeper than {cli.MAX_NESTING} levels$")
# A line of dumped text that gives a mapping key, other than a sequence
# entry's first key: written twice in a row, the mapping gives that key twice.
KEY_LINE = re.compile(r" *([\w.]+):( |$)")
# A model fault names its stage or the report value it would have made; a
# sweep point can also fail the sweep's own check of its tokens.
STAGE = re.compile(r"\[[a-z-]+\] |sweep points need a finite positive token count|("
                   + "|".join(CarbonReport._fields) + ") must be ")


def key_paths(node, prefix=()):
    """The path of every key and list item in a YAML document, outer ones first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


@st.composite
def config_documents(draw):
    """A packaged example, a copy of its document with one to three edits
    (a key or item deleted, an unknown key or a repeated item added, a value
    nested one level deeper or replaced by the ``DEEP`` marker, or a value
    replaced by a broken one), and, for one case in four, a "repeat a key"
    edit of the dumped text: which of its ``KEY_LINE`` lines to write twice."""
    name = draw(EXAMPLE_DRAW)
    doc = copy.deepcopy(EXAMPLE_DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(key_paths(doc))
        if not paths:
            break
        *parents, key = paths[draw(st.integers(0, len(paths) - 1))]
        container = functools.reduce(operator.getitem, parents, doc)
        edit = draw(EDIT_DRAW)
        if edit[0] == "delete":
            del container[key]
        elif edit[0] == "unknown key":
            if isinstance(container, dict):
                # YAML keys need not be strings, nor of one type.
                container[draw(st.sampled_from(["unknown", 1, None, True]))] = 1
            else:
                container.append(copy.deepcopy(container[key]))
        elif edit[0] == "nest":
            container[key] = [container[key]]
        elif edit[0] == "nest deep":
            container[key] = DEEP
        else:
            container[key] = copy.deepcopy(edit[1])
    repeat = draw(st.integers(0, 999)) if draw(st.integers(0, 3)) == 0 else None
    return name, doc, repeat


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "config.yaml"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(config_documents())
def test_every_config_document_ends_in_a_report_or_a_named_error(config_path, case):
    name, doc, repeat = case
    # libyaml's emitter when PyYAML has it: the pure-Python one doubles the run.
    text = yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))
    deep = DEEP in text
    # Each marker's value: on a line of its own, indented past the marker's key.
    text = re.sub(rf"^(.*){DEEP}$",
                  lambda m: f"{m[1]}\n{' ' * len(m[1])}{'- ' * cli.MAX_NESTING}x", text, flags=re.M)
    lines = text.splitlines(keepends=True)
    keyed = [i for i, line in enumerate(lines) if KEY_LINE.match(line)]
    if not keyed:  # every key deleted
        repeat = None
    if repeat is not None:
        i = keyed[repeat % len(keyed)]
        lines.insert(i, lines[i])
        text = "".join(lines)
        twice = (f"config error: {config_path}: key {KEY_LINE.match(lines[i])[1]!r} given twice "
                 f"(lines {i + 1} and {i + 2})\n")
    config_path.write_text(text, encoding="utf-8")
    argv = [*EXAMPLE_COMMANDS[name], "--config", str(config_path)]
    stderr = io.StringIO()
    # The formatters see what a run made: the report, or the sweep's points.
    with mock.patch.object(cli, "_format_report_table", wraps=cli._format_report_table) as table, \
            mock.patch.object(cli, "_format_sweep_csv", wraps=cli._format_sweep_csv) as rows, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    if repeat is not None:
        # The repeated key is the fault, unless a part nested too deep comes first.
        too_deep = f"config error: {config_path}: nested deeper than {cli.MAX_NESTING} levels\n"
        assert code == cli.EXIT_CONFIG_ERROR and (err == twice or deep and err == too_deep), err
        return
    if code == cli.EXIT_CONFIG_ERROR:
        assert KEY_PATH.match(err), err
        return
    if rows.called:
        # Each row is a point of the document's grid, under the name it gives.
        names = [point["architecture"].get("name") for point in doc["sweep"]["grid"]]
        for p in rows.call_args.args[0]:
            assert p.name in names and finite(p.test_loss) and finite(p.training_tco2)
    if code == cli.EXIT_OK:
        if not rows.called:
            check_report(table.call_args.args[0])
        return
    assert code == cli.EXIT_MODEL_ERROR, err
    # A sweep names each skipped point's stage; anything else fails once.
    faults = [line.split(": ", 1)[1] for line in err.splitlines() if line.startswith("skipped ")]
    assert faults or err.startswith("model error: "), err
    for fault in faults or [err.removeprefix("model error: ")]:
        assert STAGE.match(fault), err


# Each catalog that ships with the package or its examples, as rows of cells.
CATALOGS = {path.name if path.parent == EXAMPLES else f"packaged {path.name}":
            list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
            for path in (Path(catalog.__file__).parent / "data" / "hardware.csv",
                         Path(catalog.__file__).parent / "data" / "datacenters.csv",
                         EXAMPLES / "xlm_cluster_hardware.csv")}
CELL_EDIT_DRAW = st.sampled_from([("set", v) for v in ["", "nan", "inf", "1e400", "-1", "x", "True"]]
                                 + [("append",), ("drop",), ("capitalize role",)])
CATALOG_FIELDS = "|".join(catalog.HARDWARE_FIELDS + catalog.DATACENTER_FIELDS + ["carbon_intensity"])
# A row fault names the row, and a field (after the entry's name, or in an
# invariant's words) or the row's length against the header's.
ROW_FAULT = re.compile(rf"(hardware|data-center) catalog row \d+: "
                       rf"((.*[ .(])?({CATALOG_FIELDS})[:, ]|\d+ cells, expected \d+$)")


@st.composite
def catalog_copies(draw):
    """A shipped catalog's rows with one to three edits, header included: a
    cell blanked or set to a broken number, text or ``True``; a non-blank
    cell appended to a row or a cell dropped from it; or the role
    capitalized."""
    rows = copy.deepcopy(CATALOGS[draw(st.sampled_from(sorted(CATALOGS)))])
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if not row:
            continue
        edit = draw(CELL_EDIT_DRAW)
        col = draw(st.integers(0, len(row) - 1))
        if edit[0] == "set":
            row[col] = edit[1]
        elif edit[0] == "append":
            row.append("7")
        elif edit[0] == "drop":
            del row[col]
        elif "role" in rows[0]:
            col = rows[0].index("role")
            row[col:col + 1] = [c.capitalize() for c in row[col:col + 1]]
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(catalog_copies())
def test_every_catalog_copy_loads_or_names_its_row_and_field(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "catalog.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    try:
        units, centers = catalog.resolve_catalogs([path])
    except CatalogError as exc:
        # A fault names the file, then its row or its header.
        fault = str(exc).removeprefix(f"{path}: ")
        assert fault != str(exc), exc
        assert ROW_FAULT.match(fault) or fault == "header matches no known catalog schema", exc
        return
    # No cell beyond the header is dropped unread, and no row short of the
    # header has its cells read into the wrong columns.
    assert not any(any(row[len(rows[0]):]) for row in rows), rows
    assert not any(any(row) and len(row) < len(rows[0]) for row in rows), rows
    for entry in [*units.values(), *centers.values()]:
        numbers = [v for v in vars(entry).values() if isinstance(v, float)]
        assert all(finite(v) and v >= 0 for v in numbers), entry
