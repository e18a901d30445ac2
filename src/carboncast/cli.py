"""Command-line interface.

Subcommands: estimate, lifecycle, sweep, validate, catalog. Configs are YAML
documents with a ``schema: 1`` version tag; unknown keys are rejected with
their full path so typos surface immediately. Exit codes: 0 success, 1
validation failures, 2 config errors, 3 model errors.

Only the commands that read a config (estimate, lifecycle, sweep) import
PyYAML, and only validate loads the validation fixtures; a cold start pays
for nothing its command does not use.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import functools
import inspect
import io
import math
import sys
import types
import typing
from pathlib import Path

from . import units
from .catalog import resolve_catalogs
from .pipeline import EstimateRequest, LifecyclePlan, estimate, estimate_lifecycle, sweep
from .types import (
    CarbonReport,
    CatalogError,
    DataCenterProfile,
    FleetEntry,
    HardwareFleet,
    LlmArchitecture,
    ModelError,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_MODEL_ERROR = 3


class ConfigError(Exception):
    """Bad config document; the message names the offending key path."""


# --------------------------------------------------------------------------
# Config parsing. Each config section builds one dataclass, or the arguments
# of one function (``sweep``): its keys are the parameters and each value is
# coerced through the parameter's annotated type, so the dataclasses and
# ``sweep()`` stay the one place that names keys and defaults.
# --------------------------------------------------------------------------

# Config keys whose name differs from the field they fill.
_CONFIG_KEYS = {(EstimateRequest, "arch"): "architecture"}
# Fields only library callers set.
_NOT_CONFIG = {(EstimateRequest, "anchors"), (sweep, "anchors")}


def _check_keys(mapping: dict, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}: unknown key")


def _num(tp: type, value, path: str):
    """A finite float, or a whole int when ``tp`` is int; numeric strings count."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if tp is int:
        if not number.is_integer():
            raise ConfigError(f"{path}: expected a whole number, got {value!r}")
        return int(number)
    return number


def _coerce(tp, value, path: str):
    """Convert one config value to the annotated field type ``tp``."""
    if typing.get_origin(tp) is types.UnionType:  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
    if dataclasses.is_dataclass(tp):
        return _read(tp, {} if value is None else value, path)  # `overrides:` left empty
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        items = [] if value is None else value
        if not isinstance(items, list):
            raise ConfigError(f"{path}: expected a list")
        return tuple(_coerce(typing.get_args(tp)[0], v, f"{path}[{i}]")
                     for i, v in enumerate(items))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            valid = ", ".join(m.value for m in tp)
            raise ConfigError(f"{path}: must be one of {valid}") from None
    if tp is str:  # a name; YAML reads an unquoted 123, null or .nan as no string
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    return _num(tp, value, path)


@functools.cache
def _config_fields(target) -> dict[str, tuple[str, object, bool]]:
    """Config key -> (parameter name, resolved annotation, whether it has a
    default) of a config dataclass or function; resolving hints is slow."""
    hints = typing.get_type_hints(target)
    return {_CONFIG_KEYS.get((target, name), name): (name, hints[name], p.default is not p.empty)
            for name, p in inspect.signature(target).parameters.items()
            if (target, name) not in _NOT_CONFIG}


def _arguments(target, doc, path: str, **special) -> dict:
    """The arguments of config dataclass or function ``target`` from mapping
    ``doc`` found at ``path``.

    ``special`` maps a config key to a ``reader(value, path)`` that replaces
    the type-driven coercion, for values that are catalog lookups or lists.
    """
    fields = _config_fields(target)
    _check_keys(doc, fields, path)
    kwargs = {}
    for key, (name, tp, has_default) in fields.items():
        kpath = f"{path}.{key}"
        if key in doc:
            reader = special.get(key)
            kwargs[name] = reader(doc[key], kpath) if reader else _coerce(tp, doc[key], kpath)
        elif not has_default:
            raise ConfigError(f"{kpath}: required")
    return kwargs


def _read(cls, doc, path: str, **special):
    """Build config dataclass ``cls`` from mapping ``doc`` found at ``path``;
    see :func:`_arguments`."""
    kwargs = _arguments(cls, doc, path, **special)
    try:
        return cls(**kwargs)
    except (CatalogError, ModelError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _lookup(table: dict, what: str, name, path: str):
    """The catalog entry called ``name`` in ``table``, whose entries are ``what``s."""
    name = _coerce(str, name, path)
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"{path}: unknown {what} {name!r}") from None


def _catalog_readers(catalogs) -> dict:
    """Readers of the ``fleet`` and ``data_center`` keys, which name catalog entries."""
    units_by_name, centers_by_name = catalogs
    unit = functools.partial(_lookup, units_by_name, "hardware unit")

    def fleet(doc, path: str) -> HardwareFleet:
        if not isinstance(doc, list) or not doc:
            raise ConfigError(f"{path}: expected a non-empty list of fleet entries")
        entries = tuple(_read(FleetEntry, entry, f"{path}[{i}]", unit=unit)
                        for i, entry in enumerate(doc))
        try:
            return HardwareFleet(entries)
        except CatalogError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def data_center(doc, path: str) -> DataCenterProfile:
        if isinstance(doc, str):
            return _lookup(centers_by_name, "data center", doc, path)
        return _read(DataCenterProfile, doc, path)

    return {"fleet": fleet, "data_center": data_center}


def _grid_point(architecture: LlmArchitecture, tokens: float) -> tuple[LlmArchitecture, float]:
    """One (architecture, tokens) point of a sweep's ``grid``; its parameters
    are the point's config keys."""
    return architecture, tokens


def _read_grid(doc, path: str) -> list[tuple[LlmArchitecture, float]]:
    """The ``grid`` of (architecture, tokens) points of a sweep."""
    if not isinstance(doc, list) or not doc:
        raise ConfigError(f"{path}: must be a non-empty list")
    return [_grid_point(**_arguments(_grid_point, point, f"{path}[{i}]"))
            for i, point in enumerate(doc)]


def _load_config(path: str, top_key: str) -> dict:
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        # libyaml's parser when PyYAML was built with it; both loaders share
        # the Python constructor and resolver, so the values are the same.
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(doc, {"schema", top_key}, path)
    version = doc.get("schema")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{path}.schema: expected {SCHEMA_VERSION}, got {version!r}")
    if top_key not in doc:
        raise ConfigError(f"{path}.{top_key}: required")
    return doc[top_key]


# --------------------------------------------------------------------------
# Output formatting.
# --------------------------------------------------------------------------

def _format_report_table(report: CarbonReport) -> str:
    rows = [
        ("phase", report.phase.value),
        ("duration (days)", f"{units.seconds_to_days(report.duration_seconds):.1f}"),
        ("hardware energy (MWh)", f"{report.hardware_energy_mwh:.3f}"),
        ("operational energy (MWh)", f"{report.operational_energy_mwh:.3f}"),
        ("operational (tCO2eq)", f"{report.operational_tco2:.2f}"),
        ("embodied (tCO2eq)", f"{report.embodied_tco2:.2f}"),
        ("total (tCO2eq)", f"{report.total_tco2:.2f}"),
        ("hardware efficiency", f"{report.hardware_efficiency:.4f}"),
    ]
    if report.test_loss is not None:
        rows.append(("test loss", f"{report.test_loss:.4f}"))
    if report.parallelism is not None:
        p = report.parallelism
        rows.append(("parallelism (p,t,d,e)",
                     f"{p.pipeline},{p.tensor},{p.data},{p.expert} "
                     f"(n={p.device_count})"))
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


REPORT_CSV_HEADER = [
    "phase", "duration_days", "hardware_energy_mwh", "operational_energy_mwh",
    "operational_tco2", "embodied_tco2", "total_tco2", "test_loss",
    "hardware_efficiency",
]


def _format_report_csv(report: CarbonReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    writer.writerow([
        report.phase.value,
        f"{units.seconds_to_days(report.duration_seconds):.6f}",
        f"{report.hardware_energy_mwh:.6f}",
        f"{report.operational_energy_mwh:.6f}",
        f"{report.operational_tco2:.6f}",
        f"{report.embodied_tco2:.6f}",
        f"{report.total_tco2:.6f}",
        "" if report.test_loss is None else f"{report.test_loss:.6f}",
        f"{report.hardware_efficiency:.6f}",
    ])
    return out.getvalue()


SWEEP_CSV_HEADER = ["name", "params", "tokens", "test_loss", "training_tco2", "dominated"]


def _format_sweep_csv(points) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for p in points:
        writer.writerow([p.name, p.param_count, f"{p.tokens:.6g}",
                         f"{p.test_loss:.6f}", f"{p.training_tco2:.6f}",
                         "yes" if p.dominated else "no"])
    return out.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path}: {exc}") from None
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    catalogs = resolve_catalogs(args.catalog)
    doc = _load_config(args.config, "estimate")
    req = _read(EstimateRequest, doc, "estimate", **_catalog_readers(catalogs))
    report = estimate(req)
    text = _format_report_csv(report) if args.format == "csv" else _format_report_table(report)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_lifecycle(args) -> int:
    readers = _catalog_readers(resolve_catalogs(args.catalog))
    doc = _load_config(args.config, "lifecycle")
    plan = _read(LifecyclePlan, doc, "lifecycle",
                 training=lambda value, p: _read(EstimateRequest, value, p, **readers))
    report = estimate_lifecycle(plan)
    text = _format_report_csv(report) if args.format == "csv" else _format_report_table(report)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    readers = _catalog_readers(resolve_catalogs(args.catalog))
    doc = _load_config(args.config, "sweep")
    # A fault of the shared setting is a model error, not a config error.
    points, errors = sweep(**_arguments(sweep, doc, "sweep", grid=_read_grid, **readers))
    for name, reason in errors:
        print(f"skipped {name}: {reason}", file=sys.stderr)
    text = _format_sweep_csv(points)
    _emit(text, args.out)
    nondominated = sum(1 for p in points if not p.dominated)
    print(f"{len(points)} points, {nondominated} nondominated", file=sys.stderr)
    if errors:
        return EXIT_MODEL_ERROR
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validation import GROUPS, run_validation

    if args.only is not None and args.only not in GROUPS:
        raise ConfigError(f"--only: unknown validation group {args.only!r}; "
                          f"choose from {', '.join(sorted(GROUPS))}")
    rows = run_validation(only=args.only)
    name_w = max(len(f"{r.group}/{r.name}") for r in rows)
    print(f"{'fixture':<{name_w}}  {'predicted':>12} {'expected':>12} "
          f"{'delta':>10} {'tolerance':>10}  result")
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"{r.group + '/' + r.name:<{name_w}}  {r.predicted:>12.4f} "
              f"{r.expected:>12.4f} {r.delta:>+10.4f} {r.tolerance:>10.4f}  {status}")
    print(f"{len(rows) - failures}/{len(rows)} fixtures passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION_FAILED


def _cmd_catalog(args) -> int:
    units_by_name, centers_by_name = resolve_catalogs(args.catalog)
    print("hardware units:")
    for name in sorted(units_by_name):
        u = units_by_name[name]
        bits = [u.role.value]
        if u.peak_tflops:
            bits.append(f"{u.peak_tflops:g} TFLOP/s")
        if u.tdp_watts:
            bits.append(f"{u.tdp_watts:g} W TDP")
        bits.append(f"embodied basis: {u.embodied_basis}")
        print(f"  {name:<12} {', '.join(bits)}")
    print("data centers:")
    for name in sorted(centers_by_name):
        c = centers_by_name[name]
        print(f"  {name:<16} PUE {c.pue:g}, {c.carbon_intensity:g} kgCO2eq/kWh")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carboncast",
        description="Project the carbon footprint of dense and MoE LLMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, run, text in (("estimate", _cmd_estimate, "project one phase"),
                            ("lifecycle", _cmd_lifecycle, "project a whole lifecycle"),
                            ("sweep", _cmd_sweep,
                             "evaluate a design grid with Pareto flags (CSV)")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--catalog", action="append", default=[],
                       help="extra catalog CSV (repeatable, later wins)")
        if name != "sweep":
            p.add_argument("--format", choices=["table", "csv"], default="table")
        p.add_argument("--out", default=None, help="write output to a file")
    p_val = sub.add_parser("validate", help="run the embedded validation fixtures")
    p_val.set_defaults(run=_cmd_validate)
    p_val.add_argument("--only", default=None,
                       help="run one fixture group (parameters, training, days, "
                            "embodied, storage, inference, efficiency)")
    p_cat = sub.add_parser("catalog", help="list known hardware and data centers")
    p_cat.set_defaults(run=_cmd_catalog)
    p_cat.add_argument("action", choices=["list"])
    p_cat.add_argument("--catalog", action="append", default=[])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR


if __name__ == "__main__":
    sys.exit(main())
