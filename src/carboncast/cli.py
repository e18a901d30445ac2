"""Command-line interface.

Subcommands: estimate, lifecycle, sweep, validate, catalog. Configs are YAML
documents with a ``schema: 1`` version tag, nested at most ``MAX_NESTING``
levels deep, that give no mapping key twice; unknown keys are rejected with
their full path so typos surface immediately. Exit codes: 0 success, 1
validation failures, 2 config errors, 3 model errors.

Each config section is read by the typed reader in :mod:`carboncast.catalog`,
the one that reads catalog rows, so a section's keys are its record type's
fields and a fault names its key path.

Only the commands that read a config (estimate, lifecycle, sweep) import
PyYAML, and only validate loads the validation fixtures; a cold start pays
for nothing its command does not use.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path

from . import units
from .catalog import _arguments, _check_keys, _coerce, _read, resolve_catalogs
from .pipeline import EstimateRequest, LifecyclePlan, estimate, estimate_lifecycle, sweep
from .types import (
    CarbonReport,
    CatalogError,
    ConfigError,
    DataCenterProfile,
    FleetEntry,
    HardwareFleet,
    LlmArchitecture,
    ModelError,
    shown,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_MODEL_ERROR = 3


# --------------------------------------------------------------------------
# Config parsing: catalog lookups, the sweep grid and the top level. Sections
# are read by the typed reader in ``catalog``.
# --------------------------------------------------------------------------

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


# Real configs nest 4 to 7 levels. The composer recurses in Python, about
# four frames a level, so this keeps a document far from the recursion limit.
MAX_NESTING = 64


@functools.cache
def _loader(base: type) -> type:
    """PyYAML's loader ``base`` on PyYAML's Python composer, refusing a document nested
    deeper than ``MAX_NESTING`` or a mapping that gives a key twice; one class per base."""
    import yaml

    class Bounded(yaml.composer.Composer):
        def get_single_node(self):
            self.anchors, self.depth = {}, 0  # CSafeLoader never runs Composer.__init__
            return super().get_single_node()

        def compose_sequence_node(self, anchor):
            return self.nested(super().compose_sequence_node, anchor)

        def compose_mapping_node(self, anchor):
            node = self.nested(super().compose_mapping_node, anchor)
            lines = {}  # (tag, text) -> the line of the key's first spelling
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode):
                    if (spelling := (key.tag, key.value)) in lines:
                        raise ConfigError(f"key {shown(key.value)} given twice (lines "
                                          f"{lines[spelling]} and {key.start_mark.line + 1})")
                    lines[spelling] = key.start_mark.line + 1
            return node

        def nested(self, compose, anchor):
            if self.depth == MAX_NESTING:
                raise ConfigError(f"nested deeper than {MAX_NESTING} levels")
            self.depth += 1
            node = compose(anchor)
            self.depth -= 1
            return node

    return type("Loader", (Bounded, base), {"__init__": base.__init__})


def _load_config(path: str, top_key: str) -> dict:
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:  # libyaml's parser when PyYAML was built with it
        doc = yaml.load(text, Loader=_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(doc, {"schema", top_key}, path)
    version = doc.get("schema")
    if type(version) is not int or version != SCHEMA_VERSION:  # YAML true and 1.0 are no 1
        raise ConfigError(f"{path}.schema: expected {SCHEMA_VERSION}, got {shown(version)}")
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

def _cmd_report(args) -> int:
    # Looked up per call, so a caller that rebinds a pricing function (the
    # benchmark's layer tracer) sees its own.
    record, price = {"estimate": (EstimateRequest, estimate),
                     "lifecycle": (LifecyclePlan, estimate_lifecycle)}[args.command]
    readers = _catalog_readers(resolve_catalogs(args.catalog))
    report = price(_read(record, _load_config(args.config, args.command), args.command,
                         **readers))
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
    from .validation import run_validation

    try:
        rows = run_validation(only=args.only)
    except ConfigError as exc:  # an unknown group, which --only gave
        raise ConfigError(f"--only: {exc}") from None
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

    for name, run, text in (("estimate", _cmd_report, "project one phase"),
                            ("lifecycle", _cmd_report, "project a whole lifecycle"),
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
