"""CSV catalogs of hardware units, data centers and efficiency anchors, and
the typed reader of config sections and catalog rows.

Catalog files are plain UTF-8 CSV with a header row, '.' decimals and no
thousands separators. The packaged defaults in ``carboncast/data`` cover the
commonly published accelerators and Google Cloud regions; user catalogs can
extend or shadow them (later wins, by name), each file giving a name once.

Every loader reads a text stream through one row reader: it checks the
header's stripped cells, skips blank rows and names the row of any fault.
A row is a mapping from column to stripped cell, blank cells left out, so a
blank cell means "absent". Hardware and data-center rows are read by
:func:`_arguments`, as the CLI reads each YAML section: an absent cell takes
the record field's default, and a fault names the entry and field as a config
fault names its key path. :func:`resolve_catalogs` tells a user file's table
by the header's cells.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import math
import os
import types
import typing
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .types import (CatalogError, ConfigError, DataCenterProfile, HardwareRole, HardwareUnit,
                    ModelError, Record, shown)

HARDWARE_FIELDS = [
    "name", "role", "peak_tflops", "tdp_watts", "avg_system_power_watts",
    "die_area_mm2", "cpa", "cpa_basis", "capacity_gb",
    "embodied_kg_override", "lifetime_years",
]
DATACENTER_FIELDS = ["name", "pue", "carbon_intensity_kg_per_kwh"]
ANCHOR_FIELDS = ["param_count", "efficiency"]

CATALOG_DIR_ENV = "CARBONCAST_CATALOG_DIR"


# --------------------------------------------------------------------------
# The typed reader. Each config section or catalog row builds one record
# (a :class:`~carboncast.types.Record`), or the arguments of one function
# (``sweep``): its keys are the fields or parameters and each value is
# coerced through the annotated type, so the record types and ``sweep()``
# stay the one place that names keys and defaults. Targets are named by
# ``__name__``, so this module need not import the pipeline.
# --------------------------------------------------------------------------

# Config keys whose name differs from the field they fill.
_CONFIG_KEYS = {("EstimateRequest", "arch"): "architecture"}
# Fields only library callers set.
_NOT_CONFIG = {("EstimateRequest", "anchors"), ("sweep", "anchors")}


def _check_keys(mapping: dict, allowed, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = min(unknown, key=str)  # YAML keys can mix types, which do not order
        raise ConfigError(f"{path}.{key}: unknown key")


def _num(tp: type, value, path: str):
    """A finite float, or a whole int when ``tp`` is int; numeric strings count."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected a number, got {shown(value)}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {shown(value)}") from None
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {shown(value)}")
    if tp is int:
        if not number.is_integer():
            raise ConfigError(f"{path}: expected a whole number, got {shown(value)}")
        return int(number)
    return number


def _coerce(tp, value, path: str):
    """Convert one config value to the annotated field type ``tp``."""
    if typing.get_origin(tp) is types.UnionType:  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        items = [] if value is None else value
        if not isinstance(items, list):
            raise ConfigError(f"{path}: expected a list")
        return tuple(_coerce(typing.get_args(tp)[0], v, f"{path}[{i}]")
                     for i, v in enumerate(items))
    if isinstance(tp, type) and issubclass(tp, Record):
        return _read(tp, {} if value is None else value, path)  # `overrides:` left empty
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            valid = ", ".join(m.value for m in tp)
            raise ConfigError(f"{path}: must be one of {valid}") from None
    if tp is str:  # a name; YAML reads an unquoted 123, null or .nan as no string
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {shown(value)}")
        return value
    return _num(tp, value, path)


@functools.cache
def _config_fields(target) -> dict[str, tuple[str, object, bool]]:
    """Config key -> (field or parameter name, resolved annotation, whether
    it has a default) of a config record type or function; resolving hints
    is slow."""
    if isinstance(target, type) and issubclass(target, Record):
        defaulted = [(name, name in target._defaults) for name in target._fields]
    else:
        # A function's own parameters, read from its code object after
        # following ``__wrapped__`` through any wrapper, as
        # ``inspect.signature`` does; importing ``inspect`` is slow.
        while hasattr(target, "__wrapped__"):
            target = target.__wrapped__
        code, kwdefaults = target.__code__, target.__kwdefaults__ or {}
        count = code.co_argcount
        first_default = count - len(target.__defaults__ or ())
        defaulted = [(name, first_default <= i if i < count else name in kwdefaults)
                     for i, name in enumerate(code.co_varnames[:count + code.co_kwonlyargcount])]
    hints = typing.get_type_hints(target)
    owner = target.__name__
    return {_CONFIG_KEYS.get((owner, name), name): (name, hints[name], has_default)
            for name, has_default in defaulted if (owner, name) not in _NOT_CONFIG}


def _arguments(target, doc, path: str, **special) -> dict:
    """The arguments of config record type or function ``target`` from mapping
    ``doc`` found at ``path``.

    ``special`` maps a config key to a ``reader(value, path)`` that replaces
    the type-driven coercion, for values that are catalog lookups or lists,
    and for a catalog row's role, which is read in any case.
    """
    fields = _config_fields(target)
    _check_keys(doc, fields, path)
    kwargs = {}
    for key, (name, tp, has_default) in fields.items():
        kpath = f"{path}.{key}" if path else key
        if key in doc:
            reader = special.get(key)
            kwargs[name] = reader(doc[key], kpath) if reader else _coerce(tp, doc[key], kpath)
        elif not has_default:
            raise ConfigError(f"{kpath}: required")
    return kwargs


def _read(cls, doc, path: str, **special):
    """Build config record type ``cls`` from mapping ``doc`` found at ``path``;
    see :func:`_arguments`."""
    kwargs = _arguments(cls, doc, path, **special)
    try:
        return cls(**kwargs)
    except (CatalogError, ModelError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# Catalog tables.
# --------------------------------------------------------------------------

def _table(fh: TextIO, fields: list[str], label: str,
           build: Callable[[dict[str, str]], object]) -> list:
    """The rows of the catalog table in ``fh``, each made by ``build``.

    An empty stream is an empty table. Otherwise the header's stripped cells
    must be ``fields``; blank rows are skipped, and ``build`` gets each
    other row as a mapping from column to stripped cell, blank cells left
    out. A row with fewer cells than the header, a non-blank cell beyond it,
    a row that ``build`` rejects, or a row whose ``name`` an earlier row of
    the table gives raises CatalogError as ``<label> row N: <fault>``.
    """
    rows = csv.reader(fh)
    header = next(rows, None)
    if header is None:
        return []
    if [c.strip() for c in header] != fields:
        raise CatalogError(f"{label}: bad header {header!r}, expected {fields!r}")
    out = []
    row_of = {}  # name -> the row that gives it
    for lineno, row in enumerate(rows, start=2):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        try:
            if len(cells) < len(fields) or any(cells[len(fields):]):
                raise ValueError(f"{len(cells)} cells, expected {len(fields)}")
            by_column = {f: c for f, c in zip(fields, cells) if c}
            name = by_column.get("name")
            out.append(build(by_column))
            if name is not None:
                if name in row_of:
                    # Later wins across files; within one, a repeat is a slip.
                    raise ValueError(f"repeats the name {name!r} of row {row_of[name]}")
                row_of[name] = lineno
        except ValueError as exc:
            raise CatalogError(f"{label} row {lineno}: {exc}") from exc
    return out


def _hardware(cells: dict[str, str]) -> HardwareUnit:
    return HardwareUnit(**_arguments(
        HardwareUnit, cells, cells.get("name", ""),
        role=lambda value, path: _coerce(HardwareRole, value.lower(), path)))


def _datacenter(cells: dict[str, str]) -> DataCenterProfile:
    if "carbon_intensity_kg_per_kwh" in cells:  # the column names its unit
        cells["carbon_intensity"] = cells.pop("carbon_intensity_kg_per_kwh")
    return DataCenterProfile(**_arguments(DataCenterProfile, cells, cells.get("name", "")))


def load_hardware(fh: TextIO) -> list[HardwareUnit]:
    """Parse a hardware catalog. Raises CatalogError with the row number."""
    return _table(fh, HARDWARE_FIELDS, "hardware catalog", _hardware)


def load_datacenters(fh: TextIO) -> list[DataCenterProfile]:
    """Parse a data-center catalog (carbon intensity in kg/kWh)."""
    return _table(fh, DATACENTER_FIELDS, "data-center catalog", _datacenter)


def load_anchors(fh: TextIO) -> list[tuple[float, float]]:
    """Parse an efficiency anchor table: param_count,efficiency pairs."""
    return _table(fh, ANCHOR_FIELDS, "anchor table",
                  lambda cells: tuple(_num(float, cells.get(f, ""), f) for f in ANCHOR_FIELDS))


@functools.cache
def _packaged(name: str, loader) -> tuple:
    """A packaged table, parsed once per process. Callers copy it into a
    fresh list, so no caller can change what the next one gets."""
    text = resources.files("carboncast.data").joinpath(name).read_text(encoding="utf-8")
    return tuple(loader(io.StringIO(text)))


def default_hardware() -> list[HardwareUnit]:
    return list(_packaged("hardware.csv", load_hardware))


def default_datacenters() -> list[DataCenterProfile]:
    return list(_packaged("datacenters.csv", load_datacenters))


def default_anchors() -> list[tuple[float, float]]:
    return list(_packaged("efficiency_anchors.csv", load_anchors))


def resolve_catalogs(extra_paths: Iterable[str | Path] = ()) -> tuple[
    dict[str, HardwareUnit], dict[str, DataCenterProfile]
]:
    """Build name-indexed catalogs: packaged defaults, then the directory
    named by $CARBONCAST_CATALOG_DIR (hardware.csv / datacenters.csv), then
    any explicit extra paths. Later sources win on name collisions. A file
    that cannot be read as UTF-8 text, or whose header or rows are at fault,
    raises CatalogError naming its path.
    """
    units = {u.name: u for u in default_hardware()}
    centers = {p.name: p for p in default_datacenters()}

    env_dir = os.environ.get(CATALOG_DIR_ENV)
    paths: list[Path] = []
    if env_dir:
        for fname in ("hardware.csv", "datacenters.csv"):
            candidate = Path(env_dir) / fname
            if candidate.exists():
                paths.append(candidate)
    paths.extend(Path(p) for p in extra_paths)

    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CatalogError(f"{path}: cannot read catalog: {exc}") from None
        # The same stripped header cells that the loaders check.
        header = [c.strip() for c in next(csv.reader(io.StringIO(text)), [])]
        try:
            if header == HARDWARE_FIELDS:
                units.update((u.name, u) for u in load_hardware(io.StringIO(text)))
            elif header == DATACENTER_FIELDS:
                centers.update((p.name, p) for p in load_datacenters(io.StringIO(text)))
            else:
                raise CatalogError("header matches no known catalog schema")
        except CatalogError as exc:
            raise CatalogError(f"{path}: {exc}") from None
    return units, centers
