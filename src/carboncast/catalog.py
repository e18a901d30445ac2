"""CSV catalogs of hardware units, data centers and efficiency anchors.

Catalog files are plain UTF-8 CSV with a header row, '.' decimals and no
thousands separators. A blank cell means "absent". The packaged defaults in
``carboncast/data`` cover the commonly published accelerators and Google
Cloud regions; user catalogs can extend or shadow them (later wins, by name).

Every loader reads a text stream through one row reader: it checks the
header's stripped cells, skips blank rows and names the row of any fault.
:func:`resolve_catalogs` tells a user file's table by those same cells.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .types import CatalogError, DataCenterProfile, HardwareRole, HardwareUnit

HARDWARE_FIELDS = [
    "name", "role", "peak_tflops", "tdp_watts", "avg_system_power_watts",
    "die_area_mm2", "cpa", "cpa_basis", "capacity_gb",
    "embodied_kg_override", "lifetime_years",
]
DATACENTER_FIELDS = ["name", "pue", "carbon_intensity_kg_per_kwh"]
ANCHOR_FIELDS = ["param_count", "efficiency"]

CATALOG_DIR_ENV = "CARBONCAST_CATALOG_DIR"


def _float(cell: str, label: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {cell.strip()!r}")
    return value


def _opt_float(cell: str | None, label: str) -> float | None:
    if cell is None or cell.strip() == "":
        return None
    return _float(cell, label)


def _table(fh: TextIO, fields: list[str], label: str, build: Callable[[list[str]], object]) -> list:
    """The rows of the catalog table in ``fh``, each made by ``build``.

    An empty stream is an empty table. Otherwise the header's stripped cells
    must be ``fields``; blank rows are skipped, and a row whose cells
    ``build`` rejects raises CatalogError as ``<label> row N: <fault>``.
    """
    rows = csv.reader(fh)
    header = next(rows, None)
    if header is None:
        return []
    if [c.strip() for c in header] != fields:
        raise CatalogError(f"{label}: bad header {header!r}, expected {fields!r}")
    out = []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        try:
            out.append(build(row))
        except (ValueError, KeyError, IndexError) as exc:
            raise CatalogError(f"{label} row {lineno}: {exc}") from exc
    return out


def _hardware_row(row: list[str]) -> HardwareUnit:
    cells = dict(zip(HARDWARE_FIELDS, row))
    name = cells["name"].strip()

    def num(key: str) -> float | None:
        return _opt_float(cells.get(key), f"{name}: {key}")

    lifetime = num("lifetime_years")
    return HardwareUnit(
        name=name,
        role=HardwareRole(cells["role"].strip().lower()),
        peak_tflops=num("peak_tflops"),
        tdp_watts=num("tdp_watts"),
        avg_system_power_watts=num("avg_system_power_watts"),
        die_area_mm2=num("die_area_mm2"),
        cpa=num("cpa"),
        cpa_basis=(cells.get("cpa_basis") or "").strip() or None,
        capacity_gb=num("capacity_gb"),
        embodied_kg_override=num("embodied_kg_override"),
        lifetime_years=5.0 if lifetime is None else lifetime,
    )


def _datacenter_row(row: list[str]) -> DataCenterProfile:
    cells = dict(zip(DATACENTER_FIELDS, row))
    name = cells["name"].strip()
    return DataCenterProfile(
        name=name,
        pue=_float(cells["pue"], f"{name}: pue"),
        carbon_intensity=_float(cells["carbon_intensity_kg_per_kwh"],
                                f"{name}: carbon_intensity_kg_per_kwh"),
    )


def load_hardware(fh: TextIO) -> list[HardwareUnit]:
    """Parse a hardware catalog. Raises CatalogError with the row number."""
    return _table(fh, HARDWARE_FIELDS, "hardware catalog", _hardware_row)


def load_datacenters(fh: TextIO) -> list[DataCenterProfile]:
    """Parse a data-center catalog (carbon intensity in kg/kWh)."""
    return _table(fh, DATACENTER_FIELDS, "data-center catalog", _datacenter_row)


def load_anchors(fh: TextIO) -> list[tuple[float, float]]:
    """Parse an efficiency anchor table: param_count,efficiency pairs."""
    return _table(fh, ANCHOR_FIELDS, "anchor table",
                  lambda row: (_float(row[0], "param_count"), _float(row[1], "efficiency")))


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
    that cannot be read as UTF-8 text raises CatalogError naming its path.
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
        if header == HARDWARE_FIELDS:
            units.update((u.name, u) for u in load_hardware(io.StringIO(text)))
        elif header == DATACENTER_FIELDS:
            centers.update((p.name, p) for p in load_datacenters(io.StringIO(text)))
        else:
            raise CatalogError(f"{path}: header matches no known catalog schema")
    return units, centers
