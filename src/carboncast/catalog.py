"""CSV catalogs of hardware units, data centers and efficiency anchors.

Catalog files are plain UTF-8 CSV with a header row, '.' decimals and no
thousands separators. A blank cell means "absent". The packaged defaults in
``carboncast/data`` cover the commonly published accelerators and Google
Cloud regions; user catalogs can extend or shadow them (later wins, by name).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from importlib import resources
from pathlib import Path
from typing import Iterable, TextIO

from .types import CatalogError, DataCenterProfile, HardwareRole, HardwareUnit

HARDWARE_FIELDS = [
    "name", "role", "peak_tflops", "tdp_watts", "avg_system_power_watts",
    "die_area_mm2", "cpa", "cpa_basis", "capacity_gb",
    "embodied_kg_override", "lifetime_years",
]
DATACENTER_FIELDS = ["name", "pue", "carbon_intensity_kg_per_kwh", "cfe"]
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


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _check_header(got: list[str] | None, want: list[str], label: str) -> None:
    if got is None:
        raise CatalogError(f"{label}: empty file has no header")
    if [c.strip() for c in got] != want:
        raise CatalogError(f"{label}: bad header {got!r}, expected {want!r}")


def load_hardware(source: TextIO | str | Path) -> list[HardwareUnit]:
    """Parse a hardware catalog. Raises CatalogError with the row number."""
    with _open(source) as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        return []
    _check_header(rows[0], HARDWARE_FIELDS, "hardware catalog")
    units = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        try:
            cells = dict(zip(HARDWARE_FIELDS, row))
            name = cells["name"].strip()

            def num(key: str) -> float | None:
                return _opt_float(cells.get(key), f"{name}: {key}")

            lifetime = num("lifetime_years")
            units.append(HardwareUnit(
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
            ))
        except (ValueError, KeyError) as exc:
            raise CatalogError(f"hardware catalog row {lineno}: {exc}") from exc
    return units


def load_datacenters(source: TextIO | str | Path) -> list[DataCenterProfile]:
    """Parse a data-center catalog (carbon intensity in kg/kWh)."""
    with _open(source) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    _check_header(rows[0], DATACENTER_FIELDS, "data-center catalog")
    profiles = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        try:
            cells = dict(zip(DATACENTER_FIELDS, row))
            name = cells["name"].strip()
            profiles.append(DataCenterProfile(
                name=name,
                pue=_float(cells["pue"], f"{name}: pue"),
                carbon_intensity=_float(cells["carbon_intensity_kg_per_kwh"],
                                        f"{name}: carbon_intensity_kg_per_kwh"),
                cfe=_opt_float(cells.get("cfe"), f"{name}: cfe") or 0.0,
            ))
        except (ValueError, KeyError) as exc:
            raise CatalogError(f"data-center catalog row {lineno}: {exc}") from exc
    return profiles


def load_anchors(source: TextIO | str | Path) -> list[tuple[float, float]]:
    """Parse an efficiency anchor table: param_count,efficiency pairs."""
    with _open(source) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    _check_header(rows[0], ANCHOR_FIELDS, "anchor table")
    anchors = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        try:
            anchors.append((_float(row[0], "param_count"), _float(row[1], "efficiency")))
        except (ValueError, IndexError) as exc:
            raise CatalogError(f"anchor table row {lineno}: {exc}") from exc
    return anchors


def dump_hardware(units: Iterable[HardwareUnit]) -> str:
    """Serialize units so that load(dump(x)) round-trips field-for-field."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HARDWARE_FIELDS)
    for u in units:
        writer.writerow([
            u.name, u.role.value, _fmt(u.peak_tflops), _fmt(u.tdp_watts),
            _fmt(u.avg_system_power_watts), _fmt(u.die_area_mm2), _fmt(u.cpa),
            u.cpa_basis or "", _fmt(u.capacity_gb), _fmt(u.embodied_kg_override),
            _fmt(u.lifetime_years),
        ])
    return out.getvalue()


def dump_datacenters(profiles: Iterable[DataCenterProfile]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DATACENTER_FIELDS)
    for p in profiles:
        writer.writerow([p.name, _fmt(p.pue), _fmt(p.carbon_intensity), _fmt(p.cfe)])
    return out.getvalue()


def _open(source: TextIO | str | Path):
    if hasattr(source, "read"):
        return _NonClosing(source)  # type: ignore[arg-type]
    return open(source, "r", encoding="utf-8", newline="")


class _NonClosing:
    """Context wrapper that leaves caller-owned file objects open."""

    def __init__(self, fh: TextIO) -> None:
        self._fh = fh

    def __enter__(self) -> TextIO:
        return self._fh

    def __exit__(self, *exc) -> None:
        return None


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
    any explicit extra paths. Later sources win on name collisions.
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
        text = path.read_text(encoding="utf-8")
        header = text.splitlines()[0].strip() if text.strip() else ""
        if header == ",".join(HARDWARE_FIELDS):
            for u in load_hardware(io.StringIO(text)):
                units[u.name] = u
        elif header == ",".join(DATACENTER_FIELDS):
            for p in load_datacenters(io.StringIO(text)):
                centers[p.name] = p
        else:
            raise CatalogError(f"{path}: header matches no known catalog schema")
    return units, centers
