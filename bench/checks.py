"""Output checks. Every failed check counts against ``failed_ratio``.

The Pareto oracles are written here, independently of ``carboncast.sweep``:
``pareto_flags`` is the O(n log n) sort-and-scan used on every sweep, and
``brute_force_flags`` is the O(n^2) definition it is tested against.
"""

from __future__ import annotations

import csv
import io
import math

import carboncast as cc

REPORT_FIELDS = ("duration_seconds", "hardware_energy_mwh", "operational_energy_mwh",
                 "operational_tco2", "embodied_tco2", "total_tco2", "hardware_efficiency")


def report_problems(report) -> list[str]:
    """Why a ``CarbonReport`` is not finite, non-negative and additive."""
    problems = []
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        if not math.isfinite(value) or value < 0:
            problems.append(f"{name}={value!r}")
    if report.test_loss is not None and not (math.isfinite(report.test_loss) and report.test_loss > 0):
        problems.append(f"test_loss={report.test_loss!r}")
    if report.total_tco2 != report.operational_tco2 + report.embodied_tco2:
        problems.append("total_tco2 != operational_tco2 + embodied_tco2")
    return problems


def _dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def brute_force_flags(values: list[tuple[float, float]]) -> list[bool]:
    """Dominated flag per (loss, carbon) pair, straight from the definition."""
    return [any(_dominates(o, v) for j, o in enumerate(values) if j != i)
            for i, v in enumerate(values)]


def pareto_flags(values: list[tuple[float, float]]) -> list[bool]:
    """Dominated flag per (loss, carbon) pair in O(n log n).

    Sort by loss, then walk groups of equal loss. A point is dominated when a
    point of strictly smaller loss has carbon no higher, or a point of equal
    loss has strictly lower carbon. Equal pairs do not dominate each other.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    flags = [False] * len(values)
    best_before = math.inf  # lowest carbon among strictly smaller losses
    i = 0
    while i < len(order):
        j = i
        loss = values[order[i]][0]
        while j < len(order) and values[order[j]][0] == loss:
            j += 1
        group_min = values[order[i]][1]  # sorted by carbon within the group
        for k in order[i:j]:
            carbon = values[k][1]
            flags[k] = best_before <= carbon or group_min < carbon
        best_before = min(best_before, group_min)
        i = j
    return flags


def sweep_problems(points, errors, grid, bad_names: set[str], brute: bool = False) -> list[str]:
    """Check one ``sweep`` result against the grid it was given.

    Every broken point must come back as an error row and every other point
    as a result; the dominance flags must match the oracle (and, when
    ``brute`` is set, the O(n^2) definition too); reports must be finite.
    """
    problems = []
    error_names = {name for name, _ in errors}
    if error_names != bad_names:
        problems.append(f"error rows {sorted(error_names ^ bad_names)[:5]} differ from broken points")
    point_names = {p.name for p in points}
    want = {arch.name for arch, _ in grid} - bad_names
    if point_names != want or len(points) != len(want):
        problems.append("result points differ from the valid grid points")
    values = [(p.test_loss, p.training_tco2) for p in points]
    if not all(math.isfinite(x) and x >= 0 for v in values for x in v):
        problems.append("non-finite or negative loss or carbon")
    flags = [p.dominated for p in points]
    if flags != pareto_flags(values):
        problems.append("dominance flags differ from the O(n log n) oracle")
    if brute and flags != brute_force_flags(values):
        problems.append("dominance flags differ from the O(n^2) oracle")
    return problems


def _close(cell: str, value: float) -> bool:
    """True when a 6-decimal CSV cell is the rounding of ``value``."""
    return abs(float(cell) - value) <= 5e-7 * max(1.0, abs(value)) + 1e-9


def report_csv_problems(text: str, report) -> list[str]:
    """Compare ``--format csv`` output of a report with the in-process report."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return [f"expected one CSV row, got {len(rows)}"]
    row = rows[0]
    want = {
        "duration_days": report.duration_seconds / 86400.0,
        "hardware_energy_mwh": report.hardware_energy_mwh,
        "operational_energy_mwh": report.operational_energy_mwh,
        "operational_tco2": report.operational_tco2,
        "embodied_tco2": report.embodied_tco2,
        "total_tco2": report.total_tco2,
        "hardware_efficiency": report.hardware_efficiency,
    }
    if report.test_loss is not None:
        want["test_loss"] = report.test_loss
    problems = [f"{k}: cli {row.get(k)!r} vs in-process {v!r}"
                for k, v in want.items() if row.get(k) is None or not _close(row[k], v)]
    if row.get("phase") != report.phase.value:
        problems.append(f"phase: {row.get('phase')!r}")
    return problems


def sweep_csv_problems(text: str, points) -> list[str]:
    """Compare ``carboncast sweep`` CSV output with the in-process sweep."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [r["name"] for r in rows] != [p.name for p in points]:
        return ["sweep rows differ in names or order from the in-process sweep"]
    values = [(p.test_loss, p.training_tco2) for p in points]
    oracle = pareto_flags(values)
    for r, p, dominated in zip(rows, points, oracle):
        if (int(r["params"]) != p.param_count or not _close(r["test_loss"], p.test_loss)
                or not _close(r["training_tco2"], p.training_tco2)
                or (r["dominated"] == "yes") != dominated):
            return [f"sweep row {p.name} differs from the in-process sweep or the oracle"]
    return []


def request_from_config(doc: dict, catalogs) -> cc.EstimateRequest:
    """The in-process request an example config's request block describes.

    Covers the keys the packaged examples use; anything else raises.
    """
    units, centers = catalogs
    arch_doc = dict(doc["architecture"])
    arch = cc.LlmArchitecture(kind=cc.ArchKind(arch_doc.pop("kind")), **arch_doc)
    fleet = cc.HardwareFleet.of(*((units[e["unit"]], e["count"]) for e in doc["fleet"]))
    dc = doc["data_center"]
    dc = centers[dc] if isinstance(dc, str) else cc.DataCenterProfile(**dc)
    return cc.EstimateRequest(arch=arch, tokens=float(doc["tokens"]), fleet=fleet, data_center=dc,
                              phase=cc.Phase(doc.get("phase", "training")),
                              overrides=cc.Overrides(**(doc.get("overrides") or {})))


def lifecycle_from_config(doc: dict, catalogs) -> cc.LifecyclePlan:
    storage = doc.get("storage")
    return cc.LifecyclePlan(training=request_from_config(doc["training"], catalogs),
                            inference_share=doc.get("inference_share", 0.0),
                            experimentation_share=doc.get("experimentation_share", 0.0),
                            storage=cc.StorageWorkload(**storage) if storage else None)
