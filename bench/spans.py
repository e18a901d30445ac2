"""Layer tracing from outside the package, for the traced benchmark run only.

``Tracer.install`` replaces each layer's public functions with a timing
wrapper under every name a caller looks them up by: the defining module
(``params.count_params``), every carboncast module that imported the name
(``pipeline.count_params``, ``validation.count_params``) and the package
root. Nothing under ``src/`` changes. Spans are kept in memory as flat
arrays (name, parent, start, end) and written out once, at the end.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter_ns

# Layer name -> (module, function) pairs whose calls are attributed to it.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "catalog.resolve_catalogs": (("carboncast.catalog", "resolve_catalogs"),),
    "catalog.default_anchors": (("carboncast.catalog", "default_anchors"),),
    "params.count_params": (("carboncast.params", "count_params"),),
    "scaling.test_loss": (("carboncast.scaling", "test_loss"),),
    "flops": (("carboncast.flops", "training_flops"), ("carboncast.flops", "inference_flops")),
    "efficiency.plan_parallelism": (("carboncast.efficiency", "plan_parallelism"),),
    "efficiency.optimal_efficiency": (("carboncast.efficiency", "optimal_efficiency"),),
    "efficiency.efficiency_at_count": (("carboncast.efficiency", "efficiency_at_count"),),
    "operational": tuple(("carboncast.operational", f) for f in (
        "device_time", "hardware_energy", "operational_carbon", "storage_energy")),
    "embodied.fleet_embodied": (("carboncast.embodied", "fleet_embodied"),),
    "pipeline.estimate": (("carboncast.pipeline", "estimate"),),
    "pipeline.estimate_lifecycle": (("carboncast.pipeline", "estimate_lifecycle"),),
    "pipeline.sweep": (("carboncast.pipeline", "sweep"),),
    "validation.run_validation": (("carboncast.validation", "run_validation"),),
    "cli.main": (("carboncast.cli", "main"),),
    "yaml.safe_load": (("yaml", "safe_load"),),
}

ROOT = "op"  # span the benchmark opens around each timed operation


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, layers=LAYERS):
        """Wrap every layer function whose module is already imported.

        Returns a function that puts the original functions back.
        """
        patched: list[tuple[object, str, object]] = []
        for layer, targets in layers.items():
            for module_name, attr in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(layer, original)
                holders = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "carboncast" or n.startswith("carboncast."))]
                for holder in {id(m): m for m in holders + [module]}.values():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            patched.append((holder, name, original))

        def restore() -> None:
            for holder, name, original in reversed(patched):
                setattr(holder, name, original)
        return restore

    @contextlib.contextmanager
    def active(self):
        """Wrap the layer functions for the duration of a ``with`` block."""
        restore = self.install()
        try:
            yield self
        finally:
            restore()

    def records(self) -> list[tuple[str, int, int, int]]:
        """Spans as (name, parent index, start ns, end ns)."""
        return [(self.names[n], p, s, e)
                for n, p, s, e in zip(self.name_id, self.parent, self.start, self.end)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)


def load(path) -> list[tuple[str, int, int, int]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [(names[n], p, s, e)
            for n, p, s, e in zip(doc["name_id"], doc["parent"], doc["start"], doc["end"])]


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Self time of each span: its duration minus the union of its children,
    clipped to its own interval."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, parent, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[int, int]]:
    """Per span name: (number of spans, total self time in ns)."""
    totals: dict[str, list[int]] = {}
    for (name, *_), self_ns in zip(spans, self_times(spans)):
        t = totals.setdefault(name, [0, 0])
        t[0] += 1
        t[1] += self_ns
    return {k: (c, s) for k, (c, s) in totals.items()}


IMPORT_MODULES = {"numpy": "numpy", "yaml": "yaml", "carboncast": "carboncast.cli"}


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of numpy, yaml and carboncast.cli, from
    the ``-X importtime`` lines of one interpreter."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        for key, want in IMPORT_MODULES.items():
            if module == want and parts[1].strip().isdigit():
                found[key] = int(parts[1]) / 1000.0
    return found

