"""carboncast: carbon footprint projection for dense and MoE LLMs.

From an architecture description, a hardware fleet and a data-center
profile, project parameter count, test loss, FLOPs, a parallelism plan,
hardware efficiency, energy, and operational plus embodied carbon.

``import carboncast`` loads the record types and errors of
:mod:`carboncast.types`. Every other submodule loads on the first use of one
of its names: ``carboncast.estimate`` imports :mod:`carboncast.pipeline`, and
``carboncast.catalog`` the catalog. So a program that only reads the catalog
does not load the model chain.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "types": ("ArchKind", "CarbonReport", "CatalogError", "DataCenterProfile", "ExpertGroup",
              "FleetEntry", "HardwareFleet", "HardwareRole", "HardwareUnit", "LineItem",
              "LlmArchitecture", "ModelError", "ParallelismPlan", "Phase", "ScalingConstants"),
    "params": ("ParameterCount", "ParameterEquation", "count_params"),
    "scaling": ("LossPrediction", "test_loss"),
    "flops": ("FlopBudget", "inference_flops", "training_flops"),
    "efficiency": ("efficiency_at_count", "optimal_efficiency", "plan_parallelism"),
    "operational": ("StorageWorkload", "device_time", "hardware_energy", "operational_carbon",
                    "storage_energy"),
    "embodied": ("chip_embodied", "fleet_embodied"),
    "pipeline": ("EstimateRequest", "LifecyclePlan", "Overrides", "SweepPoint", "estimate",
                 "estimate_lifecycle", "sweep"),
    "validation": ("ValidationRow", "run_validation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("catalog", "units", *_EXPORTS))

__all__ = sorted(_MODULE_OF)


class _Package(ModuleType):
    """The package module, which binds a submodule's public names when the
    import system sets the submodule on it, right after the submodule has run.

    Bound then, and not at their first lookup, they are the submodule's own
    objects even if a caller has since replaced one in the submodule (the
    benchmark's layer tracer does), and every later lookup is a dict hit.
    """

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package

# The record types load with the package, as the catalog needs them anyway.
from . import types


def __getattr__(name: str):
    # Only a name of a submodule that is not imported yet gets here.
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
