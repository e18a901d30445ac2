"""carboncast: carbon footprint projection for dense and MoE LLMs.

From an architecture description, a hardware fleet and a data-center
profile, project parameter count, test loss, FLOPs, a parallelism plan,
hardware efficiency, energy, and operational plus embodied carbon.
"""

from .types import (
    ArchKind,
    CarbonReport,
    CatalogError,
    DataCenterProfile,
    ExpertGroup,
    FleetEntry,
    HardwareFleet,
    HardwareRole,
    HardwareUnit,
    LineItem,
    LlmArchitecture,
    ModelError,
    ParallelismPlan,
    Phase,
    ScalingConstants,
)
from .params import ParameterCount, ParameterEquation, count_params
from .scaling import LossPrediction, test_loss
from .flops import FlopBudget, inference_flops, training_flops
from .efficiency import (
    efficiency_at_count,
    optimal_efficiency,
    plan_parallelism,
)
from .operational import (
    StorageWorkload,
    device_time,
    hardware_energy,
    operational_carbon,
    storage_energy,
)
from .embodied import chip_embodied, fleet_embodied
from .pipeline import (
    EstimateRequest,
    LifecyclePlan,
    Overrides,
    SweepPoint,
    estimate,
    estimate_lifecycle,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ArchKind", "CarbonReport", "CatalogError", "DataCenterProfile",
    "EstimateRequest", "ExpertGroup", "FleetEntry", "FlopBudget",
    "HardwareFleet", "HardwareRole", "HardwareUnit", "LifecyclePlan",
    "LineItem", "LlmArchitecture", "LossPrediction", "ModelError",
    "Overrides", "ParallelismPlan", "ParameterCount", "ParameterEquation",
    "Phase", "ScalingConstants", "StorageWorkload", "SweepPoint",
    "ValidationRow", "chip_embodied", "count_params", "device_time",
    "efficiency_at_count", "estimate", "estimate_lifecycle",
    "fleet_embodied", "hardware_energy", "inference_flops",
    "operational_carbon", "optimal_efficiency",
    "plan_parallelism", "run_validation", "storage_energy", "sweep",
    "test_loss", "training_flops",
]


def __getattr__(name: str):
    # The validation fixtures load on first use, so that importing the
    # package (and with it the CLI) does not build them.
    if name in ("ValidationRow", "run_validation", "validation"):
        import importlib

        validation = importlib.import_module(".validation", __name__)
        return validation if name == "validation" else getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
