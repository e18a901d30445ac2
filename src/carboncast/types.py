"""Shared domain types for the carbon projection pipeline.

Everything here is an immutable value object: construct it once, share it
freely across threads. The inputs (an architecture, a fleet, a data center)
are :class:`Record` subclasses, which the chain reads by attribute. The
outputs are named tuples. A :class:`CarbonReport` and its
:class:`ParallelismPlan` are checked ones: one that a caller builds runs its
checks in its own ``__new__``, however it is built (by keyword or position,
``_make``, ``_replace``, ``replace``, pickle or copy). A report's line items
(:class:`LineItem`) are plain ones. ``estimate()`` and
``estimate_lifecycle()`` build a report, its plan and its items in C from
values the model chain has checked, and re-check a lifecycle's weighted
sums. Every record and checked tuple checks its fields when it is built, so
a value that exists is a valid one and no stage checks it again. A report's
float fields are held to one rule, :func:`check_report_floats`, which the
model chain also runs on any value of its own that fails a range test; a
tuple of records (fleet entries, line items, expert groups) to :func:`check_items`.
Hardware and data-center types raise :class:`CatalogError`, because a
broken catalog row should stop a run immediately; the others raise
:class:`ModelError`. An architecture lists every rule it breaks in one
message (the CLI shows them all at once): these rules are all that the
parameter model needs. A config value or catalog cell that cannot be read at
all raises :class:`ConfigError`.

A record may keep a value that its own check works out (a fleet's accelerator
entry, say) as a plain attribute that is not a field, which no repr, equality
or hash reads.

Caller numbers must be ints or floats, not bools, that a float can hold
(:func:`is_number`). An architecture's shape counts must be ints >= 1, not
bools (:func:`is_shape_count`); one the parameter model does not read may be 0.
"""

from __future__ import annotations

import enum
import math
from math import inf
from operator import attrgetter
from sys import float_info
from typing import NamedTuple

from .units import SECONDS_PER_YEAR


class CatalogError(ValueError):
    """A hardware unit or data-center profile violates its invariants."""


class ModelError(ValueError):
    """A projection model was handed inputs it cannot work with."""


class ConfigError(ValueError):
    """Bad config document or catalog cell; the message names the offending key path."""


def is_number(value, label: str, error: type[ValueError]) -> bool:
    """Whether ``value`` is an int or a float but not a bool. An int that a
    float cannot hold raises ``error`` naming ``label`` first, before any
    message formats it: Python formats no int of more than 4,300 digits."""
    if isinstance(value, float):  # the common case, tested first for speed
        return True
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    try:
        float(value)
    except OverflowError:
        raise error(f"{label} is beyond the float range") from None
    return True


def check_non_negative(value, label: str, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``value`` is a finite number >= 0."""
    # Written so that NaN fails too.
    if not (is_number(value, label, error) and 0.0 <= value < math.inf):
        raise error(f"{label} must be finite and >= 0, got {shown(value)}")


def check_count(value, label: str, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``value`` is an int >= 1 that a float can hold."""
    if not (is_number(value, label, error) and isinstance(value, int) and value >= 1):
        raise error(f"{label} must be an integer >= 1, got {shown(value)}")


def check_type(value, label: str, kind: type, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``value`` is a ``kind``; the message names its type."""
    if not isinstance(value, kind):
        raise error(f"{label} must be {_with_article(kind)}, got {type(value).__name__}")


def check_items(values, label: str, kind: type, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``values`` is a tuple of ``kind``s, naming the first other item."""
    check_type(values, label, tuple, error)
    for i, value in enumerate(values):
        if not isinstance(value, kind):  # only then is the label formatted
            check_type(value, f"{label}[{i}]", kind, error)


def _with_article(kind: type) -> str:
    """The name of ``kind`` after its indefinite article: ``an int``, ``a tuple``."""
    name = kind.__name__
    return f"{'an' if name[0] in 'AEIOUaeiou' else 'a'} {name}"


# The longest repr of a value that a message shows.
SHOWN_LIMIT = 80


def shown(value) -> str:
    """``repr(value)`` for a message, at most ``SHOWN_LIMIT`` characters long.
    A value with a longer repr, or one Python cannot format (an int of more
    than 4,300 digits, or a list nested past the recursion limit), is named
    by its type: ``a list``."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        return _with_article(type(value))
    return text if len(text) <= SHOWN_LIMIT else _with_article(type(value))


def plain_sum(values):
    """``sum(values)`` as Python 3.11 adds floats: left to right from 0. From
    3.12 ``sum()`` compensates (gh-100425), which can change the last bits;
    the package sums floats with this, or a loop that adds as it does, so
    every interpreter gives its bits."""
    total = 0
    for value in values:
        total += value
    return total


class Record:
    """Base of the immutable value types.

    A subclass's fields are its annotated names, in order, after those of a
    record base; a field's default is the class attribute of that name. A
    record is built by keyword or position, sets its fields in field order,
    then runs ``__post_init__``, where a type checks itself. It compares,
    hashes and prints by its fields (``Name(field=value, ...)``) and is equal
    only to a record of its own type. No field can be assigned or deleted;
    :meth:`replace` builds a changed copy, checked anew. A ``__post_init__``
    may keep what its check works out as a plain attribute, set with
    ``object.__setattr__``; it is not a field, and copies and pickles carry it.

    Unlike ``dataclasses``, this compiles no methods per class, so defining a
    record type costs about what defining a plain class does.
    """

    _fields = ()
    _defaults = {}
    _values = staticmethod(lambda record: ())  # a record's field values, as a tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = fields = cls._fields + own
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        elif fields:  # an attrgetter of one name gives the value itself
            get = attrgetter(*fields)
            cls._values = staticmethod(lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._field_values(args, kwargs)
        set_field = object.__setattr__
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    @classmethod
    def _field_values(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in field order, from a call that did not
        give them all by position; a missing, unknown or repeated field
        raises ``TypeError``."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:  # what is left was not a field, or was given by position
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}"
                            if name in fields else
                            f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        return values

    def __post_init__(self) -> None:
        """Check the fields; a type that has rules overrides this."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the fields in ``changes`` replaced, built and checked
        as any new record is."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})


class ArchKind(enum.Enum):
    """Transformer layout, which selects the parameter-count formula."""

    DENSE_GPT = "dense_gpt"          # one self-attention + one FF block per layer
    DENSE_ENCDEC = "dense_encdec"    # T5-style encoder/decoder pair per layer
    DENSE_DECONLY = "dense_deconly"  # decoder block only (LaMDA, PaLM style)
    MOE = "moe"                      # mixture-of-experts


class HardwareRole(enum.Enum):
    ACCELERATOR = "accelerator"
    CPU = "cpu"
    DRAM = "dram"
    SSD = "ssd"
    OTHER = "other"


class Phase(enum.Enum):
    TRAINING = "training"
    INFERENCE = "inference"
    STORAGE = "storage"
    LIFECYCLE = "lifecycle"


class ExpertGroup(Record):
    """A slice of a model's MoE layers sharing one expert count.

    ``layer_fraction`` is the fraction of the MoE layers in this group;
    fractions across all groups must sum to 1. Mixed-expert designs
    (e.g. 64 experts in early layers, 128 in late ones) use several groups.
    """

    layer_fraction: float
    expert_count: int


class LlmArchitecture(Record):
    """Structural description of a dense or MoE LLM.

    Counts follow the usual transformer symbols: hidden size h, layer count
    l, vocabulary V, attention heads and head dimension, feed-forward width.
    ``moe_fraction`` is the fraction of layers whose FF block is replaced by
    an expert layer. ``ff_stacks`` is the number of expert-replaceable FF
    blocks per counted layer (2 for encoder-decoder layer pairs, 1 otherwise).

    ``explicit_param_count`` bypasses the parameter model entirely.
    ``base_model_param_count`` is the MoE's dense base model size, which
    drives the FLOP model instead of the full expert count.

    Building one raises a :class:`ModelError` that names every rule it breaks.
    """

    name: str
    kind: ArchKind
    hidden_size: int = 0
    layer_count: int = 0
    vocab_size: int = 0
    head_count: int | None = None
    head_dim: int | None = None
    ff_size: int | None = None
    moe_fraction: float | None = None
    expert_groups: tuple[ExpertGroup, ...] = ()
    ff_stacks: int = 1
    explicit_param_count: int | None = None
    base_model_param_count: int | None = None

    def __post_init__(self) -> None:
        violations = _violations(self)
        if violations:
            raise ModelError("; ".join(violations))

    @property
    def is_moe(self) -> bool:
        return self.kind is ArchKind.MOE


_FRACTION_SUM_TOL = 1e-9


def is_shape_count(value) -> bool:
    """Whether ``value`` is an int >= 1 but not a bool: the rule for an
    architecture's shape counts. Unlike :func:`check_count` it admits ints
    beyond the float range; the parameter model names the count they give."""
    return isinstance(value, int) and value is not True and value >= 1


def _is_real(value) -> bool:
    """:func:`is_number` without its raise, so that every violation is listed."""
    try:
        return is_number(value, "", ModelError)
    except ModelError:
        return False


def _violations(arch: LlmArchitecture) -> list[str]:
    """One message per architecture rule that ``arch`` breaks, naming the
    field, so that the CLI can point at config paths; empty when the
    parameter model can count it (or it carries an explicit count).

    Each field has one rule for every kind. Shape counts must pass
    :func:`is_shape_count`, or keep their default ``0`` where the parameter
    model does not read them; parameter counts and fractions must be finite
    numbers under :func:`is_number`; ``expert_groups`` must pass :func:`check_items`.
    """
    violations: list[str] = []
    # The sweep sorts points by name, and error rows and messages quote it.
    if not isinstance(arch.name, str):
        violations.append(f"architecture name must be a str, got {shown(arch.name)}")
    if not isinstance(arch.kind, ArchKind):
        violations.append(f"kind: must be an ArchKind, got {shown(arch.kind)}")

    explicit = arch.explicit_param_count
    has_explicit = explicit is not None and _is_real(explicit) and 1 <= explicit < math.inf
    if explicit is not None and not has_explicit:
        violations.append(
            # The parameter model counts whole parameters: 0.5 would count as 0.
            f"explicit_param_count: must be at least 1, got {explicit!r}"
            if _is_real(explicit) and 0 < explicit < 1
            else "explicit_param_count: must be a positive number")
    base = arch.base_model_param_count
    if base is not None and not (_is_real(base) and 0 < base < math.inf):
        violations.append("base_model_param_count: must be a positive number")

    is_moe = arch.kind is ArchKind.MOE
    for fname, value in (("hidden_size", arch.hidden_size),
                         ("layer_count", arch.layer_count),
                         ("vocab_size", arch.vocab_size)):
        # Vocabulary embeddings enter the dense formulas only; MoE sizing
        # needs just h, l and the expert data.
        unread = has_explicit or (is_moe and fname == "vocab_size")
        if not (is_shape_count(value) or (unread and type(value) is int and value == 0)):
            violations.append(f"{fname}: must be a positive integer")

    # The layer-pair formulas price the attention heads and the FF width.
    layer_pair = not has_explicit and arch.kind in (ArchKind.DENSE_ENCDEC,
                                                    ArchKind.DENSE_DECONLY)
    for fname, value in (("head_count", arch.head_count),
                         ("head_dim", arch.head_dim),
                         ("ff_size", arch.ff_size)):
        if value is None:
            if layer_pair:
                violations.append(f"{fname}: required for {arch.kind.value} architectures")
        elif not is_shape_count(value):
            violations.append(f"{fname}: must be a positive integer when given")

    if not is_shape_count(arch.ff_stacks):
        violations.append("ff_stacks: must be an integer >= 1")

    # The MoE formulas read the expert fields unless a count is given.
    needs_experts = is_moe and not has_explicit
    rho = arch.moe_fraction
    if rho is None:
        if needs_experts:
            violations.append("moe_fraction: required for MoE architectures")
    elif not is_moe:
        violations.append("moe_fraction: only valid for MoE architectures")
    elif not (_is_real(rho) and 0.0 < rho <= 1.0):
        violations.append("moe_fraction: must lie in (0, 1]")

    groups = arch.expert_groups
    if not is_moe and groups:
        violations.append("expert_groups: only valid for MoE architectures")
        return violations
    try:
        check_items(groups, "expert_groups", ExpertGroup, ModelError)
    except ModelError as fault:
        violations.append(str(fault))
        return violations  # not read: its groups may have no fields
    if groups == () and needs_experts:
        violations.append("expert_groups: required for MoE architectures")
    elif groups:
        fractions = [g.layer_fraction for g in groups]
        # Only numbers are summed; a fraction that is not one is named below.
        if all(map(_is_real, fractions)):
            total = plain_sum(fractions)
            if abs(total - 1.0) > _FRACTION_SUM_TOL:
                violations.append(f"expert_groups: layer fractions sum to {total!r}, expected 1")
        for i, g in enumerate(groups):
            if not (_is_real(g.layer_fraction) and g.layer_fraction > 0):
                violations.append(f"expert_groups[{i}].layer_fraction: must be positive")
            if not is_shape_count(g.expert_count):
                violations.append(f"expert_groups[{i}].expert_count: must be a positive integer")
    return violations


class HardwareUnit(Record):
    """One kind of hardware in a fleet, with its power and embodied pricing.

    Embodied carbon is priced by exactly one basis, resolved in this order:
    a direct per-unit override in kg, die area (mm^2) times CPA (kg per cm^2),
    or capacity (GB) times CPA (kg per GB). ``embodied_basis`` names it
    (``'override'``, ``'area'`` or ``'gb'``), ``embodied_kg`` is one unit's
    manufacturing kgCO2eq by it and ``lifetime_seconds`` its lifetime in
    seconds; they are not fields. A kg that overflows to inf builds: pricing
    the unit's entry fails, with the report's message.
    """

    name: str
    role: HardwareRole
    peak_tflops: float | None = None
    tdp_watts: float | None = None
    avg_system_power_watts: float | None = None
    die_area_mm2: float | None = None
    cpa: float | None = None
    cpa_basis: str | None = None  # "area" or "gb"
    capacity_gb: float | None = None
    embodied_kg_override: float | None = None
    lifetime_years: float = 5.0

    def __post_init__(self) -> None:
        # Checked before any label formats the name.
        check_type(self.name, "hardware unit name", str, CatalogError)
        check_type(self.role, f"{self.name}: role", HardwareRole, CatalogError)
        for fname in ("peak_tflops", "tdp_watts", "avg_system_power_watts", "die_area_mm2",
                      "cpa", "capacity_gb", "embodied_kg_override"):
            if (value := getattr(self, fname)) is not None:
                check_non_negative(value, f"{self.name}: {fname}", CatalogError)
        check_non_negative(self.lifetime_years, f"{self.name}: lifetime_years", CatalogError)
        if self.role is HardwareRole.ACCELERATOR:
            if self.peak_tflops is None or self.peak_tflops <= 0:
                raise CatalogError(f"{self.name}: peak_tflops must be > 0 for accelerators")
        if self.lifetime_years <= 0:
            raise CatalogError(f"{self.name}: lifetime_years must be > 0")
        if self.cpa_basis not in (None, "area", "gb"):
            raise CatalogError(f"{self.name}: cpa_basis must be 'area' or 'gb'")
        if self.cpa_basis == "area" and (self.die_area_mm2 is None or self.cpa is None):
            raise CatalogError(f"{self.name}: area basis needs die_area_mm2 and cpa")
        if self.cpa_basis == "gb" and (self.capacity_gb is None or self.cpa is None):
            raise CatalogError(f"{self.name}: gb basis needs capacity_gb and cpa")
        if self.embodied_kg_override is not None:
            basis, kg = "override", float(self.embodied_kg_override)
        elif self.cpa_basis == "area" or (
            self.cpa_basis is None and self.die_area_mm2 is not None and self.cpa is not None
        ):
            basis, kg = "area", (self.die_area_mm2 / 100.0) * self.cpa  # mm^2 -> cm^2
        elif self.cpa_basis == "gb" or (
            self.cpa_basis is None and self.capacity_gb is not None and self.cpa is not None
        ):
            basis, kg = "gb", self.capacity_gb * self.cpa
        else:
            raise CatalogError(
                f"{self.name}: no embodied pricing basis "
                "(need embodied_kg_override, area+cpa, or capacity+cpa)"
            )
        set_attribute = object.__setattr__
        set_attribute(self, "embodied_basis", basis)
        set_attribute(self, "embodied_kg", kg)
        set_attribute(self, "lifetime_seconds", self.lifetime_years * SECONDS_PER_YEAR)


class FleetEntry(Record):
    """``count`` units of one kind of hardware in a fleet."""

    unit: HardwareUnit
    count: int

    def __post_init__(self) -> None:
        unit, count = self.unit, self.count
        if not isinstance(unit, HardwareUnit):
            # A name is shown; Python formats no int of more than 4,300 digits.
            entry = f"fleet entry {unit!r}" if isinstance(unit, str) else "fleet entry"
            check_type(unit, f"{entry}: unit", HardwareUnit, CatalogError)
        # Only a count that may fail the check pays for formatting its label.
        if not (type(count) is int and 1 <= count <= float_info.max):
            check_count(count, f"{unit.name}: fleet count", CatalogError)


class HardwareFleet(Record):
    """The hardware pool a workload runs on.

    At most one accelerator entry is allowed; it drives the throughput model.
    ``accelerator`` is that entry itself, or ``None``; it is not a field.
    """

    entries: tuple[FleetEntry, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        check_items(entries, "entries", FleetEntry, CatalogError)
        accels = [e for e in entries if e.unit.role is HardwareRole.ACCELERATOR]
        if len(accels) > 1:
            names = ", ".join(e.unit.name for e in accels)
            raise CatalogError(f"fleet has multiple accelerator entries: {names}")
        object.__setattr__(self, "accelerator", accels[0] if accels else None)

    @staticmethod
    def of(*pairs: tuple[HardwareUnit, int]) -> "HardwareFleet":
        return HardwareFleet(tuple(FleetEntry(unit, count) for unit, count in pairs))


class DataCenterProfile(Record):
    """Energy efficiency and grid carbon profile of a data center.

    ``carbon_intensity`` is kgCO2eq per kWh (note: some published tables
    quote g/kWh; the catalog loader normalizes to kg).
    """

    name: str
    pue: float
    carbon_intensity: float

    def __post_init__(self) -> None:
        check_type(self.name, "data center name", str, CatalogError)
        pue = self.pue
        if not (is_number(pue, f"{self.name}: pue", CatalogError) and 1.0 <= pue < math.inf):
            raise CatalogError(f"{self.name}: pue must be finite and >= 1.0, got {shown(pue)}")
        check_non_negative(self.carbon_intensity, f"{self.name}: carbon_intensity", CatalogError)


class ScalingConstants(Record):
    """Fitted constants of the parametric loss law L = A/P^alpha + B/D^beta + E.

    Defaults are the published Chinchilla fit (Hoffmann et al., 2022).
    """

    A: float = 406.4
    B: float = 410.7
    alpha: float = 0.34
    beta: float = 0.28
    E: float = 1.69

    def __post_init__(self) -> None:
        for fname in ("A", "B", "alpha", "beta", "E"):
            value = getattr(self, fname)
            label = f"scaling constant {fname}"
            if not (is_number(value, label, ModelError) and 0.0 < value < math.inf):
                raise ModelError(f"{label} must be positive and finite, got {shown(value)}")


class _CheckedTuple:
    """What makes a checked named tuple: every way to build one runs the
    type's own ``__new__``, which checks the fields and then builds the tuple
    with ``tuple.__new__``, one plain call per check; the package builds its
    own from checked values with ``tuple.__new__``, and so never runs it. A
    subclass lists this before its named tuple field base, whose ``_make``
    (which ``_replace`` calls) would build the tuple unchecked, as pickle
    protocols 0 and 1 would; ``__reduce__`` has pickle, ``copy`` and
    ``deepcopy`` call the type with the fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def replace(self, **changes):
        """A copy with the fields in ``changes`` replaced, built and checked
        as any new value is; an unknown field is a ``TypeError``."""
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):
        return type(self), tuple(self)


class _ParallelismPlanFields(NamedTuple):
    pipeline: int
    tensor: int
    data: int
    expert: int = 1


class ParallelismPlan(_CheckedTuple, _ParallelismPlanFields):
    """Degrees of pipeline/tensor/data/expert parallelism plus device count:
    a checked named tuple, whose degrees must each pass :func:`check_count`,
    ints >= 1 that a float can hold, not bools or floats."""

    __slots__ = ()

    def __new__(cls, pipeline: int, tensor: int, data: int, expert: int = 1):
        for fname, value in zip(cls._fields, (pipeline, tensor, data, expert)):
            check_count(value, f"parallelism degree {fname}", ModelError)
        return tuple.__new__(cls, (pipeline, tensor, data, expert))

    @property
    def device_count(self) -> int:
        return self.tensor * self.pipeline * self.data


class LineItem(NamedTuple):
    """Per-fleet-entry slice of a report, as a named tuple: one per entry,
    in fleet order, so a unit listed twice has two."""

    unit: str
    count: int
    energy_mwh: float = 0.0
    embodied_tco2: float = 0.0


class _CarbonReportFields(NamedTuple):
    phase: Phase
    duration_seconds: float
    hardware_energy_mwh: float
    operational_energy_mwh: float
    operational_tco2: float
    embodied_tco2: float
    total_tco2: float
    hardware_efficiency: float = 1.0
    test_loss: float | None = None
    parallelism: ParallelismPlan | None = None
    line_items: tuple[LineItem, ...] = ()


# CarbonReport's float fields, in field order.
_REPORT_FLOATS = _CarbonReportFields._fields[1:9]


def check_report_floats(duration_seconds, hardware_energy_mwh, operational_energy_mwh,
                        operational_tco2, embodied_tco2, total_tco2, hardware_efficiency,
                        test_loss) -> None:
    """Raise a ``ModelError`` naming the first of a report's float fields, in
    field order, that is not a finite number >= 0 under :func:`is_number`;
    only ``test_loss`` may be ``None``. A report checks its fields with this, and
    the model stages their values, so they fail exactly as a report would."""
    # One chain for the valid case, whose values are floats; the loop names
    # the first fault, or admits the rest (an int, a float subclass).
    if (type(duration_seconds) is float and 0.0 <= duration_seconds < inf
            and type(hardware_energy_mwh) is float and 0.0 <= hardware_energy_mwh < inf
            and type(operational_energy_mwh) is float and 0.0 <= operational_energy_mwh < inf
            and type(operational_tco2) is float and 0.0 <= operational_tco2 < inf
            and type(embodied_tco2) is float and 0.0 <= embodied_tco2 < inf
            and type(total_tco2) is float and 0.0 <= total_tco2 < inf
            and type(hardware_efficiency) is float and 0.0 <= hardware_efficiency < inf
            and (test_loss is None or type(test_loss) is float and 0.0 <= test_loss < inf)):
        return
    for fname, value in zip(_REPORT_FLOATS, (
            duration_seconds, hardware_energy_mwh, operational_energy_mwh, operational_tco2,
            embodied_tco2, total_tco2, hardware_efficiency, test_loss)):
        # Written so that NaN fails too.
        if not (is_number(value, fname, ModelError) and 0.0 <= value < inf
                or value is None and fname == "test_loss"):
            raise ModelError(f"{fname} must be finite and >= 0, got {shown(value)}")


class CarbonReport(_CheckedTuple, _CarbonReportFields):
    """Final projection for one phase (or a whole lifecycle): a checked
    named tuple.

    Invariants: total equals operational plus embodied exactly, and
    operational energy equals hardware energy times PUE. Building one checks,
    in field order, that the phase is a :class:`Phase`; the float fields with
    :func:`check_report_floats`; that ``parallelism`` is ``None`` or a
    :class:`ParallelismPlan`; that ``line_items`` is a tuple of
    :class:`LineItem` (:func:`check_items`); and then the first invariant.
    """

    __slots__ = ()

    def __new__(cls, phase: Phase, duration_seconds: float, hardware_energy_mwh: float,
                operational_energy_mwh: float, operational_tco2: float, embodied_tco2: float,
                total_tco2: float, hardware_efficiency: float = 1.0,
                test_loss: float | None = None, parallelism: ParallelismPlan | None = None,
                line_items: tuple[LineItem, ...] = ()):
        # The totals are checked last: NaN or inf also breaks additivity, misleadingly.
        check_type(phase, "phase", Phase, ModelError)
        check_report_floats(duration_seconds, hardware_energy_mwh, operational_energy_mwh,
                            operational_tco2, embodied_tco2, total_tco2, hardware_efficiency,
                            test_loss)
        if parallelism is not None:
            check_type(parallelism, "parallelism", ParallelismPlan, ModelError)
        check_items(line_items, "line_items", LineItem, ModelError)
        if total_tco2 != operational_tco2 + embodied_tco2:
            raise ModelError("total_tco2 must equal operational_tco2 + embodied_tco2")
        return tuple.__new__(cls, (phase, duration_seconds, hardware_energy_mwh,
                                   operational_energy_mwh, operational_tco2, embodied_tco2,
                                   total_tco2, hardware_efficiency, test_loss, parallelism,
                                   line_items))
