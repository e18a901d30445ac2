"""Parallelism planning and hardware-efficiency estimation.

Hardware efficiency is achieved throughput over peak throughput. It peaks at
one particular device count n (the optimal parallelism setting) and degrades
on either side of it. Three pieces model this:

* :func:`plan_parallelism` builds the optimal (pipeline, tensor, data,
  expert) degrees. Tensor parallelism grows first, in powers of two up to
  the server size z (intra-server links are the cheap ones); pipeline depth
  then grows until the model state fits in device memory; data parallelism
  fills out the published devices-per-parameter optimum (175 B on about
  1.5K devices). Expert-routed plans fix expert parallelism at 64 and data
  parallelism at 1 to bound all-to-all traffic.

* :func:`optimal_efficiency` predicts the efficiency *at* the optimum from
  an anchor table of published (param_count, efficiency) measurements,
  which :func:`fit_anchors` checks and fits once per table. With
  three or more anchors it fits a degree-2 polynomial in log10(P) by least
  squares, solved by QR with modified Gram-Schmidt on centred log sizes
  (Bjorck, BIT 1967), unrolled for that basis with the bits of the loop
  over its columns; with one or two it interpolates linearly in log10(P),
  flat beyond the ends. Every anchor is checked first: its param count must
  be finite and positive and used by no other anchor, and its efficiency
  must lie in (0, 1]; a bad anchor raises ModelError naming its index.
  Expert-routed models reach about 80% of their dense base's optimum (extra
  host-device swaps).

* :func:`efficiency_at_count` degrades the optimum when the actual fleet
  size differs from n: undersupply scales efficiency by re/n; oversupply
  decays it hyperbolically toward a floor. The oversupply floor ``GAMMA2``
  is calibrated to the published 175 B point (10K devices achieving 19.7%
  against a 1.5K-device optimum of 47%).

Each estimate is a plain float, clamped into (0, 1]. Where it came from
follows from its inputs: the anchor interpolation or the regression (the
curve has a ``parabola`` or not), scaled off the optimum or not (the actual
count differs from n or not).
"""

from __future__ import annotations

import math
from sys import float_info

from .catalog import default_anchors
from .types import (ModelError, ParallelismPlan, check_count, is_number, is_shape_count,
                    plain_sum, shown)

DEFAULT_SERVER_SIZE = 8           # devices per server sharing fast interconnect
DEFAULT_DEVICE_MEMORY_GB = 32.0   # published 175 B optimum assumed 32 GB parts

# Training state per parameter under mixed precision: fp16 weights + grads,
# fp32 master weights + two optimizer moments.
TRAINING_BYTES_PER_PARAM = 16.0

DEFAULT_EXPERT_PARALLELISM = 64
MOE_EFFICIENCY_DISCOUNT = 0.80

# Devices per parameter at the optimum, anchored at the published
# 175 B -> ~1.5K devices operating point.
_OPTIMAL_DEVICES_PER_PARAM = 1500.0 / 175e9

GAMMA2 = 0.1265  # oversupply floor, calibrated from the 10K-device 175 B point


def _check_param_count(param_count: float) -> None:
    if not (is_number(param_count, "param_count", ModelError) and 0.0 < param_count < math.inf):
        raise ModelError(f"param_count must be finite and positive, got {shown(param_count)}")


def _optimum(param_count: float) -> int:
    """Device count at the efficiency optimum, scaled from the 175 B anchor."""
    # This floor and those of _plan_degrees, AnchorCurve.at and _at_count are
    # compares, not calls of the builtin max and min: on the per-point path a
    # builtin call costs more than the compare it makes. Each returns what the
    # call did, the bound on a tie or a NaN.
    devices = round(param_count * _OPTIMAL_DEVICES_PER_PARAM)
    return devices if devices > 1 else 1


def plan_parallelism(
    param_count: float,
    is_moe: bool = False,
    device_memory_gb: float = DEFAULT_DEVICE_MEMORY_GB,
    server_size: int = DEFAULT_SERVER_SIZE,
) -> ParallelismPlan:
    """Optimal parallelism degrees for a model of ``param_count`` parameters.

    Dense plans reach the published devices-per-param optimum
    (:func:`_optimum`) through data parallelism. The inputs are
    checked in order, ``param_count`` first, then the device sizing; the
    degrees come from :func:`_plan_degrees`, which the pipeline calls
    directly on inputs it has already checked.
    """
    _check_param_count(param_count)
    _check_sizing(device_memory_gb, server_size)
    return ParallelismPlan(*_plan_degrees(param_count, is_moe, device_memory_gb, server_size))


def _check_sizing(device_memory_gb: float, server_size: int) -> None:
    """Raise a ``ModelError`` unless the device memory is a finite positive
    number of GB and the server size a count."""
    # One chain for the common valid case; the checks below name a fault.
    if (type(device_memory_gb) is float and 0.0 < device_memory_gb < math.inf
            and type(server_size) is int and 1 <= server_size <= float_info.max):
        return
    if not (is_number(device_memory_gb, "device_memory_gb", ModelError)
            and device_memory_gb > 0.0):
        raise ModelError("device_memory_gb must be positive")
    if device_memory_gb == math.inf:
        raise ModelError("device_memory_gb must be finite")
    check_count(server_size, "server_size", ModelError)


def _plan_degrees(param_count: float, is_moe: bool, device_memory_gb: float,
                  server_size: int) -> tuple[int, int, int, int]:
    """The (pipeline, tensor, data, expert) degrees of :func:`plan_parallelism`,
    on inputs that have passed its checks."""
    mem_bytes = device_memory_gb * 1e9
    state_bytes = TRAINING_BYTES_PER_PARAM * param_count

    # Tensor parallelism: smallest power of two (capped at z) whose share of
    # the model state fits in one device; z itself when nothing fits.
    tensor = 1
    while tensor < server_size and state_bytes > tensor * mem_bytes:
        tensor *= 2
    if tensor > server_size:
        tensor = server_size

    depth = state_bytes / (tensor * mem_bytes)
    # NaN fails too: inf bytes of state over inf bytes of memory.
    if not depth < math.inf:
        raise ModelError(f"the pipeline depth for {param_count:.6g} parameters in "
                         f"{float(device_memory_gb)!r} GB devices overflows a float")
    # At least 1: a depth that underflows to 0 (a tiny model, or device
    # memory that overflows to inf in bytes) still takes one stage.
    pipeline = math.ceil(depth)
    if pipeline < 1:
        pipeline = 1

    if is_moe:
        # d pinned to 1: expert all-to-alls already saturate the fabric.
        return pipeline, tensor, 1, DEFAULT_EXPERT_PARALLELISM

    data = round(_optimum(param_count) / (tensor * pipeline))
    return pipeline, tensor, data if data > 1 else 1, 1


def optimal_efficiency(
    param_count: float,
    is_moe: bool = False,
    anchors: list[tuple[float, float]] | AnchorCurve | None = None,
) -> float:
    """Efficiency at the optimal parallelism setting for this model size.

    ``anchors`` are (param_count, efficiency) pairs, fitted here by
    :func:`fit_anchors` (the packaged table when omitted), or an
    :class:`AnchorCurve` that ``fit_anchors`` made earlier, so that callers
    evaluating many sizes against one table fit it once.
    """
    # One chain for the common valid case; the check admits the rest or names a fault.
    if not (type(param_count) is float and 0.0 < param_count < math.inf):
        _check_param_count(param_count)
    curve = anchors if isinstance(anchors, AnchorCurve) else fit_anchors(anchors)
    return curve.at(param_count, is_moe)


class AnchorCurve:
    """An anchor table, checked and fitted by :func:`fit_anchors`.

    A regression curve holds its least-squares parabola as ``(mean, c0, c1,
    c2)`` in t = log10(P) - mean; an interpolated one holds its one or two
    anchors as increasing log10 sizes ``xs`` and their efficiencies ``ys``.
    """

    __slots__ = ("xs", "ys", "parabola")

    def __init__(self, xs: tuple[float, ...] = (), ys: tuple[float, ...] = (),
                 parabola: tuple[float, float, float, float] | None = None) -> None:
        self.xs = xs
        self.ys = ys
        self.parabola = parabola

    def at(self, param_count: float, is_moe: bool = False) -> float:
        """Efficiency at the optimum for ``param_count`` parameters, with the
        MoE discount applied and the result clamped to [1e-6, 1]."""
        x = math.log10(param_count)
        if self.parabola is None:
            # Linear through the anchors, flat beyond both ends:
            # numpy.interp's arithmetic, bit for bit.
            xs, ys = self.xs, self.ys
            if x <= xs[0]:
                eff = ys[0]
            elif x >= xs[-1]:
                eff = ys[-1]
            else:
                eff = (ys[1] - ys[0]) / (xs[1] - xs[0]) * (x - xs[0]) + ys[0]
        else:
            mean, c0, c1, c2 = self.parabola
            t = x - mean
            eff = (c2 * t + c1) * t + c0
        if is_moe:
            eff *= MOE_EFFICIENCY_DISCOUNT
        return (eff if eff < 1.0 else 1.0) if eff > 1e-6 else 1e-6


_packaged_fit = (None, None)  # the packaged table as last read, and its curve


def fit_anchors(anchors: list[tuple[float, float]] | None = None) -> AnchorCurve:
    """Check, sort and fit an anchor table; the packaged one when omitted.

    Three or more anchors get a degree-2 least-squares fit in
    log10(param_count); one or two fall back to piecewise-linear
    interpolation (flat beyond the ends); zero is an error. A bad anchor
    raises :class:`ModelError` naming its index.
    The packaged table is read each call but refitted only when it changes.
    """
    global _packaged_fit
    if anchors is not None:
        return _fit(anchors)
    table = default_anchors()
    if _packaged_fit[0] != table:
        _packaged_fit = (table, _fit(table))
    return _packaged_fit[1]


def _fit(anchors: list[tuple[float, float]]) -> AnchorCurve:
    seen: dict[float, float] = {}  # log10(param_count) -> efficiency
    try:
        numbered = enumerate(anchors)
    except TypeError:  # not iterable
        raise ModelError("efficiency anchor table: expected a list of (param_count, efficiency) "
                         f"pairs, got {shown(anchors)}") from None
    for i, anchor in numbered:
        try:
            p, e = anchor
        except (TypeError, ValueError):  # not a pair
            raise ModelError(f"efficiency anchor {i}: expected a (param_count, efficiency) "
                             f"pair, got {shown(anchor)}") from None
        if not (type(p) is float and type(e) is float and 0.0 < p < math.inf
                and 0.0 < e <= 1.0):
            label = f"efficiency anchor {i}"
            if not (is_number(p, f"{label}: param_count", ModelError) and 0.0 < p < math.inf):
                raise ModelError(f"{label}: param_count must be finite and > 0, got {shown(p)}")
            if not (is_number(e, f"{label}: efficiency", ModelError) and 0.0 < e <= 1.0):
                raise ModelError(f"{label}: efficiency must lie in (0, 1], got {shown(e)}")
        x = math.log10(p)
        if x in seen:
            j = list(seen).index(x)  # one key per earlier anchor, in order
            raise ModelError(f"efficiency anchor {i}: param_count {shown(p)} duplicates anchor {j}")
        seen[x] = e
    if not seen:
        raise ModelError("efficiency anchor table is empty")

    # The sizes are distinct, so sorting their logs sorts the anchors.
    xs = tuple(sorted(seen))
    ys = tuple([seen[x] for x in xs])
    if len(xs) >= 3:
        return AnchorCurve(parabola=_quadratic_fit(xs, ys))
    return AnchorCurve(xs, ys)


# A basis column that keeps no more than this share of its norm once the
# columns before it are projected out lies in their span, to rounding: the
# anchor sizes are too close to fix a parabola. Rounding leaves about 1e-16 of
# the norm, whichever way an interpreter sums, so the test decides the same
# on all of them, where a test for an exact zero would not.
_RANK_TOL = 1e-12


def _quadratic_fit(xs: tuple[float, ...], ys: tuple[float, ...]) -> tuple[float, float, float, float]:
    """The least-squares parabola through (xs, ys), as ``(mean, c0, c1, c2)``
    with value (c2 * t + c1) * t + c0 at t = x - mean.

    Modified Gram-Schmidt on the columns 1, t, t^2 of the centred
    t = xs - mean, with ys carried as a fourth column so that it meets the
    same rounding as the basis. Unlike the normal equations, this does not
    square the condition number of the fit.

    The steps are unrolled for this basis, with every product, quotient and
    sum of a loop over the columns, in its order, so the bits are its bits
    (sums run from 0, as :func:`plain_sum` adds), in five loops that each end
    in a sum the next one needs. The ones are one value c when normalised,
    and their rank test cannot fire, so it is left out.
    """
    mean = plain_sum(xs) / len(xs)
    r00 = math.sqrt(len(xs))  # the norm of the ones, as 0 + 1.0 + ... + 1.0 is exact
    c = 1.0 / r00
    s1 = s2 = r01 = r02 = r03 = 0  # s1 and s2 square the rank tests' scales
    for x, y in zip(xs, ys):
        t = x - mean
        tt = t * t
        s1 += tt
        s2 += tt * tt
        r01 += c * t
        r02 += c * tt
        r03 += c * y
    # Step 0 takes the ones out of the other columns, step 1 takes t out.
    d1, d2, d3 = r01 * c, r02 * c, r03 * c
    rows = []
    norm = 0
    for x, y in zip(xs, ys):
        t = x - mean
        u = t - d1
        rows.append((u, t * t - d2, y - d3))
        norm += u * u
    r11 = math.sqrt(norm)
    if r11 <= _RANK_TOL * math.sqrt(s1):
        raise ModelError("efficiency anchors are too close in size to fit a parabola")
    r12 = r13 = 0
    qrows = []
    for u, v, w in rows:
        q = u / r11
        qrows.append((q, v, w))
        r12 += q * v
        r13 += q * w
    norm = 0
    rows = []
    for q, v, w in qrows:
        v -= r12 * q
        rows.append((q, v, w))
        norm += v * v
    r22 = math.sqrt(norm)
    if r22 <= _RANK_TOL * math.sqrt(s2):
        raise ModelError("efficiency anchors are too close in size to fit a parabola")
    # Step 2 needs only the dot of t^2 with ys, as ys leaves step 1.
    r23 = 0
    for q, v, w in rows:
        r23 += v / r22 * (w - r13 * q)
    c2 = r23 / r22
    c1 = (r13 - r12 * c2) / r11
    c0 = (r03 - r01 * c1 - r02 * c2) / r00
    return mean, c0, c1, c2


def efficiency_at_count(actual_devices: int, optimal_devices: int,
                        optimal_eff: float) -> float:
    """Efficiency when running on ``actual_devices`` instead of the optimum.

    Below the optimum: (re/n) * eff_n. Above it: (n/re) * eff_n + GAMMA2,
    at most 1. At it: eff_n unchanged. Both counts must be ints >= 1
    (:func:`is_shape_count`).
    """
    if not (is_shape_count(actual_devices) and is_shape_count(optimal_devices)):
        raise ModelError("device counts must be integers >= 1")
    if not (is_number(optimal_eff, "optimal_eff", ModelError) and 0.0 < optimal_eff <= 1.0):
        raise ModelError(f"optimal_eff must lie in (0, 1], got {shown(optimal_eff)}")
    return _at_count(actual_devices, optimal_devices, optimal_eff)


def _at_count(actual_devices: int, optimal_devices: int, optimal_eff: float) -> float:
    """:func:`efficiency_at_count` on inputs that have passed its checks."""
    re, n = actual_devices, optimal_devices
    if re == n:
        eff = optimal_eff
    elif re < n:
        eff = (re / n) * optimal_eff
    else:
        eff = (n / re) * optimal_eff + GAMMA2
    return (eff if eff < 1.0 else 1.0) if eff > 1e-9 else 1e-9
