"""Exact fair-allocation algorithms.

Single-resource max-min filling, dominant-share allocation for multiple
resource types, and the precomputed variant that replaces the task-by-task
allocation loop with a closed-form cycle count.  Each algorithm takes
optional weights; unit weights, the default, give the unweighted form.
Everything here is exact, so results are bit-reproducible and usable as
ground truth for the fixed-point machine.  The multi-resource allocators
compare ratios as integer pairs by cross-multiplication and build a
``Fraction`` only for values they return; progressive filling splits
rational amounts and computes in ``Fraction`` throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .vectors import DemandSet, Rational, ResourceVector, WeightVector


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a whole-set allocation: unit-task counts per user."""

    task_counts: tuple[int, ...]
    allocations: tuple[ResourceVector, ...]
    remaining: ResourceVector
    # Precomputed cycle count when the allocator uses one, else 0.
    cycles: Fraction


@dataclass(frozen=True)
class DiffStats:
    """Per-user task-count deltas between the loop allocator and the
    precomputed allocator (loop minus precomputed)."""

    deltas: tuple[int, ...]
    exact: int
    under_by_one: int
    under_by_more: int
    over: int

    @property
    def total(self) -> int:
        return len(self.deltas)


def _as_fraction(value: Rational, what: str) -> Fraction:
    f = Fraction(value)
    if f < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return f


def progressive_filling(
    demands: Sequence[Rational],
    reserve: Rational,
    weights: WeightVector | None = None,
) -> list[Fraction]:
    """Max-min fair split of a single divisible resource.

    Each round offers every unsatisfied user a share of what is left in
    proportion to its weight (1 per user when ``weights`` is omitted);
    users whose maximum demand fits their share are paid in full and
    removed, and the residue is re-split.  When a round satisfies
    nobody, everyone takes exactly their share and the reserve is
    exhausted.
    """
    weights = (1,) * len(demands) if weights is None else weights
    if len(weights) != len(demands):
        raise ValueError(
            f"need one weight per user: {len(weights)} weights, {len(demands)} users"
        )
    total = _as_fraction(reserve, "reserve")
    wants = [_as_fraction(d, "demand") for d in demands]
    allocs: list[Fraction] = [Fraction(0)] * len(wants)
    active = [i for i, d in enumerate(wants) if d > 0]
    while active and total > 0:
        weight_sum = sum(weights[i] for i in active)
        shares = {i: total * weights[i] / weight_sum for i in active}
        satisfied = [i for i in active if wants[i] <= shares[i]]
        if not satisfied:
            for i in active:
                allocs[i] = shares[i]
            return allocs
        for i in satisfied:
            allocs[i] = wants[i]
            total -= wants[i]
        active = [i for i in active if i not in satisfied]
    return allocs


def dominant_share(
    demand: ResourceVector,
    reserves: ResourceVector,
    weights: WeightVector | None = None,
) -> tuple[Fraction, int]:
    """Highest ratio d_r / (w_r * reserve_r) and the resource index attaining it.

    ``weights`` holds one weight per resource and defaults to 1 each.
    Each ratio is kept as the integer pair (d_r * w_r.denominator,
    reserve_r * w_r.numerator) and compared by cross-multiplication; ties
    break toward the lowest resource index.
    """
    weights = (1,) * len(reserves) if weights is None else weights
    if len(weights) != len(reserves):
        raise ValueError("need one weight per resource")
    if len(demand) != len(reserves):
        raise ValueError("demand and reserves must have the same resource count")
    if demand.is_zero():
        raise ValueError("demand must have a positive component")
    # -1/1 is below every ratio, so resource 0 always takes the lead.
    best_num, best_den, best_index = -1, 1, -1
    for r, (d, res, w) in enumerate(zip(demand, reserves, weights)):
        if res == 0:
            raise ValueError(f"reserve for resource {r} is zero")
        num, den = d * w.denominator, res * w.numerator
        if num * best_den > best_num * den:
            best_num, best_den, best_index = num, den, r
    return Fraction(best_num, best_den), best_index


def _drf_loop(
    demands: Sequence[ResourceVector],
    shares: Sequence[Fraction],
    reserves: ResourceVector,
) -> tuple[list[int], list[int]]:
    """Task-by-task allocation loop equalizing allocated dominant shares.

    Repeatedly selects the user with the minimum allocated share (ties:
    lowest position) and grants one task; stops the first time the
    selected user's demand no longer fits the remaining reserves.
    """
    n = len(demands)
    m = len(reserves)
    # Compare t_a*s_a < t_b*s_b by integer cross-multiplication.
    nums = [s.numerator for s in shares]
    dens = [s.denominator for s in shares]
    tasks = [0] * n
    remaining = list(reserves)
    while True:
        pick = 0
        for i in range(1, n):
            if tasks[i] * nums[i] * dens[pick] < tasks[pick] * nums[pick] * dens[i]:
                pick = i
        d = demands[pick]
        if any(d[r] > remaining[r] for r in range(m)):
            break
        for r in range(m):
            remaining[r] -= d[r]
        tasks[pick] += 1
    return tasks, remaining


def _result(
    demands: Sequence[ResourceVector],
    tasks: Sequence[int],
    reserves: ResourceVector,
    cycles: Fraction,
) -> AllocationResult:
    allocations = tuple(d.scale(t) for d, t in zip(demands, tasks))
    remaining = reserves
    for a in allocations:
        remaining = remaining - a
    return AllocationResult(tuple(tasks), allocations, remaining, cycles)


def drf_allocate(demands: DemandSet, reserves: ResourceVector) -> AllocationResult:
    """Dominant-resource-fair allocation by the task-by-task loop.

    This is the reference ground truth the precomputed allocator is
    measured against.
    """
    if not len(demands):
        return AllocationResult((), (), reserves, Fraction(0))
    vectors = demands.demands
    shares = [dominant_share(d, reserves)[0] for d in vectors]
    tasks, _ = _drf_loop(vectors, shares, reserves)
    return _result(vectors, tasks, reserves, Fraction(0))


def pdrf_allocate(
    demands: DemandSet,
    reserves: ResourceVector,
    weights: Sequence[WeightVector] | None = None,
) -> AllocationResult:
    """Precomputed dominant-resource-fair allocation.

    Computes how many whole task cycles fit before some resource depletes
    and hands every user its floored cycle multiple in one step, with no
    per-task loop.  ``weights`` holds one per-resource weight vector per
    user (see dominant_share); omitting it means unit weights.

    One cycle gives user i s*/s_i tasks, where s_i is its dominant share
    and s* the largest.  All of it is integer arithmetic: with
    s_i = a_i/b_i in lowest terms, let L = lcm(a_i) and
    c_i = b_i * (L / a_i), an integer proportional to 1/s_i.  A cycle
    drains resource r in proportion to N_r = sum_i c_i * d_ir.  The
    binding resource minimises R_r / N_r (compared by cross-multiplication,
    skipping N_r = 0), user i gets R_r * c_i // N_r tasks, and the cycle
    count is R_r * L * b* / (N_r * a*) for s* = a*/b*, which is
    R_r * c* / N_r with c* = min c_i.
    """
    n = len(demands)
    weights = [None] * n if weights is None else weights
    if len(weights) != n:
        raise ValueError(
            f"need one weight vector per user: {len(weights)} for {n} users"
        )
    if not n:
        return AllocationResult((), (), reserves, Fraction(0))
    vectors = demands.demands
    shares = [
        dominant_share(d, reserves, w)[0] for d, w in zip(vectors, weights)
    ]
    lcm = math.lcm(*(s.numerator for s in shares))
    scales = [s.denominator * (lcm // s.numerator) for s in shares]
    # 1/0 stands for an unbounded ratio, so the first drained resource binds.
    bound_reserve, bound_drain = 1, 0
    for r, reserve in enumerate(reserves):
        drain = sum(c * d[r] for c, d in zip(scales, vectors))
        if drain and reserve * bound_drain < bound_reserve * drain:
            bound_reserve, bound_drain = reserve, drain
    assert bound_drain  # every demand has a positive component
    tasks = [bound_reserve * c // bound_drain for c in scales]
    cycles = Fraction(bound_reserve * min(scales), bound_drain)
    return _result(vectors, tasks, reserves, cycles)


def compare_pdrf_drf(demands: DemandSet, reserves: ResourceVector) -> DiffStats:
    """Run both allocators and tabulate per-user task-count deltas."""
    loop = drf_allocate(demands, reserves)
    pre = pdrf_allocate(demands, reserves)
    deltas = tuple(
        a - b for a, b in zip(loop.task_counts, pre.task_counts)
    )
    return DiffStats(
        deltas=deltas,
        exact=sum(1 for d in deltas if d == 0),
        under_by_one=sum(1 for d in deltas if d == 1),
        under_by_more=sum(1 for d in deltas if d > 1),
        over=sum(1 for d in deltas if d < 0),
    )
