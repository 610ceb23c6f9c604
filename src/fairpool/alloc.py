"""Exact fair-allocation algorithms.

Single-resource max-min filling, dominant-share allocation for multiple
resource types, and the precomputed variant that replaces the task-by-task
allocation loop with a closed-form cycle count.  Filling and the
precomputed variant take optional weights; unit weights, the default,
give the unweighted form.  Everything here is exact, so results are
bit-reproducible and usable as ground truth for the fixed-point machine.
Both multi-resource allocators and their comparison start from one integer
core per instance: each dominant share s_i as an integer key x_i = s_i * M
over one common denominator M, and from the keys the cycle multiples c_i
and per-resource drains N_r.  They compare ratios by cross-multiplication
and build a ``Fraction`` or a vector only for values they return;
progressive filling computes in ``Fraction`` throughout.
Users are positions: user i is the i-th vector of the ``DemandSet`` and
the i-th entry of every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heapreplace
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence

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
    break toward the lowest resource index.  Components the user does not
    demand are skipped, so a zero reserve is an error only where the
    demand is positive.
    """
    weights = (1,) * len(reserves) if weights is None else weights
    if len(weights) != len(reserves):
        raise ValueError("need one weight per resource")
    if len(demand) != len(reserves):
        raise ValueError("demand and reserves must have the same resource count")
    # -1/1 is below every ratio, so the first demanded resource takes the lead.
    best_num, best_den, best_index = -1, 1, -1
    for r, (d, res, w) in enumerate(zip(demand, reserves, weights)):
        if d == 0:
            continue
        if res == 0:
            raise ValueError(
                f"positive demand against a zero reserve for resource {r}"
            )
        num, den = d * w.denominator, res * w.numerator
        if num * best_den > best_num * den:
            best_num, best_den, best_index = num, den, r
    if best_index < 0:
        raise ValueError("demand must have a positive component")
    return Fraction(best_num, best_den), best_index


def _remaining(
    columns: Iterable[Sequence[int]],
    tasks: Sequence[int],
    reserves: Sequence[int],
) -> list[int]:
    """reserve_r - sum_i tasks_i * d_ir per resource; ``columns[r]`` holds d_ir."""
    return [res - sum(map(mul, tasks, col)) for res, col in zip(reserves, columns)]


def _raise_first_error(
    demands: DemandSet,
    reserves: ResourceVector,
    weights: Sequence[Sequence[Rational]],
) -> None:
    """Raise the ValueError that dominant_share raises first, in user order."""
    for d, w in zip(demands, weights):
        dominant_share(d, reserves, w)
    raise AssertionError("every dominant share is valid")


class _Core:
    """One instance's integers and pdrf allocation, shared by both allocators.

    Besides the demand rows (the ``DemandSet`` itself) and columns:

    * M, a common denominator of every ratio d_ir / (w_ir * R_r): the lcm
      of the positive R_r * w_ir.numerator over the distinct weight
      vectors w.  Unit weights, the default, are one such vector.
    * q^w_r = w_r.denominator * (M // (R_r * w_r.numerator)), one scale
      vector per distinct w, and 0 where R_r = 0.
    * The key x_i = max_r d_ir * q^w_r = s_i * M: user i's dominant share
      as an integer over M.
    * C = lcm(x_i) and c_i = C // x_i, an integer proportional to 1/s_i.
    * N_r = sum_i c_i * d_ir, resource r's drain per cycle.
    * The binding pair (R_b, N_b), the smallest R_r / N_r over N_r > 0,
      hi = floor(R_b * C / N_b), and pdrf's task counts hi // x_i
      = R_b * c_i // N_b (as c_i = C / x_i) with the reserves they leave.

    No ``Fraction`` is built.  An invalid instance goes to dominant_share
    user by user, so it raises the error, and from the user, that
    computing each share on its own would.  The set must not be empty.
    """

    __slots__ = ("rows", "columns", "reserves", "keys", "scale", "scales",
                 "drains", "bound", "hi", "tasks", "remaining")

    def __init__(
        self,
        demands: DemandSet,
        reserves: ResourceVector,
        weights: Sequence[WeightVector] | None = None,
    ) -> None:
        m = len(reserves)
        weights = [(1,) * m] * len(demands) if weights is None else weights
        qs = dict.fromkeys(weights)  # q^w per distinct weight vector w
        if any(len(w) != m for w in qs) or demands and len(demands[0]) != m:
            _raise_first_error(demands, reserves, weights)
        lcm = math.lcm(  # M
            *(res * x.numerator for w in qs for res, x in zip(reserves, w) if res)
        )
        for w in qs:
            qs[w] = [
                x.denominator * (lcm // (res * x.numerator)) if res else 0
                for res, x in zip(reserves, w)
            ]
        # x_i = max(map(mul, d_i, q^w_i)), with the loop over users in C.
        per_user = map(qs.__getitem__, weights)
        keys = list(map(max, map(map, repeat(mul), demands, per_user)))
        columns = list(zip(*demands))
        if 0 in keys or 0 in reserves and any(
            any(col) for res, col in zip(reserves, columns) if not res
        ):
            _raise_first_error(demands, reserves, weights)
        scale = math.lcm(*keys)  # C
        scales = [scale // x for x in keys]  # c_i
        self.rows, self.columns, self.reserves = demands, columns, reserves
        self.keys, self.scale, self.scales = keys, scale, scales
        self.drains = drains = [sum(map(mul, scales, col)) for col in columns]  # N_r
        bound_reserve, bound_drain = 1, 0  # 1/0 is unbounded: the first drain binds
        for reserve, drain in zip(reserves, drains):
            if drain and reserve * bound_drain < bound_reserve * drain:
                bound_reserve, bound_drain = reserve, drain
        assert bound_drain  # every demand has a positive component
        self.bound = bound_reserve, bound_drain
        self.hi = hi = bound_reserve * scale // bound_drain
        self.tasks = tasks = [hi // x for x in keys]
        self.remaining = remaining = _remaining(columns, tasks, reserves)
        assert min(remaining) >= 0


def _drf_loop(core: _Core) -> tuple[list[int], list[int]]:
    """The task-by-task DRF loop's task counts and leftover reserves.

    The loop grants one task at a time to the user with the minimum
    allocated share t_i * s_i (ties: lowest position), and stops the
    first time that user's demand does not fit the remaining reserves R.
    With the core's keys x_i = s_i * M, it grants the picks (t * x_i, i),
    t = 0, 1, ..., in ascending order.  Let F(K) be the total demand of
    the picks with key below K, ceil(K / x_i) per user.  Consumption only
    grows along the order, so the loop grants its longest prefix that fits.

    As sum_i d_ir / x_i = N_r / C, F(K) >= K * N_r / C, so F(hi + 1) > R
    at the binding resource: the picks with key <= hi do not all fit.
    They give pdrf's counts plus one and leave pdrf's remainder less the
    column sums.  A heap of each user's last pick gives picks back,
    largest (key, i) first, until the remainder is non-negative.  So the
    loop's counts are pdrf's plus one per user, less the picks given back.

    If 2n + 1 picks given back do not fit: over N_r > 0, lo = min
    floor(max(0, R_r - sum_i d_ir) * C / N_r) has F(lo) <= R.  While
    [lo, hi] holds more than 2n picks, sum_i (hi // x_i - (lo - 1) // x_i),
    at most n once lo = hi, testing F at its middle halves it in at most
    log2(hi - lo) steps.  The walk restarts at hi, none below lo goes back.
    """
    rows, columns, reserves, keys = core.rows, core.columns, core.reserves, core.keys
    totals = list(map(sum, columns))  # sum_i d_ir
    lo, hi = 0, core.hi
    tasks = [t + 1 for t in core.tasks]  # the picks with key <= hi
    remaining = list(map(sub, core.remaining, totals))
    while True:  # at most twice: the second walk gives back at most 2n picks
        assert min(remaining) < 0  # F(hi + 1) > R
        heap = [((1 - t) * x, -i) for i, (t, x) in enumerate(zip(tasks, keys))]
        heapify(heap)  # (-key, -i) of each user's last pick
        for _ in range(2 * len(keys) + 1):
            key, i = heap[0]
            assert -key >= lo  # F(lo) <= R, so no pick below lo is given back
            tasks[-i] -= 1
            remaining = list(map(add, remaining, rows[-i]))
            if min(remaining) >= 0:
                return tasks, remaining
            heapreplace(heap, (key + keys[-i], i))
        drains = [t for t in zip(reserves, totals, core.drains) if t[2]]
        lo = min(max(0, res - tot) * core.scale // n_r for res, tot, n_r in drains)
        while lo < hi and sum(hi // x - (lo - 1) // x for x in keys) > 2 * len(keys):
            mid = (lo + hi + 1) // 2
            if min(_remaining(columns, [-(-mid // x) for x in keys], reserves)) >= 0:
                lo = mid
            else:
                hi = mid - 1
        tasks = [hi // x + 1 for x in keys]
        remaining = _remaining(columns, tasks, reserves)


def _result(
    demands: DemandSet,
    tasks: Sequence[int],
    remaining: Sequence[int],
    cycles: Fraction = Fraction(0),
) -> AllocationResult:
    allocs = tuple(d.scale(t) for d, t in zip(demands, tasks))
    return AllocationResult(tuple(tasks), allocs, ResourceVector(remaining), cycles)


def drf_allocate(demands: DemandSet, reserves: ResourceVector) -> AllocationResult:
    """Dominant-resource-fair allocation: the task-by-task loop's result.

    This is the reference ground truth the precomputed allocator is
    measured against.  ``_drf_loop`` derives it from pdrf's counts plus
    one per user, less the picks that do not fit, so its cost does not
    depend on the reserve size, apart from a search logarithmic in it
    that runs only when more than 2n + 1 picks lie past the stop.
    """
    if not len(demands):
        return AllocationResult((), (), reserves, Fraction(0))
    return _result(demands, *_drf_loop(_Core(demands, reserves)))


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
    and s* the largest.  All of it is integer arithmetic on the core's
    keys x_i = s_i * M (see _Core): with C = lcm(x_i), c_i = C // x_i is
    an integer proportional to 1/s_i, and a cycle drains resource r in
    proportion to N_r = sum_i c_i * d_ir.  The binding resource minimises
    R_r / N_r (compared by cross-multiplication, skipping N_r = 0), user i
    gets R_r * c_i // N_r tasks, and the cycle count is R_r * c* / N_r,
    where c* = min c_i belongs to the user with share s*.  Scaling every
    c_i by one factor scales every N_r by it too, so it cancels in each
    floor and in the reduced cycle count: any integers proportional to
    1/s_i give the same result.
    """
    n = len(demands)
    if weights is not None and len(weights) != n:
        raise ValueError(
            f"need one weight vector per user: {len(weights)} for {n} users"
        )
    if not n:
        return AllocationResult((), (), reserves, Fraction(0))
    core = _Core(demands, reserves, weights)
    cycles = Fraction(core.bound[0] * min(core.scales), core.bound[1])
    return _result(demands, core.tasks, core.remaining, cycles)


def pdrf_task_counts(
    rows: Sequence[Sequence[int]], reserves: Sequence[int]
) -> tuple[int, ...]:
    """``pdrf_allocate``'s unweighted task counts, read off the core alone.

    ``rows`` are plain integer tuples of one length, as ``DemandSet``
    would hold them, and ``reserves`` a plain tuple; neither is checked
    as a vector, so they must already be valid (non-negative, each row
    with a positive component).  No result vector is built.
    """
    if not rows:
        return ()
    return tuple(_Core(rows, reserves).tasks)


def compare_pdrf_drf(demands: DemandSet, reserves: ResourceVector) -> DiffStats:
    """Tabulate per-user task-count deltas of both allocators, which run
    on one shared core; no result vectors are built.  The loop's counts
    are pdrf's plus one per user, less the picks that do not fit (see
    _drf_loop), so ``under_by_more`` is 0 by construction."""
    if not len(demands):
        return DiffStats((), 0, 0, 0, 0)
    core = _Core(demands, reserves)
    deltas = tuple(map(sub, _drf_loop(core)[0], core.tasks))
    more, over = sum(d > 1 for d in deltas), sum(d < 0 for d in deltas)
    return DiffStats(deltas, deltas.count(0), deltas.count(1), more, over)
