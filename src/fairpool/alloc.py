"""Exact fair-allocation algorithms.

Single-resource max-min filling, dominant-share allocation for multiple
resource types, and the precomputed variant that replaces the task-by-task
allocation loop with a closed-form cycle count.  Filling and the
precomputed variant take optional weights; unit weights, the default,
give the unweighted form.  Everything here is exact, so results are
bit-reproducible and usable as ground truth for the fixed-point machine.
Both multi-resource allocators and their comparison start from one integer
core per instance, where weights only scale the demand rows: each dominant
share s_i as an integer key x_i = s_i * U * M (see _Core), and from the keys
the cycle multiples c_i and per-resource drains N_r.  They compare ratios by
cross-multiplication and build a ``Fraction`` or a vector only for values
they return;
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
from typing import Iterable, NamedTuple, Sequence

from .vectors import DemandSet, Rational, ResourceVector, WeightVector, _fraction


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a whole-set allocation: unit-task counts per user."""

    task_counts: tuple[int, ...]
    allocations: tuple[ResourceVector, ...]
    remaining: ResourceVector
    # Precomputed cycle count when the allocator uses one, else 0.
    cycles: Fraction


class DiffStats(NamedTuple):
    """Per-user task-count deltas between the loop allocator and the
    precomputed allocator (loop minus precomputed).

    ``compare_pdrf_drf`` builds it with ``tuple.__new__``, which skips the
    NamedTuple's Python-level constructor and its arity check, so adding a
    field means updating that construction site."""

    deltas: tuple[int, ...]
    exact: int
    under_by_one: int
    under_by_more: int
    over: int

    @property
    def total(self) -> int:
        return len(self.deltas)


# Builds a DiffStats without the NamedTuple's Python-level ``__new__``.
_new = tuple.__new__


def _as_fraction(value: Rational, what: str) -> Fraction:
    try:
        f = _fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:  # None, "1", nan, inf
        raise ValueError(f"{what} must be rational: {exc}") from None
    if f < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return f


def _weight_vector(weights: Sequence[Rational]) -> WeightVector:
    return weights if isinstance(weights, WeightVector) else WeightVector(weights)


def progressive_filling(
    demands: Sequence[Rational],
    reserve: Rational,
    weights: Sequence[Rational] | None = None,
) -> list[Fraction]:
    """Max-min fair split of a single divisible resource.

    Water-filling in one sorted pass: users with a positive demand go in
    order of demand per unit of weight (1 per user when ``weights`` is
    omitted).  Each is paid in full while ``want * W_left <= left * w``;
    from the first that is not, each user takes ``left * w / W_left``.
    The max-min split is unique, so ties may go in any order.  Weights
    are built into a ``WeightVector`` after the checks.
    """
    weights = (1,) * len(demands) if weights is None else weights
    if len(weights) != len(demands):
        raise ValueError(
            f"need one weight per user: {len(weights)} weights, {len(demands)} users"
        )
    left = _as_fraction(reserve, "reserve")
    wants = [_as_fraction(d, "demand") for d in demands]
    weights = _weight_vector(weights) if wants else ()  # no users, no weights
    allocs: list[Fraction] = [Fraction(0)] * len(wants)
    order = [i for i, d in enumerate(wants) if d > 0]
    order.sort(key=lambda i: wants[i] / weights[i])
    weight_left = sum(weights[i] for i in order)
    for k, i in enumerate(order):
        if wants[i] * weight_left > left * weights[i]:
            for j in order[k:]:
                allocs[j] = left * weights[j] / weight_left
            break
        allocs[i] = wants[i]
        left -= wants[i]
        weight_left -= weights[i]
    return allocs


def dominant_share(
    demand: ResourceVector,
    reserves: ResourceVector,
    weights: Sequence[Rational] | None = None,
) -> tuple[Fraction, int]:
    """Highest ratio d_r / (w_r * reserve_r) and the resource index attaining it.

    ``weights`` holds one weight per resource and defaults to 1 each; once
    both lengths are checked, any but a ``WeightVector`` is built into one.
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
    weights = _weight_vector(weights)
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

    * Row i scaled by U / w_i, U the lcm of every weight's numerator:
      e_ir = d_ir * w_ir.denominator * (U // w_ir.numerator).  With unit
      weights, the default, U = 1 and e_i = d_i.  Only the keys read e.
    * M, the lcm of the positive R_r, and q_r = M // R_r (0 where R_r = 0),
      one q for every user.
    * The key x_i = max_r e_ir * q_r = s_i * U * M.  Only ratios between
      keys reach a result, so U changes none: C scales with it, c_i not.
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
        weights: Sequence[Sequence[Rational]] | None = None,
    ) -> None:
        m = len(reserves)
        if weights is None:
            rows, weights = demands, repeat(None)  # dominant_share's default
        else:  # e_ir = d_ir * U / w_ir: U = lcm of every weight's numerator
            if any(len(w) != m for w in weights):
                _raise_first_error(demands, reserves, weights)
            try:
                weights = list(map(_weight_vector, weights))
            except ValueError:  # a weight WeightVector rejects
                _raise_first_error(demands, reserves, weights)
            u = math.lcm(*(x.numerator for w in weights for x in w))
            rows = [
                [d * x.denominator * (u // x.numerator) for d, x in zip(row, w)]
                for row, w in zip(demands, weights)
            ]
        if demands and len(demands[0]) != m:
            _raise_first_error(demands, reserves, weights)
        lcm = math.lcm(*filter(None, reserves))  # M
        q = [lcm // res if res else 0 for res in reserves]
        # x_i = max(map(mul, e_i, q)), with the loop over users in C.
        keys = list(map(max, map(map, repeat(mul), rows, repeat(q))))
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
    column sums.  A heap of each user's last pick, built from the keys
    and counts by C-level maps, gives picks back, largest (key, i)
    first, until the remainder is non-negative.  So the loop's counts
    are pdrf's plus one per user, less the picks given back.

    If 2n + 1 picks given back do not fit: over N_r > 0, lo = min
    floor(max(0, R_r - sum_i d_ir) * C / N_r) has F(lo) <= R.  While
    [lo, hi] holds more than 2n picks, sum_i (hi // x_i - (lo - 1) // x_i),
    at most n once lo = hi, testing F at its middle halves it in at most
    log2(hi - lo) steps.  The walk restarts at hi, none below lo goes back.
    """
    rows, columns, reserves, keys = core.rows, core.columns, core.reserves, core.keys
    n = len(keys)
    totals = list(map(sum, columns))  # sum_i d_ir
    lo, hi = 0, core.hi
    tasks = [t + 1 for t in core.tasks]  # the picks with key <= hi
    remaining = list(map(sub, core.remaining, totals))
    while True:  # at most twice: the second walk gives back at most 2n picks
        assert min(remaining) < 0  # F(hi + 1) > R
        # (-key, -i) of each user's last pick: -key = x_i - t_i * x_i.
        heap = list(zip(map(sub, keys, map(mul, tasks, keys)), range(0, -n, -1)))
        heapify(heap)
        for _ in range(2 * n + 1):
            key, i = heap[0]
            assert -key >= lo  # F(lo) <= R, so no pick below lo is given back
            tasks[-i] -= 1
            remaining = list(map(add, remaining, rows[-i]))
            if min(remaining) >= 0:
                return tasks, remaining
            heapreplace(heap, (key + keys[-i], i))
        drains = [t for t in zip(reserves, totals, core.drains) if t[2]]
        lo = min(max(0, res - tot) * core.scale // n_r for res, tot, n_r in drains)
        while lo < hi and sum(hi // x - (lo - 1) // x for x in keys) > 2 * n:
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
    weights: Sequence[Sequence[Rational]] | None = None,
) -> AllocationResult:
    """Precomputed dominant-resource-fair allocation.

    Computes how many whole task cycles fit before some resource depletes
    and hands every user its floored cycle multiple in one step, with no
    per-task loop.  ``weights`` holds one per-resource weight vector per
    user (see dominant_share); omitting it means unit weights.

    One cycle gives user i s*/s_i tasks, where s_i is its dominant share
    and s* the largest.  All of it is integer arithmetic on the core's
    keys x_i = s_i * U * M (see _Core): with C = lcm(x_i), c_i = C // x_i is
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
    on one shared core; no result vectors are built.

    ``exact`` and ``under_by_one`` are ``deltas.count(0)`` and
    ``deltas.count(1)``; ``over`` is counted only when some delta is
    negative, and ``under_by_more`` is the rest of the n users.  The
    loop's counts are pdrf's plus one per user, less the picks that do
    not fit (see _drf_loop), so the rest is 0 by construction, but it is
    counted, not assumed.  The ``DiffStats`` is built with
    ``tuple.__new__``."""
    if not len(demands):
        return DiffStats((), 0, 0, 0, 0)
    core = _Core(demands, reserves)
    deltas = tuple(map(sub, _drf_loop(core)[0], core.tasks))
    exact, one = deltas.count(0), deltas.count(1)
    over = sum(d < 0 for d in deltas) if min(deltas) < 0 else 0
    more = len(deltas) - exact - one - over
    return _new(DiffStats, (deltas, exact, one, more, over))
