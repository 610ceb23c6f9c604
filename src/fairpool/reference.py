"""One-shot fixed-point allocation reference.

Recomputes, from a full demand set and the pool reserves it was
registered against, exactly what the machine's incremental buffers and
floored divisions produce: reciprocal shares, their minimum, the scaled
demand sums, the cycle count, and the per-user task counts (one floor each).

Deliberately shares no code with the machine module so the two
implementations can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class FixedPointOutcome:
    recip_shares: tuple[int, ...]
    min_recip: int
    scaled_sums: tuple[int, ...]
    cycle_count: int
    task_counts: tuple[int, ...]


def _require_quantities(values: Sequence[int], user: int | None = None) -> None:
    """Raise ValueError for the first component of ``values``, the reserves
    or ``user``'s demand, that is not a non-negative int; int subclasses
    other than bool pass."""
    for r, v in enumerate(values):
        integer = type(v) is int or isinstance(v, int) and not isinstance(v, bool)
        if not integer or v < 0:
            what = "reserve" if user is None else f"user {user}'s demand"
            raise ValueError(
                f"{what} for resource {r} must be a non-negative integer, got {v!r}"
            )


def fixed_point_reference(
    demand_vectors: Sequence[Sequence[int]],
    reserves: Sequence[int],
    precision: int = 1_000_000,
) -> FixedPointOutcome:
    """Batch fixed-point pipeline over one epoch's demand set.

    ``demand_vectors`` are the demands registered in one epoch,
    ``reserves`` the demand-pool contents they were registered against.
    ``precision`` must be an int >= 1 (not a bool), as for ``MachineConfig``.
    Every demand and reserve component must be a non-negative int (not a
    bool), as the machine requires; user i is the i-th demand vector.
    """
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < 1:
        raise ValueError(f"precision must be an integer >= 1, got {precision!r}")
    if not demand_vectors:
        raise ValueError("need at least one demand vector")
    m = len(reserves)
    _require_quantities(reserves)
    recips: list[int] = []
    for user, vec in enumerate(demand_vectors):
        if len(vec) != m:
            raise ValueError("demand vector length must match reserves")
        _require_quantities(vec, user)
        best = None
        for d, r in zip(vec, reserves):
            if d == 0:
                continue
            if r == 0:
                raise ValueError("positive demand against a zero reserve")
            candidate = (precision * r) // d
            if best is None or candidate < best:
                best = candidate
        if best is None:
            raise ValueError("demand vector has no positive component")
        if best == 0:
            raise ValueError("demand exceeds precision-scaled reserve")
        recips.append(best)

    min_recip = min(recips)
    sums = [0] * m
    for vec, recip in zip(demand_vectors, recips):
        for r, d in enumerate(vec):
            sums[r] += d * recip

    cycle = None
    for r in range(m):
        if sums[r] == 0:
            continue
        bound = (min_recip * reserves[r] * precision) // sums[r]
        if cycle is None or bound < cycle:
            cycle = bound
    assert cycle is not None

    return FixedPointOutcome(
        recip_shares=tuple(recips),
        min_recip=min_recip,
        scaled_sums=tuple(sums),
        cycle_count=cycle,
        task_counts=tuple(recip * cycle // (min_recip * precision) for recip in recips),
    )


def reference_task_counts(
    demands_by_user: Mapping[int, Sequence[int]],
    reserves: Sequence[int],
    precision: int = 1_000_000,
) -> dict[int, int]:
    """Task counts keyed by user id, via fixed_point_reference."""
    users = list(demands_by_user)
    outcome = fixed_point_reference(
        [demands_by_user[u] for u in users], reserves, precision
    )
    return dict(zip(users, outcome.task_counts))
