"""Validated vector types shared by the allocators and the machine.

Each type is a tuple that checked its values when it was built, so it
equals and hashes like the plain tuple of its values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class ResourceVector(tuple):
    """Immutable vector of non-negative integer resource quantities.

    A tuple of the quantities, checked in ``__init__``.  ``+``, ``*`` and
    ``<`` are tuple operations (concatenation and repetition, which return
    plain tuples, and lexicographic order), not vector arithmetic or
    component-wise comparison.  Like
    ``tuple(t) is t``, ``ResourceVector(v)`` is ``v`` for a
    ``ResourceVector`` ``v``, which needs no second check.
    """

    __slots__ = ()

    def __new__(cls, quantities: Iterable[int]) -> "ResourceVector":
        if type(quantities) is cls:
            return quantities
        return tuple.__new__(cls, quantities)

    def __init__(self, quantities: Iterable[int]) -> None:
        if self is quantities:
            return
        if not self:
            raise ValueError("resource vector must have at least one component")
        for v in self:
            # ``type(v) is int`` settles the common case; the full test
            # still admits int subclasses other than bool.
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError(f"resource quantity must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"resource quantity must be non-negative, got {v}")

    @property
    def quantities(self) -> tuple[int, ...]:
        return self

    def __repr__(self) -> str:
        return f"ResourceVector({list(self)})"

    def scale(self, count: int) -> "ResourceVector":
        if count < 0:
            raise ValueError("scale count must be non-negative")
        return ResourceVector(v * count for v in self)

    def is_zero(self) -> bool:
        return not any(self)


class DemandSet(tuple):
    """Per-user unit-task demand vectors with unique ids and a common length.

    A tuple of ``(user id, ResourceVector)`` pairs; ``+``, ``*`` and ``<``
    are tuple operations, and ``+`` and ``*`` return plain tuples.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[tuple[int, ResourceVector]]) -> "DemandSet":
        items = tuple.__new__(cls, ((int(uid), vec) for uid, vec in entries))
        seen: set[int] = set()
        m = None
        for uid, vec in items:
            if uid in seen:
                raise ValueError(f"duplicate user id {uid}")
            seen.add(uid)
            if not isinstance(vec, ResourceVector):
                raise ValueError("demand must be a ResourceVector")
            if m is None:
                m = len(vec)
            elif len(vec) != m:
                raise ValueError("all demands must have the same resource count")
            if vec.is_zero():
                raise ValueError(f"user {uid} has an all-zero demand vector")
        return items

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "DemandSet":
        """Build a demand set with user ids assigned in order from 0."""
        return cls(
            (uid, ResourceVector(vec)) for uid, vec in enumerate(vectors)
        )

    @property
    def entries(self) -> tuple[tuple[int, ResourceVector], ...]:
        return self

    @property
    def demands(self) -> tuple[ResourceVector, ...]:
        return tuple(vec for _, vec in self)

    def __repr__(self) -> str:
        return f"DemandSet({list(self)})"


class WeightVector(tuple):
    """Strictly positive rational weights, one per resource or one per user.

    A tuple of ``Fraction`` values; ``+``, ``*`` and ``<`` are tuple
    operations, as for ``ResourceVector``.
    """

    __slots__ = ()

    def __new__(cls, weights: Iterable[Rational]) -> "WeightVector":
        w = tuple.__new__(cls, (Fraction(x) for x in weights))
        if not w:
            raise ValueError("weight vector must have at least one component")
        for x in w:
            if x <= 0:
                raise ValueError(f"weights must be positive, got {x}")
        return w

    def __repr__(self) -> str:
        return f"WeightVector({list(self)})"
