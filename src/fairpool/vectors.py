"""Validated integer vector types shared by the allocators and the machine."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, Fraction]


class ResourceVector:
    """Immutable vector of non-negative integer resource quantities."""

    __slots__ = ("_q",)

    def __init__(self, quantities: Iterable[int]) -> None:
        q = tuple(quantities)
        if not q:
            raise ValueError("resource vector must have at least one component")
        for v in q:
            # ``type(v) is int`` settles the common case; the full test
            # still admits int subclasses other than bool.
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise ValueError(f"resource quantity must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"resource quantity must be non-negative, got {v}")
        self._q = q

    @property
    def quantities(self) -> tuple[int, ...]:
        return self._q

    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[int]:
        return iter(self._q)

    def __getitem__(self, r: int) -> int:
        return self._q[r]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceVector):
            return self._q == other._q
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._q)

    def __repr__(self) -> str:
        return f"ResourceVector({list(self._q)})"

    def scale(self, count: int) -> "ResourceVector":
        if count < 0:
            raise ValueError("scale count must be non-negative")
        return ResourceVector(v * count for v in self._q)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._q)


class DemandSet:
    """Per-user unit-task demand vectors with unique ids and a common length."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[int, ResourceVector]]) -> None:
        items = tuple((int(uid), vec) for uid, vec in entries)
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
        self._entries = items

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "DemandSet":
        """Build a demand set with user ids assigned in order from 0."""
        return cls(
            (uid, ResourceVector(vec)) for uid, vec in enumerate(vectors)
        )

    @property
    def entries(self) -> tuple[tuple[int, ResourceVector], ...]:
        return self._entries

    @property
    def demands(self) -> tuple[ResourceVector, ...]:
        return tuple(vec for _, vec in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DemandSet):
            return self._entries == other._entries
        return NotImplemented

    def __repr__(self) -> str:
        return f"DemandSet({list(self._entries)})"


class WeightVector:
    """Strictly positive rational weights, one per resource or one per user."""

    __slots__ = ("_w",)

    def __init__(self, weights: Iterable[Rational]) -> None:
        w = tuple(Fraction(x) for x in weights)
        if not w:
            raise ValueError("weight vector must have at least one component")
        for x in w:
            if x <= 0:
                raise ValueError(f"weights must be positive, got {x}")
        self._w = w

    def __len__(self) -> int:
        return len(self._w)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._w)

    def __getitem__(self, i: int) -> Fraction:
        return self._w[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightVector):
            return self._w == other._w
        return NotImplemented

    def __repr__(self) -> str:
        return f"WeightVector({list(self._w)})"
