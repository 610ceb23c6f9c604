"""Validated vector types shared by the allocators and the machine.

Each type is a tuple that checked its values when it was built, so it
equals and hashes like the plain tuple of its values.  There is one way
to build each: every constructor call makes a new tuple and checks it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def _not_integer(value: object) -> bool:
    """False only for an int, or an int subclass other than bool."""
    return not isinstance(value, int) or isinstance(value, bool)


def require_integers(owner: object, *names: str) -> None:
    """Raise ValueError for the first of ``owner``'s named attributes
    that is not an integer."""
    for name in names:
        value = getattr(owner, name)
        if _not_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_quantities(self: tuple, quantities: object = None) -> None:
    """``ResourceVector.__init__``, which checks the tuple ``self`` and
    ignores ``quantities``; the machine calls it on a plain demand tuple."""
    if not self:
        raise ValueError("resource vector must have at least one component")
    for v in self:
        # ``type(v) is int`` settles the common case; the full rule
        # still admits int subclasses other than bool.
        if type(v) is not int and _not_integer(v):
            raise ValueError(f"resource quantity must be an integer, got {v!r}")
        if v < 0:
            raise ValueError(f"resource quantity must be non-negative, got {v}")


class ResourceVector(tuple):
    """Immutable vector of non-negative integer resource quantities.

    A tuple of the quantities, checked in ``__init__``.  ``+``, ``*`` and
    ``<`` are tuple operations (concatenation and repetition, which return
    plain tuples, and lexicographic order), not vector arithmetic or
    component-wise comparison.  ``ResourceVector(v)`` always builds and
    checks a new vector, even for a ``ResourceVector`` ``v``.
    """

    __slots__ = ()

    __init__ = _check_quantities

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
    """Per-user unit-task demand vectors of a common length.

    A tuple of ``ResourceVector``s, positional: user i is element i, and
    every allocation result lists users in the same order.  ``+``, ``*``
    and ``<`` are tuple operations, and ``+`` and ``*`` return plain
    tuples.
    """

    __slots__ = ()

    def __new__(cls, demands: Iterable[ResourceVector]) -> "DemandSet":
        items = tuple.__new__(cls, demands)
        for user, vec in enumerate(items):
            if not isinstance(vec, ResourceVector):
                raise ValueError("demand must be a ResourceVector")
            # Element 0 passed the type check before any comparison.
            if len(vec) != len(items[0]):
                raise ValueError("all demands must have the same resource count")
            if vec.is_zero():
                raise ValueError(f"user {user} has an all-zero demand vector")
        return items

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "DemandSet":
        return cls(map(ResourceVector, vectors))

    def __repr__(self) -> str:
        return f"DemandSet({list(self)})"


def _fraction(value: Rational) -> Fraction:
    # ``Fraction`` parses text ("1/2", " 3 "), which is not a weight.
    if isinstance(value, str):
        raise TypeError(f"got the string {value!r}")
    return Fraction(value)


class WeightVector(tuple):
    """Strictly positive rational weights, one per resource or one per user.

    A tuple of ``Fraction`` values, each built from a number (an int, a
    ``Fraction`` or a finite float), never from text; ``+``, ``*`` and
    ``<`` are tuple operations, as for ``ResourceVector``.
    """

    __slots__ = ()

    def __new__(cls, weights: Iterable[Rational]) -> "WeightVector":
        try:
            w = tuple.__new__(cls, map(_fraction, weights))
        except (TypeError, ValueError, OverflowError) as exc:  # None, "1", nan, inf
            raise ValueError(f"weights must be rational: {exc}") from None
        if not w:
            raise ValueError("weight vector must have at least one component")
        for x in w:
            if x <= 0:
                raise ValueError(f"weights must be positive, got {x}")
        return w

    def __repr__(self) -> str:
        return f"WeightVector({list(self)})"
