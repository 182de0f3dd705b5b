"""Labeled 1-manifolds and interval permutations.

An object of the calculus is a finite sequence of entries, each either a
circle or an interval whose two endpoints carry brane labels, together
with a permutation of the interval positions.  Entries are indexed from 1
and the permutation acts on the subset of indices occupied by intervals,
never on a renumbered 1..k range.

Everything in this module is an immutable value with structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from occob.errors import InvalidValueError, not_iterable, shown, wrong_type

__all__ = [
    "STAR",
    "Circle",
    "Interval",
    "Permutation",
    "GeneralObject",
]

#: Brane label used when no brane set is declared (single-brane mode).
STAR = "*"
_new = object.__new__


def _setters(cls: type) -> tuple:
    """The setter of each slot of the slotted dataclass ``cls``, in field
    order: each is its member descriptor's ``__set__``, which sets the slot
    of a frozen instance without looking the slot up by name."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed entry.  Carries no labels."""


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """An open entry with brane labels at its left and right endpoints.

    A ``str`` subclass label is kept as the ``str`` it holds, so both
    writers write the label itself; ``GeneralObject`` checks the labels.
    """

    left: str
    right: str

    def __init__(self, left: str, right: str):
        for set_label, label in zip(_interval_labels, (left, right)):
            if isinstance(label, str):
                label = str.__str__(label)
            set_label(self, label)


Entry = Union[Circle, Interval]


_ONLY_INT, _ONLY_STR = frozenset({int}).issuperset, frozenset({str}).issuperset


def _checked_items(d: dict) -> list[tuple[int, int]]:
    """The sorted pairs of ``d``, or ``InvalidValueError`` saying why ``d``
    is not a permutation of integers."""
    try:
        items = sorted(d.items())
        values = sorted(v for _, v in items)
    except (TypeError, ValueError) as exc:  # not comparable
        raise InvalidValueError(f"not a permutation: {exc}") from None
    keys = [k for k, _ in items]
    for x in keys + values:
        if not isinstance(x, int) or isinstance(x, bool):
            message = f"permutation entries must be integers, got {shown(x)}"
            raise InvalidValueError(message)
    if values != keys:
        message = f"not a bijection: domain {shown(keys)} versus image {shown(values)}"
        raise InvalidValueError(message)
    # An int subclass, such as an ``IntEnum`` member, is kept as the int it
    # holds, so each index taken from the permutation is an exact ``int``.
    return [(int.__int__(k), int.__int__(v)) for k, v in items]


@dataclass(frozen=True, slots=True, init=False)
class Permutation:
    """A bijection of a finite set of integers onto itself.

    Stored as an explicit sorted mapping, so the domain can be any index
    subset, for example the interval positions {2, 3, 4} of an object.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        try:
            d = dict(mapping)
        except (TypeError, ValueError) as exc:  # not pairs
            raise InvalidValueError(f"not a permutation: {exc}") from None
        # One C call per test: keys and values all exactly int, and the
        # values the keys again.  Anything else takes the checks below,
        # which accept an int subclass other than bool as the int it holds.
        if (
            _ONLY_INT(map(type, d))
            and _ONLY_INT(map(type, d.values()))
            and d.keys() == set(d.values())
        ):
            items = sorted(d.items())
        else:
            items = _checked_items(d)
        _permutation_pairs(self, tuple(items))

    # -- construction ----------------------------------------------------

    @classmethod
    def identity(cls, domain: Iterable[int]) -> "Permutation":
        try:
            mapping = {i: i for i in domain}
        except TypeError as exc:  # not iterable, or an unhashable element
            raise not_iterable("integers", exc) from None
        return cls(mapping)

    @classmethod
    def from_cycles(
        cls, cycles: Iterable[Iterable[int]], domain: Iterable[int]
    ) -> "Permutation":
        """Build from a cycle decomposition; unlisted elements are fixed.

        Every listed element must belong to ``domain`` and may appear only
        once across all cycles.
        """
        try:
            dom = set(domain)
            mapping = {i: i for i in dom}
            seen: set[int] = set()
            for cycle in cycles:
                cyc = list(cycle)
                for x in cyc:
                    if x not in dom:
                        raise InvalidValueError(
                            f"cycle element {shown(x, str)} outside domain "
                            f"{shown(sorted(dom))}"
                        )
                    if x in seen:
                        raise InvalidValueError(
                            f"element {shown(x, str)} listed twice in cycle notation"
                        )
                    seen.add(x)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    mapping[a] = b
        except TypeError as exc:  # not iterable, unhashable or unsortable
            message = f"not cycles over a set of integers: {exc}"
            raise InvalidValueError(message) from None
        return cls(mapping)

    # -- queries ---------------------------------------------------------

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.pairs)

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def __call__(self, i: int) -> int:
        for k, v in self.pairs:
            if k == i:
                return v
        raise InvalidValueError(
            f"{shown(i, str)} not in permutation domain {shown(list(self.domain))}"
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, fixed points included.

        Each cycle starts at its smallest element; cycles are ordered by
        those smallest elements.
        """
        mapping = self.mapping
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in self.domain:
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = mapping[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = mapping[x]
            out.append(tuple(cyc))
        return tuple(out)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles())

    @property
    def is_identity(self) -> bool:
        return all(k == v for k, v in self.pairs)

    def cycle_string(self) -> str:
        """Render in cycle notation, e.g. ``(2 3)(4)``; identity is ``id``."""
        if self.is_identity:
            return "id"
        return "".join(
            "(" + " ".join(str(x) for x in cyc) + ")" for cyc in self.cycles()
        )

    def __repr__(self) -> str:
        return f"Permutation({dict(self.pairs)!r})"


def _undeclared(pos: int, side, brane_set: frozenset) -> InvalidValueError:
    return InvalidValueError(
        f"entry {pos}: brane {shown(side)} not in {sorted(brane_set)}"
    )


def _wrong_domain(sigma: Permutation, positions: tuple) -> InvalidValueError:
    return InvalidValueError(
        f"sigma domain {shown(list(sigma.domain))} does not match interval "
        f"positions {list(positions)}"
    )


@dataclass(frozen=True, slots=True, init=False)
class GeneralObject:
    """A sequence of circles and labeled intervals with a permutation.

    ``branes`` is the ambient finite label set; every interval endpoint
    label must belong to it.  ``sigma`` permutes the interval positions
    and defaults to the identity.  The permutation is object data: it does
    not constrain which surfaces attach to the object, that compatibility
    is a question about each surface (see ``calculus.is_morphism``).
    """

    branes: frozenset[str]
    entries: tuple[Entry, ...]
    sigma: Permutation

    def __init__(
        self,
        branes: Iterable[str],
        entries: Iterable[Entry] = (),
        sigma: Permutation | None = None,
    ):
        try:
            brane_set = frozenset(branes)
        except TypeError as exc:
            raise not_iterable("brane labels", exc) from None
        if not brane_set:
            raise InvalidValueError("the brane set must be nonempty")
        for b in brane_set:
            if not isinstance(b, str) or not b:
                raise InvalidValueError(
                    f"brane labels must be nonempty strings, got {shown(b)}"
                )
        if not _ONLY_STR(map(type, brane_set)):
            # A str subclass is kept as the str it holds, so each arc and
            # window built from the brane set has an exact ``str`` brane.
            brane_set = frozenset(map(str.__str__, brane_set))
        try:
            entry_tuple = tuple(entries)
        except TypeError as exc:
            raise not_iterable("entries", exc) from None
        try:
            for pos, e in enumerate(entry_tuple, start=1):
                if isinstance(e, Interval):
                    for side in (e.left, e.right):
                        if side not in brane_set:
                            raise _undeclared(pos, side, brane_set)
                elif not isinstance(e, Circle):
                    raise InvalidValueError(
                        f"entry {pos}: not a Circle or Interval: {shown(e)}"
                    )
        except TypeError:  # an unhashable label, the ``side`` at ``pos``
            raise _undeclared(pos, side, brane_set) from None
        interval_positions = tuple(
            i for i, e in enumerate(entry_tuple, start=1) if isinstance(e, Interval)
        )
        if sigma is None:
            sigma = Permutation.identity(interval_positions)
        elif type(sigma) is not Permutation:
            raise wrong_type(Permutation, sigma)
        elif sigma.domain != interval_positions:
            raise _wrong_domain(sigma, interval_positions)
        _object_branes(self, brane_set)
        _object_entries(self, entry_tuple)
        _object_sigma(self, sigma)

    def __repr__(self) -> str:
        # The branes sorted, so that the repr does not depend on the hash seed.
        branes = ", ".join(map(repr, sorted(self.branes)))
        return (
            f"GeneralObject(branes=frozenset({{{branes}}}), "
            f"entries={self.entries!r}, sigma={self.sigma!r})"
        )

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def interval_indices(self) -> tuple[int, ...]:
        """1-based positions of the interval entries, in order."""
        return tuple(
            i for i, e in enumerate(self.entries, start=1) if isinstance(e, Interval)
        )

    @property
    def circle_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, e in enumerate(self.entries, start=1) if isinstance(e, Circle)
        )

    @property
    def c_number(self) -> int:
        """Circle count plus cycle count of sigma plus one.

        Equals the number of boundary circles of the minimal connected
        genus-zero surface from this object to a single circle, and is
        constant on each family of such surfaces (see ``calculus.realize``).
        """
        return len(self.circle_indices) + self.sigma.cycle_count + 1

    # -- monoidal structure ---------------------------------------------

    def tensor(self, other: "GeneralObject") -> "GeneralObject":
        """Juxtaposition: concatenate entries, shift the second sigma.

        Over one brane set the juxtaposition of two valid objects is valid
        by construction: the shifted pairs of the second sigma follow the
        sorted pairs of the first, on the interval positions of the
        concatenated entries.  So it is assembled directly, and no check
        runs.  Different brane sets raise ``InvalidValueError``.
        """
        if type(other) is not GeneralObject:
            raise wrong_type(GeneralObject, other)
        if self.branes != other.branes:
            raise InvalidValueError(
                f"brane sets differ: {sorted(self.branes)} versus "
                f"{sorted(other.branes)}"
            )
        n = len(self.entries)
        pairs = self.sigma.pairs + tuple((k + n, v + n) for k, v in other.sigma.pairs)
        return _object(self.branes, self.entries + other.entries, pairs)


_interval_labels = _setters(Interval)
(_permutation_pairs,) = _setters(Permutation)
_object_branes, _object_entries, _object_sigma = _setters(GeneralObject)


def _object(
    branes: frozenset[str],
    entries: tuple[Entry, ...],
    pairs: tuple[tuple[int, int], ...],
) -> GeneralObject:
    """The object with these slots, assembled with no check: ``branes`` a
    nonempty frozenset of exact ``str`` labels that holds every label of
    ``entries``, and ``pairs`` the sorted pairs of a permutation of exactly
    the interval positions of ``entries``, as ``GeneralObject`` stores them."""
    sigma = _new(Permutation)
    _permutation_pairs(sigma, pairs)
    obj = _new(GeneralObject)
    _object_branes(obj, branes)
    _object_entries(obj, entries)
    _object_sigma(obj, sigma)
    return obj
