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
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "STAR",
    "Circle",
    "Interval",
    "Entry",
    "Permutation",
    "GeneralObject",
]

#: Brane label used when no brane set is declared (single-brane mode).
STAR = "*"


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed entry.  Carries no labels."""


@dataclass(frozen=True, slots=True)
class Interval:
    """An open entry with brane labels at its left and right endpoints."""

    left: str
    right: str


Entry = Union[Circle, Interval]


@dataclass(frozen=True, slots=True, init=False)
class Permutation:
    """A bijection of a finite set of integers onto itself.

    Stored as an explicit sorted mapping, so the domain can be any index
    subset, for example the interval positions {2, 3, 4} of an object.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = sorted(dict(mapping).items())
        keys = [k for k, _ in items]
        values = sorted(v for _, v in items)
        for x in keys + values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"permutation entries must be integers, got {x!r}")
        if values != keys:
            raise ValueError(
                f"not a bijection: domain {keys} versus image {values}"
            )
        object.__setattr__(self, "pairs", tuple(items))

    # -- construction ----------------------------------------------------

    @classmethod
    def identity(cls, domain: Iterable[int]) -> "Permutation":
        return cls({i: i for i in domain})

    @classmethod
    def from_cycles(
        cls, cycles: Iterable[Iterable[int]], domain: Iterable[int]
    ) -> "Permutation":
        """Build from a cycle decomposition; unlisted elements are fixed.

        Every listed element must belong to ``domain`` and may appear only
        once across all cycles.
        """
        dom = set(domain)
        mapping = {i: i for i in dom}
        seen: set[int] = set()
        for cycle in cycles:
            cyc = list(cycle)
            for x in cyc:
                if x not in dom:
                    raise ValueError(f"cycle element {x} outside domain {sorted(dom)}")
                if x in seen:
                    raise ValueError(f"element {x} listed twice in cycle notation")
                seen.add(x)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                mapping[a] = b
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
        raise KeyError(f"{i} not in permutation domain {list(self.domain)}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

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

    # -- algebra ---------------------------------------------------------

    def inverse(self) -> "Permutation":
        return Permutation({v: k for k, v in self.pairs})

    def shifted(self, offset: int) -> "Permutation":
        return Permutation({k + offset: v + offset for k, v in self.pairs})

    def disjoint_union(self, other: "Permutation") -> "Permutation":
        overlap = set(self.domain) & set(other.domain)
        if overlap:
            raise ValueError(f"domains overlap on {sorted(overlap)}")
        return Permutation(dict(self.pairs) | dict(other.pairs))

    def __repr__(self) -> str:
        return f"Permutation({dict(self.pairs)!r})"


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
        brane_set = frozenset(branes)
        if not brane_set:
            raise ValueError("the brane set must be nonempty")
        for b in brane_set:
            if not isinstance(b, str) or not b:
                raise ValueError(f"brane labels must be nonempty strings, got {b!r}")
        entry_tuple = tuple(entries)
        for pos, e in enumerate(entry_tuple, start=1):
            if isinstance(e, Interval):
                for side in (e.left, e.right):
                    if side not in brane_set:
                        raise ValueError(
                            f"entry {pos}: brane {side!r} not in {sorted(brane_set)}"
                        )
            elif not isinstance(e, Circle):
                raise ValueError(f"entry {pos}: not a Circle or Interval: {e!r}")
        interval_positions = tuple(
            i for i, e in enumerate(entry_tuple, start=1) if isinstance(e, Interval)
        )
        if sigma is None:
            sigma = Permutation.identity(interval_positions)
        elif sigma.domain != interval_positions:
            raise ValueError(
                f"sigma domain {list(sigma.domain)} does not match interval "
                f"positions {list(interval_positions)}"
            )
        object.__setattr__(self, "branes", brane_set)
        object.__setattr__(self, "entries", entry_tuple)
        object.__setattr__(self, "sigma", sigma)

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
    def alpha(self) -> int:
        """Number of interval entries."""
        return len(self.interval_indices)

    def interval(self, index: int) -> Interval:
        """The interval entry at 1-based position ``index``."""
        if not 1 <= index <= len(self.entries):
            raise ValueError(f"index {index} out of range 1..{len(self.entries)}")
        e = self.entries[index - 1]
        if not isinstance(e, Interval):
            raise ValueError(f"entry {index} is a circle, not an interval")
        return e

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
        """Juxtaposition: concatenate entries, shift the second sigma."""
        if self.branes != other.branes:
            raise ValueError(
                f"brane sets differ: {sorted(self.branes)} versus "
                f"{sorted(other.branes)}"
            )
        return GeneralObject(
            self.branes,
            self.entries + other.entries,
            self.sigma.disjoint_union(other.sigma.shifted(len(self.entries))),
        )
