"""Finite state spaces, bit-vector state sets, and relations between spaces.

Everything else in the kit is built on these three values. Sets are dense
bitmasks over 0..size-1 and immutable.

A relation stores its edges once, in a layout that answers pre-images and
per-state successor lists, in memory linear in states plus edges. The
edges are grouped by their index shift d = t - s, and a shift shared by
enough edges becomes one source mask S_d, so

    pre_image(B) = OR_d S_d & (B >> d)

(a negative d shifts the other way). Events of the model language are
affine updates behind guards, so they need one to three such shifts however
large the space is. Of the other edges, a target shared by enough sources
(the assignment of a constant, say) becomes one source mask P_t, and the
rest are kept as two index arrays sorted by source. "Enough" is 1/1024 of
the source space, and at least two: a mask then takes at most 8 times the
memory the index arrays would take for its edges, and one operation
instead of one per edge. When the masks would outnumber the relation's
distinct targets, the relation groups by target only, so an unstructured
relation costs one mask operation per target, as a table of predecessor
rows would.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Collection, Iterable, Iterator


class SpaceMismatchError(Exception):
    """Raised when two values over different state spaces are combined."""

    def __init__(self, left: "StateSpace", right: "StateSpace", what: str = "operate on"):
        super().__init__(
            f"cannot {what} sets over distinct spaces "
            f"{left.id!r} (size {left.size}) and {right.id!r} (size {right.size})"
        )
        self.left = left
        self.right = right


@dataclass(frozen=True)
class StateSpace:
    """A finite universe of states indexed 0..size-1.

    Identity is nominal: two spaces are the same iff their ids match. This
    keeps abstract and concrete universes from being mixed by accident even
    when they happen to have equal cardinality. A state is only its index;
    the elaborated system that owns the space renders it.
    """

    id: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"state space {self.id!r} must have size >= 1, got {self.size}")

    def same_as(self, other: "StateSpace") -> bool:
        return self.id == other.id and self.size == other.size

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def empty(self) -> "StateSet":
        return StateSet(self, 0)

    def universe(self) -> "StateSet":
        return StateSet(self, self.full_mask)

    def subset(self, members: Iterable[int]) -> "StateSet":
        indices = list(members)
        if indices and not (0 <= min(indices) and max(indices) < self.size):
            bad = next(m for m in indices if not 0 <= m < self.size)
            raise ValueError(f"state index {bad} out of range for space {self.id!r}")
        return StateSet(self, _mask_of(indices))

    def singleton(self, member: int) -> "StateSet":
        if not 0 <= member < self.size:
            raise ValueError(f"state index {member} out of range for space {self.id!r}")
        return StateSet(self, 1 << member)

    def all_subsets(self) -> Iterator["StateSet"]:
        """Every subset of the space, in mask order. Only sane for small spaces."""
        for mask in range(1 << self.size):
            yield StateSet(self, mask)


def _require_same_space(a: "StateSet", b: "StateSet") -> None:
    if not a.space.same_as(b.space):
        raise SpaceMismatchError(a.space, b.space)


@dataclass(frozen=True)
class StateSet:
    """An immutable subset of a state space, stored as a bitmask."""

    space: StateSpace
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.space.full_mask:
            raise ValueError(f"set contains indices outside space {self.space.id!r}")

    # -- algebra ------------------------------------------------------------

    def union(self, other: "StateSet") -> "StateSet":
        _require_same_space(self, other)
        return StateSet(self.space, self.mask | other.mask)

    def intersect(self, other: "StateSet") -> "StateSet":
        _require_same_space(self, other)
        return StateSet(self.space, self.mask & other.mask)

    def difference(self, other: "StateSet") -> "StateSet":
        _require_same_space(self, other)
        return StateSet(self.space, self.mask & ~other.mask)

    def complement(self) -> "StateSet":
        return StateSet(self.space, self.space.full_mask & ~self.mask)

    def is_subset(self, other: "StateSet") -> bool:
        _require_same_space(self, other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __invert__ = complement
    __le__ = is_subset

    # -- queries ------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_universe(self) -> bool:
        return self.mask == self.space.full_mask

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(_indices(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter(_indices(self.mask))

    def flags(self) -> bytes:
        """One byte per state, 1 for members: constant-time membership for
        loops that visit many states."""
        return _flags(self.mask, self.space.size)

    def __repr__(self) -> str:
        return f"StateSet({self.space.id}:{{{', '.join(map(str, self.members()))}}})"


class StateRelation:
    """A relation between two spaces, possibly partial and non-functional.

    The edges are stored once, as shift masks S_d, target masks P_t and a
    remainder of index arrays (see the module docstring):

        pre_image(B) = OR_d S_d & (B >> d) | OR_{t in B} P_t | rest^-1(B)

    `right` holds the shifts d >= 0 as (d, S_d), `left` the shifts d < 0 as
    (-d, S_d), `columns` maps t to P_t, and the remainder is the edges
    (rest_sources[i], rest_targets[i]), sorted. The layout is canonical for
    a given edge set and the two sizes, except in a `union`, and `pairs` is
    read off it on demand. `successors` reads one byte per state of each
    mask, built on its first call.
    """

    __slots__ = (
        "source", "target", "right", "left", "columns", "rest_sources", "rest_targets",
        "_column_mask", "_domain", "_rows", "__weakref__",
    )

    def __init__(self, source: StateSpace, target: StateSpace, pairs: Iterable[tuple[int, int]]):
        self.source = source
        self.target = target
        n, m = source.size, target.size
        by_shift: dict[int, set[int]] = {}
        for s, t in pairs:
            if not 0 <= s < n:
                raise ValueError(f"relation source index {s} out of range for {source.id!r}")
            if not 0 <= t < m:
                raise ValueError(f"relation target index {t} out of range for {target.id!r}")
            by_shift.setdefault(t - s, set()).add(s)
        least = max(2, n >> 10)
        shifts = {d for d, sources in by_shift.items() if len(sources) >= least}
        by_target = _by_target(by_shift, shifts)
        if shifts:
            targets = {s + d for d, sources in by_shift.items() for s in sources}
            if len(shifts) + len(by_target) > len(targets):
                # grouping by shift leaves more groups than grouping by target
                shifts = set()
                by_target = _by_target(by_shift, shifts)
        columns = {t for t, sources in by_target.items() if len(sources) >= least}
        rest = sorted((s, t) for t, sources in by_target.items() if t not in columns
                      for s in sources)
        self._store(
            [(d, _mask_of(by_shift[d])) for d in sorted(shifts)],
            {t: _mask_of(by_target[t]) for t in sorted(columns)},
            rest,
        )

    @classmethod
    def union(
        cls,
        source: StateSpace,
        target: StateSpace,
        parts: Iterable[tuple[int, "StateRelation"]],
    ) -> "StateRelation":
        """The union of the relations of parts, each restricted to the
        sources in its guard mask, read off their masks and index arrays:
        one OR per shift and per target and one filter of each remainder,
        with no list of pairs. The parts keep their own classes, so one
        edge may be held by two of them; every query stays exact."""
        n = source.size
        shifts: dict[int, int] = {}
        columns: dict[int, int] = {}
        rest: set[tuple[int, int]] = set()
        for guard, rel in parts:
            if not rel.source.same_as(source):
                raise SpaceMismatchError(rel.source, source, "unite relations")
            if not rel.target.same_as(target):
                raise SpaceMismatchError(rel.target, target, "unite relations")
            for d, mask in rel.right:
                shifts[d] = shifts.get(d, 0) | mask & guard
            for d, mask in rel.left:
                shifts[-d] = shifts.get(-d, 0) | mask & guard
            for t, mask in rel.columns.items():
                columns[t] = columns.get(t, 0) | mask & guard
            if rel.rest_sources:
                keep = map(_flags(guard, n).__getitem__, rel.rest_sources)
                rest.update(compress(zip(rel.rest_sources, rel.rest_targets), keep))
        self = cls.__new__(cls)
        self.source = source
        self.target = target
        self._store(
            [(d, shifts[d]) for d in sorted(shifts) if shifts[d]],
            {t: columns[t] for t in sorted(columns) if columns[t]},
            sorted(rest),
        )
        return self

    def _store(
        self, masks: list[tuple[int, int]], columns: dict[int, int], rest: list[tuple[int, int]]
    ) -> None:
        """Keep the shift masks (d, S_d) ascending in d, the target masks
        ascending in t and the remainder edges sorted."""
        self.right = tuple((d, mask) for d, mask in masks if d >= 0)
        self.left = tuple((-d, mask) for d, mask in masks if d < 0)
        self.columns = columns
        self._column_mask = _mask_of(list(columns))
        self.rest_sources = array("q", [s for s, _ in rest])
        self.rest_targets = array("q", [t for _, t in rest])
        domain = _mask_of(self.rest_sources)
        for _, mask in masks:
            domain |= mask
        for mask in columns.values():
            domain |= mask
        self._domain = domain
        self._rows: tuple[tuple[bytes, int, bool], ...] | None = None

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """Every edge as a (source, target) tuple."""
        return frozenset(chain(
            ((s, s + d) for d, sources in self.right for s in _indices(sources)),
            ((s, s - d) for d, sources in self.left for s in _indices(sources)),
            ((s, t) for t, sources in self.columns.items() for s in _indices(sources)),
            zip(self.rest_sources, self.rest_targets),
        ))

    @classmethod
    def identity(cls, space: StateSpace) -> "StateRelation":
        return cls(space, space, ((i, i) for i in range(space.size)))

    def successors(self, index: int) -> tuple[int, ...]:
        """The targets related to one source state, ascending."""
        rows = self._rows
        if rows is None:
            n = self.source.size
            rows = self._rows = (
                tuple((_flags(m, n), d, True) for d, m in self.right)
                + tuple((_flags(m, n), -d, True) for d, m in self.left)
                + tuple((_flags(m, n), t, False) for t, m in self.columns.items())
            )
        out = [index + t if shift else t for flags, t, shift in rows if flags[index]]
        rest = self.rest_sources
        if rest:
            lo = bisect_left(rest, index)
            out += self.rest_targets[lo:bisect_right(rest, index, lo)]
        if len(out) > 1:
            # a union may hold one edge in two classes
            out = sorted(set(out))
        return tuple(out)

    def successors_mask(self, index: int) -> int:
        return _mask_of(self.successors(index))

    def pre_image_mask(self, mask: int) -> int:
        """Mask of all sources of pairs whose target bit is set in `mask`."""
        acc = 0
        for d, sources in self.right:
            acc |= sources & (mask >> d)
        for d, sources in self.left:
            acc |= sources & (mask << d)
        columns = self.columns
        for t in _indices(mask & self._column_mask):
            acc |= columns[t]
        if self.rest_sources:
            acc |= _gather(self.rest_targets, self.rest_sources, mask, self.target.size)
        return acc

    def inverse_image(self, s: StateSet) -> StateSet:
        """All sources of pairs whose target lies in s."""
        if not s.space.same_as(self.target):
            raise SpaceMismatchError(s.space, self.target, "take the inverse image of")
        return StateSet(self.source, self.pre_image_mask(s.mask))

    def domain(self) -> StateSet:
        """The source states related to at least one target."""
        return StateSet(self.source, self._domain)

    def is_total(self) -> bool:
        """True iff every source state is related to at least one target."""
        return self._domain == self.source.full_mask

    def __repr__(self) -> str:
        return f"StateRelation({self.source.id}->{self.target.id}, {sorted(self.pairs)})"


def _by_target(by_shift: dict[int, set[int]], skip: set[int]) -> dict[int, list[int]]:
    by_target: dict[int, list[int]] = {}
    for d, sources in by_shift.items():
        if d not in skip:
            for s in sources:
                by_target.setdefault(s + d, []).append(s)
    return by_target


# -- mask and index conversions ---------------------------------------------

_DIGITS = bytes.maketrans(b"01", b"\0\1")

# Listing a mask peels its lowest bit while it has fewer set bits than
# this, which costs a few operations as wide as the mask per bit; otherwise
# it walks one byte per position. Both costs grow with the width, and the
# walk wins from 100 to 400 bits at 600 to 100001 states.
_PEEL_BITS = 256


def _flags(mask: int, size: int) -> bytes:
    """One byte per index below size, 1 where mask has the bit."""
    # the sentinel bit at size fixes the length; reversed, position i is bit i
    return bin(mask | 1 << size)[:2:-1].encode().translate(_DIGITS)


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    if mask.bit_count() < _PEEL_BITS:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def _mask_of(indices: Collection[int]) -> int:
    """The mask with exactly the bits at the (nonnegative) indices set."""
    bits = bytearray((max(indices, default=0) >> 3) + 1)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _gather(keys: array, values: array, mask: int, size: int) -> int:
    """Mask of values[i] for every i whose keys[i] is set in mask, where
    every key is below size."""
    flags = _flags(mask, size)
    return _mask_of(list(compress(values, map(flags.__getitem__, keys))))
