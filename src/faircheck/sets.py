"""Finite state spaces, bit-vector state sets, and relations between spaces.

Everything else in the kit is built on these three values. Sets are dense
bitmasks over 0..size-1 and immutable. A relation keeps one successor mask
per source state, so its image peels the set bits of the source set.

Pre-images (the inverse image, and through it the liberal transformer of a
primitive command) go through a kernel built on first use: the edges are
grouped by their index shift t - s, and each shift shared by two or more
edges becomes one source mask, so the pre-image of a set B is an OR of
`mask & (B >> shift)` terms. Events of the model language are affine
updates behind guards, so they need one to three such shifts however large
the space is. Edges whose shift is not shared are grouped by target. When
shifts would need more masks than the relation has targets, the kernel
falls back to grouping every edge by target, and a pre-image then costs
one OR per target in B, as a table of predecessor rows would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


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
    when they happen to have equal cardinality.
    """

    id: str
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"state space {self.id!r} must have size >= 1, got {self.size}")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError(
                f"state space {self.id!r}: {len(self.labels)} labels for {self.size} states"
            )

    def same_as(self, other: "StateSpace") -> bool:
        return self.id == other.id and self.size == other.size

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return str(index)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def empty(self) -> "StateSet":
        return StateSet(self, 0)

    def universe(self) -> "StateSet":
        return StateSet(self, self.full_mask)

    def subset(self, members: Iterable[int]) -> "StateSet":
        mask = 0
        for m in members:
            if not 0 <= m < self.size:
                raise ValueError(f"state index {m} out of range for space {self.id!r}")
            mask |= 1 << m
        return StateSet(self, mask)

    def singleton(self, member: int) -> "StateSet":
        return self.subset((member,))

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
        return bin(self.mask).count("1")

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.space.size) if self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def pretty(self) -> str:
        return "{" + ", ".join(self.space.label_of(i) for i in self) + "}"

    def __repr__(self) -> str:
        return f"StateSet({self.space.id}:{{{', '.join(map(str, self.members()))}}})"


class StateRelation:
    """A relation between two spaces, possibly partial and non-functional."""

    def __init__(self, source: StateSpace, target: StateSpace, pairs: Iterable[tuple[int, int]]):
        self.source = source
        self.target = target
        self.pairs = frozenset(pairs)
        succ = [0] * source.size
        for s, t in self.pairs:
            if not 0 <= s < source.size:
                raise ValueError(f"relation source index {s} out of range for {source.id!r}")
            if not 0 <= t < target.size:
                raise ValueError(f"relation target index {t} out of range for {target.id!r}")
            succ[s] |= 1 << t
        self._succ = tuple(succ)
        self._plan: PreImagePlan | None = None

    @classmethod
    def identity(cls, space: StateSpace) -> "StateRelation":
        return cls(space, space, ((i, i) for i in range(space.size)))

    def successors_mask(self, index: int) -> int:
        return self._succ[index]

    def successors(self, index: int) -> StateSet:
        return StateSet(self.target, self._succ[index])

    def image(self, a: StateSet) -> StateSet:
        """All targets of pairs whose source lies in a."""
        if not a.space.same_as(self.source):
            raise SpaceMismatchError(a.space, self.source, "take the image of")
        mask = 0
        rest = a.mask
        while rest:
            low = rest & -rest
            mask |= self._succ[low.bit_length() - 1]
            rest ^= low
        return StateSet(self.target, mask)

    def pre_image_mask(self, mask: int) -> int:
        """Mask of all sources of pairs whose target bit is set in `mask`;
        the kernel is built on first use."""
        if self._plan is None:
            self._plan = PreImagePlan(self.pairs)
        return self._plan.apply(mask)

    def inverse_image(self, s: StateSet) -> StateSet:
        """All sources of pairs whose target lies in s."""
        if not s.space.same_as(self.target):
            raise SpaceMismatchError(s.space, self.target, "take the inverse image of")
        return StateSet(self.source, self.pre_image_mask(s.mask))

    def is_total(self) -> bool:
        """True iff every source state is related to at least one target."""
        return all(self._succ[i] != 0 for i in range(self.source.size))

    def converse_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((t, s) for s, t in self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateRelation):
            return NotImplemented
        return (
            self.source.same_as(other.source)
            and self.target.same_as(other.target)
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.source.id, self.target.id, self.pairs))

    def __repr__(self) -> str:
        return f"StateRelation({self.source.id}->{self.target.id}, {sorted(self.pairs)})"


def _mask_of(indices: list[int]) -> int:
    bits = bytearray((max(indices) >> 3) + 1)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


class PreImagePlan:
    """Pre-image of a relation as a few shifted masks plus per-target masks.

    The edges (s, t) are grouped by shift d = t - s. A shift class with at
    least two edges becomes one source mask S_d, and every edge of a
    single-edge shift goes to a per-target source mask P_t, so

        pre_image(B) = OR_d S_d & (B >> d)  |  OR_{t in B} P_t

    (a negative d shifts left). When that would need more classes than the
    relation has distinct targets, every edge goes to a per-target mask
    instead, so an unstructured relation costs one OR per target in B, as
    a table of predecessor rows would.
    """

    __slots__ = ("right", "left", "targets", "preds")

    def __init__(self, pairs: frozenset[tuple[int, int]]):
        by_shift: dict[int, list[int]] = {}
        for s, t in pairs:
            by_shift.setdefault(t - s, []).append(s)
        shared = {d for d, sources in by_shift.items() if len(sources) > 1}
        singles = {sources[0] + d for d, sources in by_shift.items() if len(sources) == 1}
        if len(shared) + len(singles) > len({t for _, t in pairs}):
            shared = set()
        by_target: dict[int, list[int]] = {}
        for d, sources in by_shift.items():
            if d not in shared:
                for s in sources:
                    by_target.setdefault(s + d, []).append(s)
        masks = sorted((d, _mask_of(by_shift[d])) for d in shared)
        self.right = tuple((d, m) for d, m in masks if d >= 0)
        self.left = tuple((-d, m) for d, m in masks if d < 0)
        self.preds = {t: _mask_of(sources) for t, sources in by_target.items()}
        self.targets = _mask_of(list(self.preds)) if self.preds else 0

    def apply(self, mask: int) -> int:
        acc = 0
        for d, sources in self.right:
            acc |= sources & (mask >> d)
        for d, sources in self.left:
            acc |= sources & (mask << d)
        rest = mask & self.targets
        preds = self.preds
        # peeling costs a few operations as wide as B per target, walking
        # bin(B) one cheap step per bit position; the walk wins from about
        # one target per 8 positions at 3000 states and per 12 at 6000, and
        # 16 errs towards the walk, whose step cost does not grow with B
        if rest.bit_count() * 16 < rest.bit_length():
            while rest:
                low = rest & -rest
                acc |= preds[low.bit_length() - 1]
                rest ^= low
        elif rest:
            # reversed, position i of bin(rest) is target i
            for sources in [preds[t] for t, bit in enumerate(bin(rest)[:1:-1]) if bit == "1"]:
                acc |= sources
        return acc
