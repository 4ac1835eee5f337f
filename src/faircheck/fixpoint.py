"""Least and greatest fixpoints of monotone set-to-set functions.

On the finite powerset lattice ascending iteration from the empty set and
descending iteration from the universe both stabilize within size+1 steps
for monotone functions: a strictly monotone chain of subsets has at most
size+1 members. Iteration is capped at size+1 steps, so a non-monotone input
that has not settled by then is reported rather than looped on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Literal

from .sets import SpaceMismatchError, StateSet, StateSpace


class NonMonotoneFunctionError(Exception):
    """Fixpoint iteration failed to stabilize within the lattice chain bound."""


@dataclass(frozen=True)
class SetFunction:
    """A total mapping over the subsets of one space."""

    space: StateSpace
    fn: Callable[[StateSet], StateSet]

    def __call__(self, x: StateSet) -> StateSet:
        if not x.space.same_as(self.space):
            raise SpaceMismatchError(x.space, self.space, "apply a set function to")
        out = self.fn(x)
        if not out.space.same_as(self.space):
            raise SpaceMismatchError(out.space, self.space, "return from a set function over")
        return out


def _iterate_until_fixed(f: SetFunction, start: StateSet) -> StateSet:
    budget = f.space.size + 1
    current = start
    for _ in range(budget):
        nxt = f(current)
        if nxt == current:
            return current
        current = nxt
    raise NonMonotoneFunctionError(
        f"no fixpoint within {budget} steps over space {f.space.id!r}; "
        "the function is not monotone"
    )


def lfp(f: SetFunction) -> StateSet:
    """Least fixpoint of a monotone f, by ascending iteration from empty."""
    return _iterate_until_fixed(f, f.space.empty())


def gfp(f: SetFunction) -> StateSet:
    """Greatest fixpoint of a monotone f, by descending iteration from the
    universe; equals the union of all pre-fixpoints x with x subset of f(x)."""
    return _iterate_until_fixed(f, f.space.universe())


def iterate_chain(f: SetFunction, i: int, start: StateSet) -> StateSet:
    """f applied i times to start."""
    if i < 0:
        raise ValueError("iteration count must be >= 0")
    current = start
    for _ in range(i):
        current = f(current)
    return current


@dataclass(frozen=True)
class MonotoneReport:
    ok: bool
    witness: tuple[StateSet, StateSet] | None = None

    def __bool__(self) -> bool:
        return self.ok


def monotone_check(
    f: SetFunction,
    mode: Literal["exhaustive", "sampled"] = "exhaustive",
    samples: int = 200,
    rng: random.Random | None = None,
) -> MonotoneReport:
    """Check s <= t implies f(s) <= f(t); returns a witness pair on failure.

    Exhaustive mode walks every ordered subset pair and requires size <= 12.
    """
    space = f.space
    n = space.size
    if mode == "exhaustive":
        if n > 12:
            raise ValueError(f"exhaustive monotonicity check needs size <= 12, got {n}")
        table = [f(StateSet(space, m)).mask for m in range(1 << n)]
        for t in range(1 << n):
            ft = table[t]
            # iterate proper submasks of t, plus the empty set
            s = (t - 1) & t
            while True:
                if table[s] & ~ft:
                    return MonotoneReport(False, (StateSet(space, s), StateSet(space, t)))
                if s == 0:
                    break
                s = (s - 1) & t
        return MonotoneReport(True)
    rng = rng or random.Random(0)
    for _ in range(samples):
        s_mask = rng.getrandbits(n)
        t_mask = s_mask | rng.getrandbits(n)
        s, t = StateSet(space, s_mask), StateSet(space, t_mask)
        if not f(s).is_subset(f(t)):
            return MonotoneReport(False, (s, t))
    return MonotoneReport(True)
