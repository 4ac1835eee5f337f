"""Least and greatest fixpoints of monotone set-to-set functions.

On the finite powerset lattice ascending iteration from the empty set and
descending iteration from the universe both stabilize within size+1 steps
for monotone functions: a strictly monotone chain of subsets has at most
size+1 members. Iteration is capped at size+1 steps, so a non-monotone input
that has not settled by then is reported rather than looped on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .commands import MAX_CHECK_STATES, CheckResult
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


def monotone_check(f: SetFunction) -> CheckResult:
    """Check s <= t implies f(s) <= f(t); returns a witness pair on failure.

    Every pair s <= t is joined by a chain of pairs that differ in one
    state, so checking those pairs, t - {i} <= t, decides all of them.
    Requires size <= MAX_CHECK_STATES.
    """
    space = f.space
    n = space.size
    if n > MAX_CHECK_STATES:
        raise ValueError(f"monotonicity check needs size <= {MAX_CHECK_STATES}, got {n}")
    table = [f(s).mask for s in space.all_subsets()]
    for t in space.all_subsets():
        for i in t:
            s = t - space.singleton(i)
            if table[s.mask] & ~table[t.mask]:
                return CheckResult(False, (s, t))
    return CheckResult(True)
