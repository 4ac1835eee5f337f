"""Command AST and its three set-transformer semantics.

A command denotes three things over one finite space:

  liberal_apply(c, r)  largest start set from which c must end in r or loop
  pre_of(c)            start set from which c certainly terminates
  str_apply(c, r)      largest start set from which c must terminate in r

str is defined from the other two by the pairing identity
str(c)(r) = liberal(c)(r) & pre(c); for every constructor except the fair
choice this provably coincides with the usual structural weakest
precondition, and the test suite checks that coincidence against an
independent recursion.

Primitive commands are transition relations read demonically: from x the
command may move to any successor, and a state without successors is a
miracle (it establishes every postcondition). Choice is n-ary: it ranges
over a family of commands, and the empty family is magic. Fair choice runs
both operands fairly and accepts any proper outcome of either; it shares
the liberal semantics of plain choice but has a weaker termination demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, TypeVar

from .sets import SpaceMismatchError, StateRelation, StateSet, StateSpace

T = TypeVar("T")


class Command:
    """Base class; concrete commands are frozen dataclasses below."""

    @property
    def space(self) -> StateSpace:
        raise NotImplementedError


@dataclass(frozen=True)
class Skip(Command):
    at: StateSpace

    @property
    def space(self) -> StateSpace:
        return self.at


@dataclass(frozen=True)
class Prim(Command):
    """A primitive event given by a transition relation on one space."""

    rel: StateRelation

    def __post_init__(self) -> None:
        if not self.rel.source.same_as(self.rel.target):
            raise ValueError("primitive command needs a relation on a single space")

    @property
    def space(self) -> StateSpace:
        return self.rel.source


def _check_sub(space: StateSpace, body: Command) -> None:
    if not space.same_as(body.space):
        raise SpaceMismatchError(space, body.space, "build a command over")


@dataclass(frozen=True)
class Guard(Command):
    guard: StateSet
    body: Command

    def __post_init__(self) -> None:
        _check_sub(self.guard.space, self.body)

    @property
    def space(self) -> StateSpace:
        return self.guard.space


@dataclass(frozen=True)
class Precond(Command):
    require: StateSet
    body: Command

    def __post_init__(self) -> None:
        _check_sub(self.require.space, self.body)

    @property
    def space(self) -> StateSpace:
        return self.require.space


@dataclass(frozen=True)
class Choice(Command):
    """Demonic choice over a family of commands; the empty family is magic."""

    at: StateSpace
    options: tuple[Command, ...]

    def __post_init__(self) -> None:
        for option in self.options:
            _check_sub(self.at, option)

    @property
    def space(self) -> StateSpace:
        return self.at


@dataclass(frozen=True)
class Seq(Command):
    first: Command
    second: Command

    def __post_init__(self) -> None:
        _check_sub(self.first.space, self.second)

    @property
    def space(self) -> StateSpace:
        return self.first.space


@dataclass(frozen=True)
class Dovetail(Command):
    """Fair choice: both operands run fairly, any proper outcome is accepted."""

    left: Command
    right: Command

    def __post_init__(self) -> None:
        _check_sub(self.left.space, self.right)

    @property
    def space(self) -> StateSpace:
        return self.left.space


def magic(space: StateSpace) -> Command:
    """The empty choice: miraculous everywhere (guard false on all states)."""
    return Choice(space, ())


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def memo_on_owner(fn: Callable[..., T]) -> Callable[..., T]:
    """Keep fn(owner, *args) on the owner instance itself: one table per
    function, keyed by the values of the remaining arguments, so the memo
    goes away with the model that owns the owner. The owner needs an
    instance `__dict__` (frozen dataclasses have one); the arguments must
    be hashable, and an equal but distinct argument hits the memo."""
    slot = f"_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoised(owner: Any, *args: Any) -> T:
        try:
            return owner.__dict__[slot][args]
        except KeyError:
            value = fn(owner, *args)
            owner.__dict__.setdefault(slot, {})[args] = value
            return value

    return memoised


def liberal_apply(c: Command, r: StateSet) -> StateSet:
    """The liberal transformer: end in r or fail to terminate."""
    if not c.space.same_as(r.space):
        raise SpaceMismatchError(c.space, r.space, "apply a command to")
    space = c.space
    if isinstance(c, Skip):
        return r
    if isinstance(c, Prim):
        # x may stay in r iff none of its successors lies outside r
        full = space.full_mask
        return StateSet(space, full & ~c.rel.pre_image_mask(full & ~r.mask))
    if isinstance(c, Guard):
        return c.guard.complement() | liberal_apply(c.body, r)
    if isinstance(c, Precond):
        # The precondition contributes u when r is the whole space, nothing
        # otherwise, so the liberal reading of "require p" stays top-strict.
        top = space.universe() if r.is_universe() else space.empty()
        return (c.require | top) & liberal_apply(c.body, r)
    if isinstance(c, Choice):
        mask = space.full_mask
        for option in c.options:
            mask &= liberal_apply(option, r).mask
        return StateSet(space, mask)
    if isinstance(c, Seq):
        return liberal_apply(c.first, liberal_apply(c.second, r))
    if isinstance(c, Dovetail):
        return liberal_apply(c.left, r) & liberal_apply(c.right, r)
    raise TypeError(f"unknown command {c!r}")


@memo_on_owner
def pre_of(c: Command) -> StateSet:
    """The termination set: states from which c certainly terminates."""
    space = c.space
    if isinstance(c, (Skip, Prim)):
        return space.universe()
    if isinstance(c, Guard):
        return c.guard.complement() | pre_of(c.body)
    if isinstance(c, Precond):
        return c.require & pre_of(c.body)
    if isinstance(c, Choice):
        mask = space.full_mask
        for option in c.options:
            mask &= pre_of(option).mask
        return StateSet(space, mask)
    if isinstance(c, Seq):
        return str_apply(c.first, pre_of(c.second))
    if isinstance(c, Dovetail):
        # Fair execution halts if both operands terminate, or one can act
        # and terminates (the other operand's looping is then irrelevant).
        pf, pg = pre_of(c.left), pre_of(c.right)
        return (pf & pg) | (grd_of(c.left) & pf) | (grd_of(c.right) & pg)
    raise TypeError(f"unknown command {c!r}")


def str_apply(c: Command, r: StateSet) -> StateSet:
    """The total-correctness transformer, via the pairing identity."""
    return liberal_apply(c, r) & pre_of(c)


@memo_on_owner
def grd_of(c: Command) -> StateSet:
    """The guard: states where execution of c is possible (not miraculous)."""
    return str_apply(c, c.space.empty()).complement()


def _co_singleton_masks(c: Command) -> list[int]:
    """str(c)(u - {t}) for every state t, as masks."""
    space = c.space
    return [str_apply(c, space.singleton(t).complement()).mask for t in range(space.size)]


def transition_relation(c: Command) -> StateRelation:
    """Extract the transition relation a conjunctive, always-terminating
    command denotes: t is a successor of x iff x cannot force avoidance of
    t, that is x is outside str(c)(u - {t}).

    States outside grd_of(c) get no successors. Only meaningful for commands
    with pre_of(c) = u; used to run events operationally.
    """
    space = c.space
    columns = enumerate(_co_singleton_masks(c))
    pairs = ((x, t) for t, column in columns for x in StateSet(space, column).complement())
    return StateRelation(space, space, pairs)


# ---------------------------------------------------------------------------
# Semantic health checks
# ---------------------------------------------------------------------------


# The exact health checks enumerate every subset of a space, so they take
# spaces of at most this many states.
MAX_CHECK_STATES = 12


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: tuple[StateSet, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def conjunctivity_check(c: Command) -> CheckResult:
    """Does str(c) distribute over binary intersection?

    Decided exactly by the equivalent meet decomposition str(c)(r) =
    str(c)(u) & AND of str(c)(u - {t}) for t outside r, over every subset r;
    on violation a failing pair is peeled out of the chain of co-singleton
    meets that builds the failing r. Requires size <= MAX_CHECK_STATES.
    """
    space = c.space
    n = space.size
    if n > MAX_CHECK_STATES:
        raise ValueError(f"conjunctivity check needs size <= {MAX_CHECK_STATES}, got {n}")
    apply = lambda s: str_apply(c, s)
    cols = _co_singleton_masks(c)
    # meets[m] = str(c)(u) & AND of cols[t] for t outside m, read off the
    # mask that adds m's lowest missing state
    meets = [apply(space.universe()).mask] * (1 << n)
    for m in range((1 << n) - 2, -1, -1):
        low = ~m & (m + 1)
        meets[m] = meets[m | low] & cols[low.bit_length() - 1]
    for r in space.all_subsets():
        if apply(r).mask != meets[r.mask]:
            acc = space.universe()
            for t in r.complement():
                nxt = space.singleton(t).complement()
                if apply(acc & nxt) != apply(acc) & apply(nxt):
                    return CheckResult(False, (acc, nxt))
                acc = acc & nxt
            return CheckResult(False, (acc, acc))  # unreachable when r truly fails
    return CheckResult(True)
