from __future__ import annotations

import random

import pytest

from faircheck import (
    NonMonotoneFunctionError,
    SetFunction,
    StateSpace,
    gfp,
    iterate_chain,
    lfp,
    monotone_check,
    str_apply,
)
from helpers import random_command, random_subset


def _random_monotone_functions(rng: random.Random, space: StateSpace, count: int):
    """Monotone set functions built from command transformers and simple
    union/intersection shapes."""
    out = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            c = random_command(rng, space, depth=2, total_only=True)
            out.append(SetFunction(space, lambda x, c=c: str_apply(c, x)))
        elif kind == 1:
            seed, cap = random_subset(rng, space), random_subset(rng, space)
            out.append(SetFunction(space, lambda x, s=seed, c=cap: s | (x & c)))
        else:
            k = random_subset(rng, space)
            out.append(SetFunction(space, lambda x, k=k: x | k))
    return out


def test_lfp_gfp_identity_and_constant():
    space = StateSpace("u", 4)
    ident = SetFunction(space, lambda x: x)
    assert lfp(ident).is_empty()
    assert gfp(ident) == space.universe()
    c = space.subset([1, 3])
    const = SetFunction(space, lambda x: c)
    assert lfp(const) == c
    assert gfp(const) == c


def test_iterate_chain_basics():
    space = StateSpace("u", 3)
    c = space.subset([0])
    const = SetFunction(space, lambda x: c)
    start = space.subset([1])
    assert iterate_chain(const, 0, start) == start
    assert iterate_chain(const, 1, start) == c
    with pytest.raises(ValueError):
        iterate_chain(const, -1, start)


def test_fixpoint_laws_and_duality_exhaustive():
    # lfp is the least of all post-fixpoints and equals the intersection of
    # them; gfp is the union of all pre-fixpoints; on every subset of a
    # small space, for a spread of monotone functions
    rng = random.Random(0)
    space = StateSpace("u", 5)
    for f in _random_monotone_functions(rng, space, 30):
        least, greatest = lfp(f), gfp(f)
        assert f(least) == least
        assert f(greatest) == greatest
        assert least.is_subset(greatest)
        post_meet = space.universe()
        pre_join = space.empty()
        for x in space.all_subsets():
            fx = f(x)
            if fx.is_subset(x):
                assert least.is_subset(x)
                post_meet = post_meet & x
            if x.is_subset(fx):
                assert x.is_subset(greatest)
                pre_join = pre_join | x
        assert post_meet == least
        assert pre_join == greatest


def test_chains_stay_below_lfp():
    rng = random.Random(1)
    space = StateSpace("u", 5)
    for f in _random_monotone_functions(rng, space, 20):
        bound = lfp(f)
        for i in range(space.size + 2):
            assert iterate_chain(f, i + 1, space.empty()).is_subset(bound)


def test_iteration_stabilizes_within_size_plus_one():
    rng = random.Random(2)
    space = StateSpace("u", 6)
    for f in _random_monotone_functions(rng, space, 20):
        current = space.empty()
        for _ in range(space.size + 1):
            nxt = f(current)
            if nxt == current:
                break
            current = nxt
        assert f(current) == current


def test_non_monotone_input_is_detected():
    space = StateSpace("u", 3)
    flip = SetFunction(space, lambda x: x.complement())
    with pytest.raises(NonMonotoneFunctionError):
        lfp(flip)
    with pytest.raises(NonMonotoneFunctionError):
        gfp(flip)


def test_non_monotone_detection_is_linear_in_size():
    # with a 2^size budget this would iterate ~10^12 times before giving up
    space = StateSpace("u", 40)
    calls = []
    flip = SetFunction(space, lambda x: calls.append(x) or x.complement())
    for fixpoint in (lfp, gfp):
        calls.clear()
        with pytest.raises(NonMonotoneFunctionError):
            fixpoint(flip)
        assert len(calls) == space.size + 1


def test_monotone_check_exhaustive_and_witness():
    space = StateSpace("u", 4)
    ident = SetFunction(space, lambda x: x)
    assert monotone_check(ident).ok
    flip = SetFunction(space, lambda x: x.complement())
    report = monotone_check(flip)
    assert not report.ok
    s, t = report.witness
    assert s.is_subset(t) and not flip(s).is_subset(flip(t))
    # the antitone complement is caught on the extreme pair as well
    assert not flip(space.empty()).is_subset(flip(space.universe()))


def test_monotone_check_exhaustive_size_gate():
    space = StateSpace("u", 13)
    ident = SetFunction(space, lambda x: x)
    with pytest.raises(ValueError):
        monotone_check(ident)


def test_set_function_space_discipline():
    space, other = StateSpace("u", 3), StateSpace("w", 3)
    f = SetFunction(space, lambda x: x)
    from faircheck import SpaceMismatchError

    with pytest.raises(SpaceMismatchError):
        f(other.universe())
    bad = SetFunction(space, lambda x: other.universe())
    with pytest.raises(SpaceMismatchError):
        bad(space.universe())
