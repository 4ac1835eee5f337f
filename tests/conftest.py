from __future__ import annotations

from types import SimpleNamespace

import pytest

# helpers.py holds reference checks; rewrite its asserts so they also run
# under `python -O`, like those of the test modules
pytest.register_assert_rewrite("helpers")

from faircheck import (
    EnsuresProperty,
    EventSystem,
    Guard,
    Prim,
    StateRelation,
    StateSpace,
)


@pytest.fixture
def ctr() -> SimpleNamespace:
    """The counter fixture: 1 and 2 swap under inc, done sends both to 3."""
    space = StateSpace("u", 4)
    inc = Guard(space.subset([1, 2]), Prim(StateRelation(space, space, [(1, 2), (2, 1)])))
    done = Guard(space.subset([1, 2]), Prim(StateRelation(space, space, [(1, 3), (2, 3)])))
    system = EventSystem(space, {"inc": inc, "done": done})
    p, q = space.subset([1, 2]), space.subset([3])
    prop = EnsuresProperty("P1", frozenset({"done"}), p, q)
    return SimpleNamespace(space=space, inc=inc, done=done, system=system, p=p, q=q, prop=prop)


@pytest.fixture
def ctr_leaky(ctr: SimpleNamespace) -> SimpleNamespace:
    space = ctr.space
    leak = Guard(space.subset([2]), Prim(StateRelation(space, space, [(2, 0)])))
    system = EventSystem(space, {"inc": ctr.inc, "done": ctr.done, "leak": leak})
    return SimpleNamespace(space=space, system=system, p=ctr.p, q=ctr.q, prop=ctr.prop)
