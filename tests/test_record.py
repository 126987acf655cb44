"""``prefplan.record`` against ``dataclasses`` as the oracle: the same classes,
declared both ways, must construct, compare, hash, print and refuse alike."""

import dataclasses
from functools import cached_property
from types import SimpleNamespace
from unittest import mock

import pytest

from prefplan import record as rec


def declare(make, field) -> SimpleNamespace:
    """The test classes; ``make(frozen)`` gives the class decorator."""

    @make(frozen=True)
    class Leaf:
        pass

    @make(frozen=True)
    class Pair:
        left: object
        right: object = 0

    @make(frozen=True)
    class Sub(Pair):
        extra: int = 1

    @make(frozen=True)
    class Region:
        kind: str
        rows: dict = field(default_factory=dict, compare=False, repr=False)

        @cached_property
        def size(self) -> int:
            return len(self.rows)

    @make(frozen=False)
    class Mutable:
        name: str
        items: list = field(default_factory=list)
        count: int = 0

    return SimpleNamespace(
        Leaf=Leaf, Pair=Pair, Sub=Sub, Region=Region, Mutable=Mutable
    )


ORACLE = declare(lambda frozen: dataclasses.dataclass(frozen=frozen), dataclasses.field)
RECORD = declare(lambda frozen: lambda cls: rec.record(cls, frozen), rec.field)


def assign(obj, name, value):
    setattr(obj, name, value)


def delete(obj, name):
    delattr(obj, name)


def mutated(m):
    m.count = 3
    m.items.append("x")
    return m


def equal_pairwise(ns):
    """Every ``==`` among equal and unequal records, two of them hashed
    (their hash cached) and two not."""
    pairs = [ns.Pair(0, 1), ns.Pair(1, 1), ns.Pair(0, 1), ns.Pair(1, 1)]
    hash(pairs[0]), hash(pairs[1])
    return [[a == b for b in pairs] for a in pairs]


def cached(region):
    return region.size, region.size, vars(region)["size"]


SCENARIOS = {
    "by position": lambda ns: repr(ns.Pair(1, "two")),
    "by keyword": lambda ns: repr(ns.Pair(right=2, left=1)),
    "by default": lambda ns: repr(ns.Pair(1)),
    "by factory": lambda ns: (
        repr(mutated(ns.Mutable("a"))), ns.Mutable("b").items, ns.Region("r").rows
    ),
    "nested": lambda ns: repr(ns.Pair(ns.Leaf(), ns.Pair("x", None))),
    "inherited fields": lambda ns: (repr(ns.Sub(1)), repr(ns.Sub(1, 2, 3)), repr(ns.Sub(extra=5, left=0))),
    "missing argument": lambda ns: ns.Pair(),
    "missing keyword": lambda ns: ns.Pair(right=2),
    "too many arguments": lambda ns: ns.Pair(1, 2, 3),
    "repeated argument": lambda ns: ns.Pair(1, left=2),
    "unexpected argument": lambda ns: ns.Pair(1, bogus=2),
    "equal": lambda ns: (
        ns.Pair(1, 2) == ns.Pair(1, 2),
        ns.Pair(1, 2) != ns.Pair(1, 2),
        ns.Pair(1, 2) == ns.Pair(1, 3),
        ns.Pair(1, 2) != ns.Pair(1, 3),
        ns.Pair(1, 2) == ns.Pair(1.0, 2),
        ns.Pair([1], {2: 3}) == ns.Pair([1], {2: 3}),
        ns.Leaf() == ns.Leaf(),
        ns.Pair(ns.Leaf(), ns.Pair(1)) == ns.Pair(ns.Leaf(), ns.Pair(1)),
    ),
    "equal across classes": lambda ns: (
        ns.Pair(1, 0) == ns.Sub(1, 0),
        ns.Sub(1, 0) == ns.Pair(1, 0),
        ns.Leaf() == ns.Pair(1),
        ns.Leaf() != ns.Pair(1),
        ns.Pair(1, 2) == (1, 2),
        (1, 2) == ns.Pair(1, 2),
        ns.Pair(1, 2) != (1, 2),
        ns.Pair(1, 2) == mock.ANY,
        ns.Pair(1, 2).__eq__((1, 2)),
        ns.Mutable("a") == ns.Pair("a"),
    ),
    "equal after hashing": lambda ns: equal_pairwise(ns),
    "hash": lambda ns: (
        hash(ns.Pair(1, 2)),
        hash(ns.Pair(1, 2)) == hash(ns.Pair(1.0, 2)),
        hash(ns.Leaf()),
        hash(ns.Sub(1)),
        hash(ns.Pair("a", (ns.Leaf(), frozenset({1})))),
    ),
    "hash of an unhashable field": lambda ns: hash(ns.Pair([1], 2)),
    "field left out of comparison": lambda ns: (
        ns.Region("a", {1: 2}) == ns.Region("a", {}),
        ns.Region("a", {1: 2}) == ns.Region("b", {1: 2}),
        hash(ns.Region("a", {1: 2})) == hash(ns.Region("a")),
        hash(ns.Region("a", {1: 2})),
        repr(ns.Region("a", {1: 2})),
    ),
    "mutable": lambda ns: (
        mutated(ns.Mutable("a")) == ns.Mutable("a", ["x"], 3),
        mutated(ns.Mutable("a")) == ns.Mutable("a"),
        ns.Mutable("a") == ns.Mutable("a"),
        ns.Mutable("a").items is not ns.Mutable("a").items,
    ),
    "mutable is unhashable": lambda ns: hash(ns.Mutable("a")),
    "frozen assignment": lambda ns: assign(ns.Pair(1, 2), "left", 3),
    "frozen new attribute": lambda ns: assign(ns.Pair(1, 2), "other", 3),
    "frozen deletion": lambda ns: delete(ns.Pair(1, 2), "left"),
    "cached property on a frozen record": lambda ns: cached(ns.Region("a", {1: 2, 3: 4})),
}


def outcome(scenario, ns):
    """The scenario's value, or the builtin class of the exception it raised
    (``dataclasses`` raises ``FrozenInstanceError``, an ``AttributeError``)."""
    try:
        return "value", scenario(ns)
    except Exception as exc:
        return "raised", next(c for c in type(exc).__mro__ if c.__module__ == "builtins")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_record_matches_dataclasses(name):
    assert outcome(SCENARIOS[name], RECORD) == outcome(SCENARIOS[name], ORACLE)


REFUSALS = {
    "missing argument",
    "missing keyword",
    "too many arguments",
    "repeated argument",
    "unexpected argument",
    "hash of an unhashable field",
    "mutable is unhashable",
    "frozen assignment",
    "frozen new attribute",
    "frozen deletion",
}


def test_only_the_refusals_raise():
    raised = {name for name, scenario in SCENARIOS.items() if outcome(scenario, ORACLE)[0] == "raised"}
    assert raised == REFUSALS


def test_fields_compare_with_the_identity_test_of_a_tuple():
    """Values are compared as tuples compare their items, identity first, as
    ``dataclasses`` does up to Python 3.12 (3.13 compares with ``==`` alone),
    so no oracle scenario holds a value unequal to itself."""
    ns = RECORD
    nan = float("nan")
    assert ns.Region(nan) == ns.Region(nan)  # one compared field: a bare value
    assert ns.Pair(nan, nan) == ns.Pair(nan, nan)
    assert ns.Region(nan) != ns.Region(float("nan"))


def test_methods_defined_in_the_class_body_are_kept():
    class Named(rec.Record):
        name: str

        def __repr__(self):
            return f"<{self.name}>"

    assert repr(Named("x")) == "<x>"
    assert Named("x") == Named("x")


def test_record_subclasses_are_frozen_unless_declared_mutable():
    class Node(rec.Record):
        label: str

    class Leaf(Node):
        weight: int = 1

    class Tally(rec.Record, frozen=False):
        count: int = 0

    leaf = Leaf("a")
    assert repr(leaf) == f"{Leaf.__qualname__}(label='a', weight=1)"
    assert leaf == Leaf("a", 1) != Node("a")
    assert hash(leaf) == hash(("a", 1))
    with pytest.raises(AttributeError):
        leaf.weight = 2
    tally = Tally()
    tally.count += 1
    assert tally == Tally(1)
    with pytest.raises(TypeError):
        hash(tally)
