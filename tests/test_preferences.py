"""Preference structure construction, MP sets, and outcome-set comparison."""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefplan.preferences import (
    Comparison,
    PreferenceError,
    build_spec,
    load_preference_document,
    spec_to_json,
)
from prefplan.scltl import Or, fmt, parse

from conftest import index_of


def names(spec, pairs):
    return sorted((spec.outcomes[i].name, spec.outcomes[j].name) for i, j in pairs)


def test_build_spec_po2(po2_spec):
    _, spec = po2_spec
    assert [o.name for o in spec.outcomes] == ["phiA", "phiB|phiC", "phiD", "phiF"]
    merged = spec.outcomes[1].formula
    assert isinstance(merged, Or)
    assert names(spec, spec.strict) == [
        ("phiB|phiC", "phiA"),
        ("phiD", "phiA"),
        ("phiD", "phiB|phiC"),
        ("phiF", "phiA"),
        ("phiF", "phiB|phiC"),
    ]
    assert names(spec, spec.incomparable) == [("phiD", "phiF"), ("phiF", "phiD")]


def test_build_spec_po1(po1_spec):
    _, spec = po1_spec
    assert names(spec, spec.strict) == [("visit_B", "visit_A"), ("visit_E", "visit_A")]
    assert names(spec, spec.incomparable) == [("visit_B", "visit_E"), ("visit_E", "visit_B")]


def test_build_spec_cycle_rejected():
    atoms = ("a", "b")
    with pytest.raises(PreferenceError, match="cycle"):
        build_spec(
            outcomes=[("x", parse("F a", atoms)), ("y", parse("F b", atoms))],
            statements=[("strict", "x", "y"), ("strict", "y", "x")],
        )


def test_build_spec_transitive_cycle_rejected():
    atoms = ("a", "b")
    with pytest.raises(PreferenceError, match="cycle"):
        build_spec(
            outcomes=[
                ("x", parse("F a", atoms)),
                ("y", parse("F b", atoms)),
                ("z", parse("a U b", atoms)),
            ],
            statements=[("strict", "x", "y"), ("strict", "y", "z"), ("strict", "z", "x")],
        )


@given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
                      min_size=2, max_size=8))
@example(pairs=[(0, 2), (2, 0)])
@settings(derandomize=True, max_examples=200, deadline=None)
def test_build_spec_cycle_error_names_outcomes_preferred_to_each_other(pairs):
    """A cycle is reported by two distinct outcomes, each reachable from the other."""
    atoms = ("a",)
    outcomes = [(f"o{i}", parse("F a", atoms)) for i in range(5)]
    try:
        build_spec(outcomes, [("strict", f"o{i}", f"o{j}") for i, j in pairs])
    except PreferenceError as e:
        a, b = (int(x) for x in re.fullmatch(r"cycle in strict preferences involving 'o(\d)' and 'o(\d)'", str(e)).groups())
    else:
        return
    reach = {i: {j for i2, j in pairs if i2 == i} for i in range(5)}
    for _ in range(5):
        reach = {i: r.union(*(reach[j] for j in r)) for i, r in reach.items()}
    assert a != b and b in reach[a] and a in reach[b]


def test_build_spec_contradiction_rejected():
    atoms = ("a", "b")
    with pytest.raises(PreferenceError, match="contradictory"):
        build_spec(
            outcomes=[("x", parse("F a", atoms)), ("y", parse("F b", atoms))],
            statements=[("strict", "x", "y"), ("indifferent", "x", "y")],
        )


def test_build_spec_merges_chained_indifference():
    # z ~ y and x ~ y make one class, though no statement names x and z together.
    atoms = ("a", "b")
    spec = build_spec(
        outcomes=[(name, parse("F a", atoms)) for name in ("w", "x", "y", "z")],
        statements=[("indifferent", "z", "y"), ("indifferent", "x", "y"), ("strict", "w", "z")],
    )
    assert [o.name for o in spec.outcomes] == ["w", "x|y|z"]
    assert names(spec, spec.strict) == [("w", "x|y|z")]


def test_build_spec_unknown_name_rejected():
    atoms = ("a",)
    with pytest.raises(PreferenceError, match="unknown outcome 'ghost'"):
        build_spec(
            outcomes=[("x", parse("F a", atoms))],
            statements=[("strict", "x", "ghost")],
        )


@pytest.mark.parametrize("kind", ["prefer", "Strict", ""])
def test_build_spec_unknown_statement_kind_rejected(kind):
    with pytest.raises(PreferenceError) as err:
        build_spec(outcomes=[("x", parse("F a", ("a",)))], statements=[(kind, "x", "x")])
    assert str(err.value) == f"unknown statement kind {kind!r}"


def test_build_spec_self_comparison_rejected():
    atoms = ("a",)
    with pytest.raises(PreferenceError, match="self-comparison on outcome 'x'"):
        build_spec(
            outcomes=[("x", parse("F a", atoms))],
            statements=[("strict", "x", "x")],
        )


def test_mp_po2_example(po2_spec):
    _, spec = po2_spec
    iA = index_of(spec, "phiA")
    iD = index_of(spec, "phiD")
    iF = index_of(spec, "phiF")
    assert spec.mp({iA, iD, iF}) == {iD, iF}


def test_mp_empty_and_singleton(po2_spec):
    _, spec = po2_spec
    assert spec.mp(set()) == frozenset()
    assert spec.mp({0}) == {0}


def test_compare_po2_strictly_better(po2_spec):
    _, spec = po2_spec
    iBC = index_of(spec, "phiB|phiC")
    iD = index_of(spec, "phiD")
    iF = index_of(spec, "phiF")
    assert spec.compare({iD, iF}, {iBC}) is Comparison.STRICTLY_BETTER
    assert spec.compare({iBC}, {iD, iF}) is Comparison.STRICTLY_WORSE


def test_compare_identical_indifferent(po2_spec):
    _, spec = po2_spec
    iD = index_of(spec, "phiD")
    assert spec.compare({iD}, {iD}) is Comparison.INDIFFERENT


def test_compare_po1_incomparable(po1_spec):
    _, spec = po1_spec
    iB = index_of(spec, "visit_B")
    iE = index_of(spec, "visit_E")
    assert spec.compare({iB}, {iE}) is Comparison.INCOMPARABLE


def test_compare_recomputes_mp(po2_spec):
    # Non-MP-closed inputs are closed internally before comparison.
    _, spec = po2_spec
    iA = index_of(spec, "phiA")
    iD = index_of(spec, "phiD")
    assert spec.compare({iA, iD}, {iD}) is Comparison.INDIFFERENT


def test_compare_empty_sets(po2_spec):
    _, spec = po2_spec
    assert spec.compare(set(), set()) is Comparison.INDIFFERENT
    assert spec.compare(set(), {0}) is Comparison.INCOMPARABLE


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def random_specs_up_to_six():
    atoms = ("a", "b")
    base = [
        ("o0", parse("F a", atoms)),
        ("o1", parse("F b", atoms)),
        ("o2", parse("a U b", atoms)),
        ("o3", parse("b U a", atoms)),
        ("o4", parse("F (a & b)", atoms)),
        ("o5", parse("F (a | b)", atoms)),
    ]
    import random as _random

    rng = _random.Random(99)
    out = []
    for n in range(1, 7):
        for _ in range(6):
            statements = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        statements.append(("strict", f"o{i}", f"o{j}"))
            out.append(build_spec(base[:n], statements))
    return out


@pytest.mark.parametrize("spec", random_specs_up_to_six())
def test_mp_elements_pairwise_incomparable(spec):
    # Every pair of distinct most-preferred outcomes is J-related.
    indices = range(spec.n)
    for r in range(spec.n + 1):
        for psi in itertools.combinations(indices, r):
            mp = spec.mp(psi)
            for i in mp:
                for j in mp:
                    if i != j:
                        assert (i, j) in spec.incomparable


@pytest.mark.parametrize("spec", random_specs_up_to_six()[:12])
def test_compare_swap_symmetry(spec):
    indices = range(spec.n)
    subsets = [frozenset(c) for r in range(spec.n + 1) for c in itertools.combinations(indices, r)]
    flipped = {
        Comparison.STRICTLY_BETTER: Comparison.STRICTLY_WORSE,
        Comparison.STRICTLY_WORSE: Comparison.STRICTLY_BETTER,
        Comparison.INDIFFERENT: Comparison.INDIFFERENT,
        Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
    }
    for x in subsets:
        for y in subsets:
            assert spec.compare(y, x) is flipped[spec.compare(x, y)]


def test_partition_after_build(po2_spec):
    _, spec = po2_spec
    n = spec.n
    converse = {(j, i) for i, j in spec.strict}
    everything = {(i, j) for i in range(n) for j in range(n) if i != j}
    assert spec.strict | converse | spec.incomparable == everything
    assert not spec.strict & converse
    assert not spec.strict & spec.incomparable
    assert not converse & spec.incomparable
    # J is exactly the distinct pairs P orders in neither direction.
    assert spec.incomparable == {
        (i, j) for i, j in everything if (i, j) not in spec.strict and (j, i) not in spec.strict
    }


def test_build_spec_idempotent(po2_spec):
    # Re-declaring the closed spec's outcomes and strict pairs rebuilds it.
    atoms, spec = po2_spec
    rebuilt = build_spec(
        outcomes=[(o.name, o.formula) for o in spec.outcomes],
        statements=[
            ("strict", spec.outcomes[i].name, spec.outcomes[j].name) for i, j in spec.strict
        ],
    )
    assert [o.name for o in rebuilt.outcomes] == [o.name for o in spec.outcomes]
    assert {(i, j) for i, j in rebuilt.strict} == set(spec.strict)
    assert set(rebuilt.incomparable) == set(spec.incomparable)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_declarations_always_partition(data):
    atoms = ("a", "b")
    n = data.draw(st.integers(min_value=1, max_value=5))
    pool = ["F a", "F b", "a U b", "b U a", "F (a & b)"]
    outcomes = [(f"o{i}", parse(pool[i], atoms)) for i in range(n)]
    statements = []
    for i in range(n):
        for j in range(i + 1, n):
            kind = data.draw(st.sampled_from(["none", "strict", "indifferent"]))
            if kind == "strict":
                statements.append(("strict", f"o{i}", f"o{j}"))
            elif kind == "indifferent":
                statements.append(("indifferent", f"o{i}", f"o{j}"))
    try:
        spec = build_spec(outcomes, statements)
    except PreferenceError:
        return  # contradiction between a strict edge and a merge; fine
    # What build_spec guarantees: P relates outcomes, and is irreflexive,
    # asymmetric and transitively closed.
    assert all(0 <= i < spec.n and 0 <= j < spec.n for i, j in spec.strict)
    assert all(i != j and (j, i) not in spec.strict for i, j in spec.strict)
    assert all((i, k) in spec.strict for i, j in spec.strict for j2, k in spec.strict if j2 == j)


# ---------------------------------------------------------------------------
# Document loading
# ---------------------------------------------------------------------------


def test_load_preference_document_roundtrip():
    doc = {
        "atoms": ["a", "b"],
        "outcomes": [
            {"name": "x", "formula": "F a"},
            {"name": "y", "formula": "F b"},
        ],
        "preferences": [{"kind": "strict", "better": "y", "worse": "x"}],
    }
    atoms, spec = load_preference_document(doc)
    assert atoms == ("a", "b")
    echoed = spec_to_json(atoms, spec)
    assert echoed["strict"] == [["y", "x"]]
    assert echoed["outcomes"][0]["formula"] == fmt(spec.outcomes[0].formula)
    # The echo is itself a loadable preference document.
    atoms2, spec2 = load_preference_document(echoed)
    assert atoms2 == atoms
    assert spec2.strict == spec.strict
    assert spec2.incomparable == spec.incomparable


def test_spec_echo_reloads_after_merging(po2_spec):
    atoms, spec = po2_spec
    atoms2, spec2 = load_preference_document(spec_to_json(atoms, spec))
    assert [o.name for o in spec2.outcomes] == [o.name for o in spec.outcomes]
    assert spec2.strict == spec.strict


def test_load_preference_document_bad_kind():
    doc = {
        "atoms": ["a"],
        "outcomes": [{"name": "x", "formula": "F a"}],
        "preferences": [{"kind": "wat", "better": "x", "worse": "x"}],
    }
    with pytest.raises(PreferenceError):
        load_preference_document(doc)
