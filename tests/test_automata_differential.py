"""Differential tests: the eager automata by letter class against the
per-letter oracles.

``prefplan.scltl.to_dfa`` progresses each state once per projection of the
letters onto the formula's atoms, and ``prefplan.prefdfa.build_preference_dfa``
numbers states over letter masks and derives its successors on demand, per
letter by ``column`` and per state by ``rows``.
``reference_automata`` steps one letter at a time into a dict.  Both must
give the same states in the same numbering, the same successor for every
state and letter, the same graph, and the same ``CapacityError``.
``prefplan.scltl.canonicalize`` keys subformulas by the formulas themselves,
the oracle by their serialized strings; both must give the same canonical
forms, and so the same state labels.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_automata
from prefplan.prefdfa import build_preference_dfa
from prefplan.preferences import build_spec, load_preference_document
from prefplan.scltl import (
    MAX_ALPHABET_ATOMS,
    And,
    Atom,
    CapacityError,
    NegAtom,
    Next,
    Or,
    TrueF,
    Until,
    all_symbols,
    atoms_of,
    canonicalize,
    fmt,
    parse,
    progress,
    to_dfa,
)

from conftest import WIDE_PREF_DOC, classify_word, random_preference_problem, read_bundle_json, run_dfa
from reference_automata import good_prefix_oracle


def assert_same_dfa(fast, slow):
    assert fast.alphabet == slow.alphabet
    assert fast.states == slow.states
    assert fast.symbols == slow.symbols
    assert fast.initial == slow.initial
    assert fast.accepting == slow.accepting
    assert fast.rows == tuple(
        tuple(slow.step(q, sigma) for sigma in slow.symbols) for q in range(len(slow.states))
    )
    for q in range(len(slow.states)):
        for sigma in slow.symbols:
            assert run_dfa(fast, [sigma], q) == slow.step(q, sigma)


def assert_same_pdfa(fast, slow):
    assert len(fast.component_dfas) == len(slow.component_dfas)
    for d_fast, d_slow in zip(fast.component_dfas, slow.component_dfas):
        assert_same_dfa(d_fast, d_slow)
    assert fast.alphabet == slow.alphabet
    assert fast.states == slow.states
    assert fast.symbols == slow.symbols
    assert fast.initial == slow.initial
    assert fast.final == slow.final
    assert fast.graph.nodes == slow.graph.nodes
    assert fast.graph.edges == slow.graph.edges
    assert fast.node_of_state == slow.node_of_state
    assert fast.rows == tuple(
        tuple(slow.step(q, sigma) for sigma in slow.symbols) for q in range(len(slow.states))
    )
    for k, sigma in enumerate(slow.symbols):
        assert fast.column(k) == tuple(slow.step(q, sigma) for q in range(len(slow.states)))
    for q in range(len(slow.states)):
        for sigma in slow.symbols:
            assert run_dfa(fast, [sigma], q) == slow.step(q, sigma)


def capacity_outcome(build, *args, state_cap):
    """The states a build reaches under ``state_cap``, or its CapacityError message."""
    try:
        return len(build(*args, state_cap=state_cap).states)
    except CapacityError as e:
        return str(e)


def assert_same_capacity(fast_build, slow_build, *args, states):
    """Both builds fail one state short and succeed at exactly their size."""
    for cap in (states - 1, states):
        got = capacity_outcome(fast_build, *args, state_cap=cap)
        assert got == capacity_outcome(slow_build, *args, state_cap=cap)
        assert isinstance(got, str) == (cap < states and states > 1)


def check_dfa(f, atoms):
    fast, slow = to_dfa(f, atoms), reference_automata.to_dfa(f, atoms)
    assert_same_dfa(fast, slow)
    assert_same_capacity(to_dfa, reference_automata.to_dfa, f, atoms, states=len(slow.states))


def check_pdfa(spec, atoms, capacity=True):
    fast = build_preference_dfa(spec, atoms)
    slow = reference_automata.build_preference_dfa(spec, atoms)
    assert_same_pdfa(fast, slow)
    if capacity:
        assert_same_capacity(
            build_preference_dfa, reference_automata.build_preference_dfa, spec, atoms,
            states=len(slow.states),
        )
    return fast


# Formulas over 4-6 declared atoms, each mentioning a strict subset of them,
# so that the letters really fall into fewer classes than there are letters.

def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: And(*t)),
        st.tuples(children, children).map(lambda t: Or(*t)),
        children.map(Next),
        children.map(lambda c: Until(TrueF(), c)),
        st.tuples(children, children).map(lambda t: Until(*t)),
    )


def _formula_over(draw, atoms):
    used = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=len(atoms) - 1, unique=True))
    leaves = st.sampled_from([Atom(a) for a in used] + [NegAtom(a) for a in used] + [TrueF()])
    f = draw(st.recursive(leaves, _extend, max_leaves=6))
    assert atoms_of(f) < set(atoms)
    return f


@st.composite
def alphabets(draw):
    return tuple(f"p{i}" for i in range(draw(st.integers(4, 6))))


@given(atoms=alphabets(), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_to_dfa_matches_oracle_on_partial_formulas(atoms, data):
    check_dfa(_formula_over(data.draw, atoms), atoms)


def assert_same_canonical_form(f):
    fast, slow = canonicalize(f), reference_automata.canonicalize(f)
    assert fast == slow
    assert fmt(fast) == fmt(slow)
    return fast


@given(atoms=alphabets(), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_canonicalize_matches_string_keyed_oracle(atoms, data):
    # The drawn formula, then every formula that progressing it over the
    # projections of the letters onto its atoms reaches.
    f = _formula_over(data.draw, atoms)
    classes = all_symbols(tuple(atoms_of(f)))
    seen = {assert_same_canonical_form(f)}
    frontier = list(seen)
    while frontier:
        g = frontier.pop()
        for proj in classes:
            nxt = assert_same_canonical_form(progress(g, proj))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)


@given(atoms=alphabets(), data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_preference_dfa_matches_oracle_on_partial_formulas(atoms, data):
    n = data.draw(st.integers(1, 3))
    outcomes = [(f"o{k}", _formula_over(data.draw, atoms)) for k in range(n)]
    statements = [
        ("strict", f"o{i}", f"o{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if data.draw(st.booleans())
    ]
    check_pdfa(build_spec(outcomes, statements), atoms)


@pytest.mark.parametrize("seed", range(12))
def test_preference_dfa_matches_oracle_on_random_problems(seed):
    atoms, spec = random_preference_problem(seed, n_outcomes=2 + seed % 3, connected=seed % 2 == 0)
    check_pdfa(spec, atoms)


@pytest.mark.parametrize("bundle", ["po1", "po2"])
def test_preference_dfa_matches_oracle_on_bundles(bundle):
    atoms, spec = load_preference_document(read_bundle_json(f"{bundle}/preferences.json"))
    check_pdfa(spec, atoms)


def test_preference_dfa_without_outcomes_matches_oracle():
    atoms = ("a",)
    spec = build_spec([])
    assert len(check_pdfa(spec, atoms).states) == 1


def test_single_state_component_matches_oracle():
    # "true" compiles to one accepting state: a radix-1 digit between two
    # others, always 0, so it adds nothing to any state code.
    atoms = ("p", "q")
    spec = build_spec(
        outcomes=[(name, parse(text, atoms)) for name, text in
                  (("reach", "F p"), ("always", "true"), ("until", "p U q"))],
        statements=[("strict", "reach", "until")],
    )
    fast = check_pdfa(spec, atoms)
    assert [len(d.states) for d in fast.component_dfas] == [2, 1, 3]


def test_lockstep_outcomes_beyond_64_bit_codes_match_oracle():
    # Fifty outcomes over two atoms: the radix product exceeds 2**64, so
    # state codes are unbounded integers, while the components move in
    # lockstep and few product states are reachable.
    atoms = ("p", "q")
    texts = ["F p", "F q", "p U q", "q U p", "F (p & q)", "!p U q", "!q U p"]
    spec = build_spec(
        outcomes=[(f"o{k}", parse(texts[k % len(texts)], atoms)) for k in range(50)],
        statements=[("strict", "o0", "o1"), ("strict", "o2", "o3")],
    )
    fast = check_pdfa(spec, atoms)
    assert prod(len(d.states) for d in fast.component_dfas) > 2**64
    assert len(fast.states) == 22


def test_wide_alphabet_matches_oracle():
    atoms, spec = load_preference_document(WIDE_PREF_DOC)
    fast = check_pdfa(spec, atoms, capacity=False)
    assert (len(fast.states), len(fast.symbols)) == (189, 1024)
    # The oracle reached 189 states in the same order and its components
    # fewer, so it passes a cap of 189 and fails on the last state under 188.
    for cap, outcome in ((188, "preference DFA exceeded 188 states"), (189, 189)):
        assert capacity_outcome(build_preference_dfa, spec, atoms, state_cap=cap) == outcome


def test_full_alphabet_classifies_like_the_oracle():
    atoms = tuple(f"a{i}" for i in range(MAX_ALPHABET_ATOMS))
    texts = {"reach": "F a0", "seq": "F (a1 & X F a2)", "guard": "!(a3 | a4) U a5"}
    spec = build_spec(
        outcomes=[(name, parse(text, atoms)) for name, text in texts.items()],
        statements=[("strict", "seq", "reach"), ("strict", "guard", "reach")],
    )
    pdfa = build_preference_dfa(spec, atoms)
    assert len(pdfa.symbols) == 2 ** MAX_ALPHABET_ATOMS
    node_of_mp = {node.mp: node.node_id for node in pdfa.graph.nodes}
    rng = random.Random(16)
    classified = set()
    for _ in range(300):
        word = [
            frozenset(a for a in atoms if rng.random() < 0.15)
            for _ in range(rng.randrange(8))
        ]
        sat = frozenset(
            k for k, o in enumerate(spec.outcomes) if good_prefix_oracle(o.formula, word)
        )
        want = node_of_mp[spec.mp(sat)] if sat else None
        assert classify_word(pdfa, word) == want, word
        classified.add(want)
    assert len(classified) >= 3
