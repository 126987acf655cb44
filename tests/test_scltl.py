"""Formula parsing, progression, DFA translation and the good-prefix oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefplan.scltl import (
    AlphabetError,
    And,
    Atom,
    CapacityError,
    MAX_FORMULA_DEPTH,
    FalseF,
    NegAtom,
    Next,
    Or,
    ParseError,
    TrueF,
    Until,
    all_symbols,
    canonicalize,
    declare_alphabet,
    dfa_to_dot,
    dfa_to_json,
    fmt,
    parse,
    progress,
    symbol_index,
    to_dfa,
)

from conftest import render, run_dfa
from reference_automata import good_prefix_oracle

AB = ("a", "b")


def words_up_to(alphabet, max_len):
    syms = all_symbols(alphabet)
    for n in range(max_len + 1):
        yield from itertools.product(syms, repeat=n)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_eventually():
    # F g is true U g: one node, printed as F, and an F over it collapses.
    assert parse("F A", ("A",)) == Until(TrueF(), Atom("A"))
    assert parse("F a", AB) == Until(TrueF(), Atom("a"))
    assert fmt(parse("true U a", AB)) == "F (a)"
    assert parse("F (true U a)", AB) == parse("F a", AB)


def test_parse_po2_guarded_until():
    f = parse("!(B | C | D | F) U A", ("A", "B", "C", "D", "F"))
    assert isinstance(f, Until)
    assert f.right == Atom("A")
    # De Morgan pushes the negation onto the four literals.
    literals = set()

    def collect(g):
        if isinstance(g, And):
            collect(g.left)
            collect(g.right)
        else:
            literals.add(g)

    collect(f.left)
    assert literals == {NegAtom("B"), NegAtom("C"), NegAtom("D"), NegAtom("F")}
    # and turns a negated conjunction into a disjunction.
    assert fmt(parse("!(a & b)", AB)) == "(!a | !b)"


def test_parse_rejects_negated_temporal():
    with pytest.raises(ParseError):
        parse("!(X A)", ("A",))
    with pytest.raises(ParseError):
        parse("!(A U B)", ("A", "B"))
    with pytest.raises(ParseError):
        parse("! F A", ("A",))


def test_parse_undeclared_proposition():
    with pytest.raises(ParseError):
        parse("F Z", ("A",))


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("A & )", ("A",))
    assert err.value.position == 4


def test_parse_empty():
    with pytest.raises(ParseError):
        parse("   ", ("A",))


def test_parse_rejects_negated_true():
    with pytest.raises(ParseError):
        parse("!true", ("A",))


def test_parse_f_as_proposition():
    # F doubles as region name: prefix operator only when an operand follows.
    f = parse("!(A | B | C | D) U F", ("A", "B", "C", "D", "F"))
    assert f.right == Atom("F")
    assert parse("F F", ("F",)) == Until(TrueF(), Atom("F"))


def test_parse_collapses_f_chains():
    assert parse("F " * DEPTH + "a", AB) == Until(TrueF(), Atom("a"))
    assert parse("F (F (a & F F F b))", AB) == Until(TrueF(), And(Atom("a"), Until(TrueF(), Atom("b"))))
    assert parse("F X F a", AB) == Until(TrueF(), Next(Until(TrueF(), Atom("a"))))


def test_parse_precedence():
    # U binds tighter than &, which binds tighter than |.
    f = parse("a U b & a | b", AB)
    assert f == Or(And(Until(Atom("a"), Atom("b")), Atom("a")), Atom("b"))
    # Right-associative until.
    g = parse("a U b U a", AB)
    assert g == Until(Atom("a"), Until(Atom("b"), Atom("a")))


DEPTH = MAX_FORMULA_DEPTH


@pytest.mark.parametrize(
    "text",
    [
        "X " * DEPTH + "a",
        "! " * DEPTH + "a",
        "(" * DEPTH + "a" + ")" * DEPTH,
        " & ".join(["a"] * (DEPTH + 1)),
        " U ".join(["a"] * (DEPTH + 1)),
        "F " * DEPTH + "a",
    ],
    ids=["X", "not", "parens", "and", "until", "F"],
)
def test_formula_at_depth_bound_compiles(text):
    dfa = to_dfa(parse(text, AB), AB)
    assert dfa.accepting


NESTED = f"formula nested deeper than {DEPTH} levels"


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("X " * (DEPTH + 1) + "a", 2 * DEPTH, NESTED),
        ("! " * (DEPTH + 1) + "a", 2 * DEPTH, NESTED),
        ("(" * (DEPTH + 1) + "a" + ")" * (DEPTH + 1), DEPTH, NESTED),
        (" & ".join(["a"] * (DEPTH + 2)), 4 * DEPTH + 2, NESTED),
        (" U ".join(["a"] * (DEPTH + 2)), 4 * DEPTH + 2, NESTED),
        ("F " * (DEPTH + 1) + "a", 2 * DEPTH, NESTED),
        # The other syntax errors, each with the position it names.
        ("(a & b", 6, "expected ')'"),
        ("a b", 2, "unexpected trailing token 'b'"),
        ("a $ b", 2, "unexpected character '$'"),
        ("a & U", 4, "'U' is not a proposition"),
    ],
    ids=["X", "not", "parens", "and", "until", "F", "unclosed", "trailing", "character", "until-atom"],
)
def test_parse_rejects_nesting_beyond_bound(text, position, message):
    with pytest.raises(ParseError) as err:
        parse(text, AB)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_alphabet_declaration_errors():
    with pytest.raises(AlphabetError):
        declare_alphabet(["a", "a"])
    with pytest.raises(AlphabetError):
        declare_alphabet(["true"])
    # ``false`` labels the rejecting sink, so no atom may print like it.
    with pytest.raises(AlphabetError, match="^proposition name collides with keyword: 'false'$"):
        declare_alphabet(["false"])
    with pytest.raises(AlphabetError):
        declare_alphabet(["1bad"])
    with pytest.raises(AlphabetError):
        declare_alphabet([""])


# ---------------------------------------------------------------------------
# Progression
# ---------------------------------------------------------------------------


def test_progress_eventuality_fulfilled():
    assert progress(Until(TrueF(), Atom("a")), frozenset({"a"})) == TrueF()


def test_progress_next_unfolds():
    assert progress(Next(Atom("a")), frozenset()) == Atom("a")


def test_progress_until_expansion():
    f = Until(Atom("a"), Atom("b"))
    assert progress(f, frozenset({"a"})) == f
    assert progress(f, frozenset({"b"})) == TrueF()
    assert progress(f, frozenset()) == FalseF()


def test_progress_total_on_constants():
    assert progress(TrueF(), frozenset()) == TrueF()
    assert progress(FalseF(), frozenset({"a"})) == FalseF()


# ---------------------------------------------------------------------------
# DFA translation
# ---------------------------------------------------------------------------


def test_to_dfa_eventually_two_states():
    dfa = to_dfa(parse("F a", ("a",)), ("a",))
    assert len(dfa.states) == 2
    assert len(dfa.accepting) == 1
    # The eventuality loops on the empty symbol and accepts once a occurs.
    q0 = dfa.initial
    assert run_dfa(dfa, [set()], q0) == q0
    assert run_dfa(dfa, [{"a"}], q0) in dfa.accepting


def test_to_dfa_atom_three_states():
    dfa = to_dfa(Atom("a"), ("a",))
    assert len(dfa.states) == 3
    assert run_dfa(dfa, [{"a"}]) in dfa.accepting
    assert run_dfa(dfa, [set()]) not in dfa.accepting
    assert run_dfa(dfa, [set(), {"a"}]) not in dfa.accepting  # first letter decided


def test_to_dfa_true_single_state():
    dfa = to_dfa(TrueF(), ("a",))
    assert len(dfa.states) == 1
    assert run_dfa(dfa, []) in dfa.accepting


def test_to_dfa_rejects_large_alphabet():
    with pytest.raises(AlphabetError):
        to_dfa(TrueF(), tuple(f"p{i}" for i in range(17)))


def test_to_dfa_rejects_undeclared_atom():
    with pytest.raises(AlphabetError):
        to_dfa(Atom("z"), ("a",))


def test_to_dfa_state_cap():
    f = parse("F (a & X (b & X a))", AB)
    with pytest.raises(CapacityError):
        to_dfa(f, AB, state_cap=2)


def test_accepts_rejects_foreign_letter():
    dfa = to_dfa(parse("F a", ("a",)), ("a",))
    with pytest.raises(AlphabetError):
        run_dfa(dfa, [{"z"}])


def test_accepts_empty_word_initial_acceptance():
    dfa = to_dfa(parse("F a", ("a",)), ("a",))
    assert (run_dfa(dfa, []) in dfa.accepting) == (dfa.initial in dfa.accepting) == False


# ---------------------------------------------------------------------------
# Good-prefix oracle
# ---------------------------------------------------------------------------


def test_oracle_eventually():
    f = parse("F a", ("a",))
    assert good_prefix_oracle(f, [set(), set(), {"a"}])
    assert not good_prefix_oracle(f, [set(), set()])


def test_oracle_until_unfulfilled():
    f = parse("a U b", AB)
    assert not good_prefix_oracle(f, [{"a"}, {"a"}])
    assert good_prefix_oracle(f, [{"a"}, {"b"}])


def test_oracle_next_needs_successor_position():
    f = parse("X a", ("a",))
    assert not good_prefix_oracle(f, [{"a"}])
    assert good_prefix_oracle(f, [set(), {"a"}])


# ---------------------------------------------------------------------------
# Cross-checks and invariants
# ---------------------------------------------------------------------------

CORPUS_2ATOMS = [
    "F a",
    "F b",
    "a U b",
    "b U a",
    "X a",
    "X X b",
    "a & F b",
    "a | (b & X a)",
    "!(a | b) U a",
    "!(a & b)",
    "F (a & X b)",
    "(F a) & (F b)",
    "(a U b) | (b U a)",
]


@pytest.mark.parametrize("text", CORPUS_2ATOMS)
def test_oracle_equivalence_exhaustive(text):
    f = parse(text, AB)
    dfa = to_dfa(f, AB)
    for word in words_up_to(AB, 6):
        assert (run_dfa(dfa, word) in dfa.accepting) == good_prefix_oracle(f, word), (text, word)


def test_oracle_equivalence_randomized_larger_alphabet():
    atoms = ("A", "B", "C", "D", "F")
    texts = [
        "!(B | C | D | F) U A",
        "!(A | C | D | F) U B",
        "(F A) | (F B)",
        "F (A & X (B | C))",
    ]
    rng = random.Random(77)
    syms = all_symbols(atoms)
    for text in texts:
        f = parse(text, atoms)
        dfa = to_dfa(f, atoms)
        for _ in range(2000):
            word = [syms[rng.randrange(len(syms))] for _ in range(rng.randrange(13))]
            assert (run_dfa(dfa, word) in dfa.accepting) == good_prefix_oracle(f, word), (text, word)


@pytest.mark.parametrize("text", CORPUS_2ATOMS)
def test_accepting_states_absorbing(text):
    dfa = to_dfa(parse(text, AB), AB)
    for q in dfa.accepting:
        for sigma in dfa.symbols:
            assert run_dfa(dfa, [sigma], q) == q


@pytest.mark.parametrize("text", ["F a", "a U b", "F (a & X b)"])
def test_acceptance_monotone_under_extension(text):
    f = parse(text, AB)
    dfa = to_dfa(f, AB)
    syms = all_symbols(AB)
    for word in words_up_to(AB, 4):
        if run_dfa(dfa, word) in dfa.accepting:
            for extra in syms:
                assert run_dfa(dfa, list(word) + [extra]) in dfa.accepting


@pytest.mark.parametrize("text", CORPUS_2ATOMS)
def test_progression_soundness(text):
    # The state reached by running the DFA equals the canonical form of the
    # iterated progression of the original formula.
    f = parse(text, AB)
    dfa = to_dfa(f, AB)
    for word in words_up_to(AB, 4):
        g = f
        for sigma in word:
            g = progress(g, sigma)
        reached = run_dfa(dfa, word)
        assert dfa.states[reached] == fmt(canonicalize(g))


@pytest.mark.parametrize("text", CORPUS_2ATOMS)
def test_transition_total_and_deterministic(text):
    dfa = to_dfa(parse(text, AB), AB)
    # Every letter of 2^AP has one position, and every state one in-range
    # successor at each position.
    assert list(dfa.symbols) == all_symbols(AB)
    assert symbol_index(dfa.alphabet)[1] == {sigma: k for k, sigma in enumerate(dfa.symbols)}
    assert len(dfa.rows) == len(dfa.states)
    for row in dfa.rows:
        assert len(row) == len(dfa.symbols)
        assert all(0 <= j < len(dfa.states) for j in row)


# Random formulas via hypothesis; compared against the oracle on short words.


def formulas(atoms=AB, depth=3):
    leaves = st.sampled_from([Atom(a) for a in atoms] + [NegAtom(a) for a in atoms] + [TrueF()])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            children.map(Next),
            children.map(lambda c: Until(TrueF(), c)),
            st.tuples(children, children).map(lambda t: Until(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@given(f=formulas(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_random_formulas(f, data):
    dfa = to_dfa(f, AB)
    syms = all_symbols(AB)
    word = data.draw(st.lists(st.sampled_from(syms), max_size=6))
    assert (run_dfa(dfa, word) in dfa.accepting) == good_prefix_oracle(f, word)


def f_chains(atoms=AB):
    """Random formulas whose eventualities come in chains of one to four F."""
    leaves = st.sampled_from([Atom(a) for a in atoms] + [NegAtom(a) for a in atoms] + [TrueF()])

    def chain(child, length):
        for _ in range(length):
            child = Until(TrueF(), child)
        return child

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            children.map(Next),
            st.tuples(children, st.integers(1, 4)).map(lambda t: chain(*t)),
            st.tuples(children, children).map(lambda t: Until(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@given(f=f_chains(), seed=st.integers(0, 10**6))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_collapsed_f_chains_match_oracle(f, seed):
    # The DFA of the parsed (collapsed) text must accept exactly the good
    # prefixes of the formula as written, F chains and all.
    dfa = to_dfa(parse(fmt(f), AB), AB)
    syms = all_symbols(AB)
    rng = random.Random(seed)
    for _ in range(30):
        word = [syms[rng.randrange(len(syms))] for _ in range(rng.randrange(9))]
        assert (run_dfa(dfa, word) in dfa.accepting) == good_prefix_oracle(f, word), (fmt(f), word)


def test_canonical_order_follows_fmt():
    # Temporal atoms are ordered by their printed text: "!b" < "F (a)".
    dfa = to_dfa(parse("F a & !b", AB), AB)
    assert dfa.states[dfa.initial] == "(!b & F (a))"


@given(f=formulas())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_dfa_state_labels_are_canonical_fixed_points(f):
    # Parsing collapses F chains, which canonical forms never hold.  Every
    # label but the sink's (``false``, which no formula can spell) reads back
    # as a formula that canonicalize prints as the label itself.
    g = parse(fmt(f), AB)
    for label in to_dfa(g, AB).states:
        if label != "false":
            assert fmt(canonicalize(parse(label, AB))) == label, (fmt(g), label)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_dfa_json_roundtrip():
    # The export lists every transition once, state by state in symbol order.
    dfa = to_dfa(parse("a U b", AB), AB)
    doc = dfa_to_json(dfa)
    assert [(t["from"], frozenset(t["symbol"]), t["to"]) for t in doc["transitions"]] == [
        (i, sigma, j) for i, row in enumerate(dfa.rows) for sigma, j in zip(dfa.symbols, row)
    ]
    assert [s["label"] for s in doc["states"]] == list(dfa.states)
    assert (doc["initial"], doc["accepting"]) == (dfa.initial, sorted(dfa.accepting))


def test_dfa_dot_shapes():
    dfa = to_dfa(parse("F a", ("a",)), ("a",))
    dot = render(dfa_to_dot, dfa)
    assert "doublecircle" in dot
    assert dot.startswith("digraph")
