"""Preference DFA construction: product, MP-set nodes, edges, tag labels and
word classification.

The consistency check at the bottom is the module's load-bearing property:
comparing two words through the preference graph must agree with comparing
their most-preferred satisfied outcome sets directly, where the latter is
computed through the individual outcome DFAs, never through the product.
"""

import pytest

from prefplan.prefdfa import build_preference_dfa, pdfa_to_dot, pdfa_to_json, tag_labels
from prefplan.preferences import Comparison, build_spec
from prefplan.scltl import CapacityError, all_symbols, parse, to_dfa

from conftest import classify_word, index_of, random_preference_problem, render, run_dfa, satisfied


def node_tags(pdfa, node_id):
    return set(tag_labels(pdfa.spec, pdfa.graph.nodes[node_id].mp))


def state_tags(pdfa, q):
    return node_tags(pdfa, pdfa.node_of_state[q])


def state_by_sat(pdfa, sat_names):
    want = frozenset(index_of(pdfa.spec, n) for n in sat_names)
    hits = [i for i in range(len(pdfa.states)) if satisfied(pdfa, i) == want]
    assert len(hits) == 1, f"expected a unique state satisfying {sat_names}"
    return hits[0]


@pytest.fixture(scope="module")
def po1_pdfa(po1_spec):
    atoms, spec = po1_spec
    return build_preference_dfa(spec, atoms)


@pytest.fixture(scope="module")
def po2_pdfa(po2_spec):
    atoms, spec = po2_spec
    return build_preference_dfa(spec, atoms)


def test_po1_product_shape(po1_pdfa):
    assert len(po1_pdfa.states) == 8
    assert len(po1_pdfa.final) == 7


def test_po1_tags_b_and_e_satisfied(po1_pdfa):
    q = state_by_sat(po1_pdfa, {"visit_B", "visit_E"})
    assert state_tags(po1_pdfa, q) == {
        "x(visit_B,visit_A)",
        "x(visit_E,visit_A)",
    }


def test_po1_tags_only_a_satisfied(po1_pdfa):
    q = state_by_sat(po1_pdfa, {"visit_A"})
    assert state_tags(po1_pdfa, q) == {
        "y(visit_B,visit_A)",
        "y(visit_E,visit_A)",
    }


def test_po1_node_count_matches_indifference_classes(po1_pdfa):
    # Final states group into one node per most-preferred satisfied set:
    # {A}, {B}, {E}, {B,E} -- four classes.  (Word pairs inside one class are
    # indifferent, so any finer partition would break the semantics check.)
    assert len(po1_pdfa.graph.nodes) == 4
    spec = po1_pdfa.spec
    mp_sets = {frozenset(spec.mp(satisfied(po1_pdfa, q))) for q in po1_pdfa.final}
    assert len(mp_sets) == len(po1_pdfa.graph.nodes)


def test_po1_edges(po1_pdfa):
    spec = po1_pdfa.spec
    by_tags = {
        frozenset(node_tags(po1_pdfa, n.node_id)): n.node_id for n in po1_pdfa.graph.nodes
    }
    n_a = by_tags[frozenset({"y(visit_B,visit_A)", "y(visit_E,visit_A)"})]
    n_b = by_tags[frozenset({"x(visit_B,visit_A)"})]
    n_e = by_tags[frozenset({"x(visit_E,visit_A)"})]
    n_be = by_tags[frozenset({"x(visit_B,visit_A)", "x(visit_E,visit_A)"})]
    edges = po1_pdfa.graph.edges
    assert (n_a, n_e) in edges  # a word visiting E beats a word visiting only A
    assert (n_a, n_b) in edges
    assert (n_a, n_be) in edges
    assert (n_b, n_e) not in edges and (n_e, n_b) not in edges  # incomparable
    assert len(edges) == 3


def test_classify_word_po1(po1_pdfa):
    spec = po1_pdfa.spec
    node_be = classify_word(po1_pdfa, [set(), {"B"}, {"E"}])
    assert node_be is not None
    assert node_tags(po1_pdfa, node_be) == {
        "x(visit_B,visit_A)",
        "x(visit_E,visit_A)",
    }
    assert classify_word(po1_pdfa, [set(), set(), set()]) is None
    node_a = classify_word(po1_pdfa, [{"A"}])
    assert node_tags(po1_pdfa, node_a) == {
        "y(visit_B,visit_A)",
        "y(visit_E,visit_A)",
    }


def test_classify_rejects_foreign_letter(po1_pdfa):
    from prefplan.scltl import AlphabetError

    with pytest.raises(AlphabetError):
        classify_word(po1_pdfa, [{"Z"}])


def test_tag_exclusivity(po1_pdfa, po2_pdfa):
    # No final state is labelled with both sides of one strict pair.
    for pdfa in (po1_pdfa, po2_pdfa):
        for q in pdfa.final:
            tags = state_tags(pdfa, q)
            assert tags
            for t in tags:
                if t.startswith("x("):
                    assert "y(" + t[2:] not in tags


def test_node_partition(po1_pdfa, po2_pdfa):
    for pdfa in (po1_pdfa, po2_pdfa):
        seen = {}
        for node in pdfa.graph.nodes:
            for q in node.states:
                assert q not in seen
                seen[q] = node.node_id
        assert set(seen) == set(pdfa.final)


def test_edge_antisymmetry(po1_pdfa, po2_pdfa):
    for pdfa in (po1_pdfa, po2_pdfa):
        for worse, better in pdfa.graph.edges:
            assert (better, worse) not in pdfa.graph.edges
            assert worse != better


def test_satisfied_sets_grow_along_extensions(po1_pdfa):
    syms = all_symbols(po1_pdfa.alphabet)
    import random

    rng = random.Random(5)
    for _ in range(300):
        word = [syms[rng.randrange(len(syms))] for _ in range(rng.randrange(5))]
        q = run_dfa(po1_pdfa, word)
        sat = satisfied(po1_pdfa, q)
        extra = syms[rng.randrange(len(syms))]
        q2 = run_dfa(po1_pdfa, [extra], q)
        assert satisfied(po1_pdfa, q2) >= sat


def test_empty_strict_relation_gives_one_node_per_mp_set():
    # With an empty strict relation every satisfied set is its own MP set:
    # {x}, {y} and {x,y} are three untagged nodes, pairwise incomparable.
    atoms = ("a", "b")
    spec = build_spec(
        outcomes=[("x", parse("F a", atoms)), ("y", parse("F b", atoms))],
        statements=[],
    )
    pdfa = build_preference_dfa(spec, atoms)
    x, y = index_of(spec, "x"), index_of(spec, "y")
    # Untagged nodes are numbered by their sorted MP sets.
    assert [n.mp for n in pdfa.graph.nodes] == [{x}, {x, y}, {y}]
    assert all(tag_labels(spec, n.mp) == [] for n in pdfa.graph.nodes)
    assert not pdfa.graph.edges
    assert classify_word(pdfa, [{"a"}]) == 0
    assert classify_word(pdfa, [{"a", "b"}]) == 1
    assert classify_word(pdfa, [{"b"}]) == 2
    assert classify_word(pdfa, [set()]) is None


def test_product_cap():
    atoms = ("a", "b")
    spec = build_spec(
        outcomes=[("x", parse("F a", atoms)), ("y", parse("F b", atoms))],
        statements=[("strict", "x", "y")],
    )
    with pytest.raises(CapacityError):
        build_preference_dfa(spec, atoms, state_cap=2)


# ---------------------------------------------------------------------------
# Graph comparison vs direct semantics
# ---------------------------------------------------------------------------


def graph_compare(pdfa, node1, node2):
    if node1 is None and node2 is None:
        return Comparison.INDIFFERENT
    if node1 is None or node2 is None:
        return Comparison.INCOMPARABLE
    if node1 == node2:
        return Comparison.INDIFFERENT
    if (node2, node1) in pdfa.graph.edges:
        return Comparison.STRICTLY_BETTER
    if (node1, node2) in pdfa.graph.edges:
        return Comparison.STRICTLY_WORSE
    return Comparison.INCOMPARABLE


def semantic_compare(spec, outcome_dfas, word1, word2):
    sat1 = {k for k, d in enumerate(outcome_dfas) if run_dfa(d, word1) in d.accepting}
    sat2 = {k for k, d in enumerate(outcome_dfas) if run_dfa(d, word2) in d.accepting}
    return spec.compare(sat1, sat2)


def reachable_states_with_witnesses(pdfa, max_len):
    """BFS layers up to max_len; every word of length <= max_len lands on one
    of these states, so checking one witness per state covers all pairs."""
    witnesses = {pdfa.initial: ()}
    frontier = [pdfa.initial]
    for _ in range(max_len):
        nxt = []
        for q in frontier:
            for sigma in pdfa.symbols:
                q2 = run_dfa(pdfa, [sigma], q)
                if q2 not in witnesses:
                    witnesses[q2] = witnesses[q] + (sigma,)
                    nxt.append(q2)
        frontier = nxt
    return witnesses


@pytest.mark.parametrize("which", ["po1", "po2"])
def test_graph_comparison_matches_semantics(which, po1_spec, po2_spec, po1_pdfa, po2_pdfa):
    atoms, spec = po1_spec if which == "po1" else po2_spec
    pdfa = po1_pdfa if which == "po1" else po2_pdfa
    outcome_dfas = [to_dfa(o.formula, atoms) for o in spec.outcomes]
    witnesses = reachable_states_with_witnesses(pdfa, max_len=5)
    for q1, w1 in witnesses.items():
        for q2, w2 in witnesses.items():
            cg = graph_compare(pdfa, classify_word(pdfa, w1), classify_word(pdfa, w2))
            cs = semantic_compare(spec, outcome_dfas, w1, w2)
            assert cg is cs, (w1, w2, cg, cs)


@pytest.mark.parametrize(
    "seed, connected",
    [pytest.param(seed, True, id=str(seed)) for seed in range(10)]
    + [pytest.param(seed, False, id=f"unconnected-{seed}") for seed in range(20)],
)
def test_graph_comparison_matches_semantics_random(seed, connected):
    atoms, spec = random_preference_problem(seed, n_outcomes=3, connected=connected)
    pdfa = build_preference_dfa(spec, atoms)
    outcome_dfas = [to_dfa(o.formula, atoms) for o in spec.outcomes]
    witnesses = reachable_states_with_witnesses(pdfa, max_len=6)
    mismatches = []
    for q1, w1 in witnesses.items():
        for q2, w2 in witnesses.items():
            cg = graph_compare(pdfa, classify_word(pdfa, w1), classify_word(pdfa, w2))
            cs = semantic_compare(spec, outcome_dfas, w1, w2)
            if cg is not cs:
                mismatches.append((w1, w2, cg, cs))
    assert not mismatches, mismatches[:3]


def assert_graph_matches_compare(spec, pdfa, max_len):
    outcome_dfas = [to_dfa(o.formula, pdfa.alphabet) for o in spec.outcomes]
    witnesses = reachable_states_with_witnesses(pdfa, max_len=max_len)
    assert set(witnesses) == set(range(len(pdfa.states)))
    for u1 in witnesses.values():
        for u2 in witnesses.values():
            cg = graph_compare(pdfa, classify_word(pdfa, u1), classify_word(pdfa, u2))
            assert cg is semantic_compare(spec, outcome_dfas, u1, u2), (u1, u2)


def test_outcomes_outside_strict_relation_correspond():
    # "lone" takes part in no strict pair; MP sets that differ in it are
    # distinct nodes, and the graph still agrees with ``compare`` everywhere.
    atoms = ("p", "q")
    spec = build_spec(
        outcomes=[
            ("top", parse("F p", atoms)),
            ("low", parse("F q", atoms)),
            ("lone", parse("p U q", atoms)),
        ],
        statements=[("strict", "top", "low")],
    )
    pdfa = build_preference_dfa(spec, atoms)
    outcome_dfas = [to_dfa(o.formula, atoms) for o in spec.outcomes]
    w1 = ({"q"},)  # satisfies low and lone
    w2 = ({"q"}, {"p"})  # also satisfies top later; different MP set
    assert semantic_compare(spec, outcome_dfas, w1, w2) is Comparison.STRICTLY_WORSE
    assert graph_compare(pdfa, classify_word(pdfa, w1), classify_word(pdfa, w2)) is (
        Comparison.STRICTLY_WORSE
    )
    assert_graph_matches_compare(spec, pdfa, max_len=4)


def test_unrelated_outcome_splits_nodes():
    # b > a and an unrelated c: {b} and {b,c} are INCOMPARABLE under
    # ``compare``, so they must be different nodes with no edge between them.
    atoms = ("A", "B", "C")
    spec = build_spec(
        outcomes=[(name, parse(f"F {name.upper()}", atoms)) for name in ("a", "b", "c")],
        statements=[("strict", "b", "a")],
    )
    pdfa = build_preference_dfa(spec, atoms)
    ia, ib, ic = (index_of(spec, n) for n in ("a", "b", "c"))
    node_b = classify_word(pdfa, [{"B"}])
    node_bc = classify_word(pdfa, [{"B", "C"}])
    assert pdfa.graph.nodes[node_b].mp == {ib}
    assert pdfa.graph.nodes[node_bc].mp == {ib, ic}
    assert node_b != node_bc
    assert (node_b, node_bc) not in pdfa.graph.edges
    assert (node_bc, node_b) not in pdfa.graph.edges
    assert (classify_word(pdfa, [{"A"}]), node_b) in pdfa.graph.edges
    assert len(pdfa.graph.nodes) == len({spec.mp(satisfied(pdfa, q)) for q in pdfa.final})
    for q1 in pdfa.final:
        for q2 in pdfa.final:
            n1, n2 = pdfa.node_of_state[q1], pdfa.node_of_state[q2]
            want = spec.compare(satisfied(pdfa, q1), satisfied(pdfa, q2))
            assert graph_compare(pdfa, n1, n2) is want, (q1, q2)
    assert_graph_matches_compare(spec, pdfa, max_len=3)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_pdfa_json_fields(po1_pdfa):
    doc = pdfa_to_json(po1_pdfa)
    assert doc["initial"] == 0
    assert len(doc["states"]) == 8
    assert len(doc["final"]) == 7
    assert len(doc["graph"]["nodes"]) == 4
    assert sorted(doc["graph"]["edges"]) == doc["graph"]["edges"]
    # transitions are total
    assert len(doc["transitions"]) == 8 * len(po1_pdfa.symbols)


def test_pdfa_dot_clusters(po1_pdfa):
    dot = render(pdfa_to_dot, po1_pdfa)
    assert "cluster_automaton" in dot
    assert "cluster_graph" in dot
    assert "≺" in dot
