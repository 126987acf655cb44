"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
under plain pytest they appear in the captured output of failing tests.
"""

import itertools
import random
import time

from prefplan.cli import main as cli_main
from prefplan.prefdfa import build_preference_dfa, tag_labels
from prefplan.preferences import Comparison
from prefplan.scltl import all_symbols, parse, to_dfa
from prefplan.synthesis import (
    CompositePolicy,
    Strategy,
    aswin,
    is_improvement,
    pwin,
    synthesize,
)
from prefplan.verify import check_strategy_conditions, monte_carlo, value_iteration

from conftest import BUNDLES, classify_word, index_of, random_mdp, random_product, run_dfa, satisfied
from reference_automata import good_prefix_oracle
from reference_solvers import support_rows, view_of_mdp


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. DFA / good-prefix-oracle equivalence on the formula corpus
# ---------------------------------------------------------------------------

PO2_ATOMS = ("A", "B", "C", "D", "F")
PO1_ATOMS = ("A", "B", "E")

# (formula text, alphabet); alphabets of at most two atoms are checked
# exhaustively, the rest with random words.
CORPUS = [
    ("!(B | C | D | F) U A", PO2_ATOMS),
    ("!(A | C | D | F) U B", PO2_ATOMS),
    ("!(A | B | D | F) U C", PO2_ATOMS),
    ("!(A | B | C | F) U D", PO2_ATOMS),
    ("!(A | B | C | D) U F", PO2_ATOMS),
    ("F A", PO1_ATOMS),
    ("F B", PO1_ATOMS),
    ("F E", PO1_ATOMS),
    ("F a", ("a",)),
    ("a U b", ("a", "b")),
    ("X (a & F b)", ("a", "b")),
    ("!(a | b) U a", ("a", "b")),
    ("(F a) & (F b)", ("a", "b")),
    ("a | (b & X a)", ("a", "b")),
]


def test_criterion_1_dfa_oracle_equivalence():
    started = time.monotonic()
    mismatches = 0
    checked = 0
    rng = random.Random(20240)
    for text, atoms in CORPUS:
        f = parse(text, atoms)
        dfa = to_dfa(f, atoms)
        syms = all_symbols(atoms)
        if len(atoms) <= 2:
            for n in range(7):
                for word in itertools.product(syms, repeat=n):
                    checked += 1
                    if (run_dfa(dfa, word) in dfa.accepting) != good_prefix_oracle(f, word):
                        mismatches += 1
        else:
            for _ in range(10_000):
                word = [syms[rng.randrange(len(syms))] for _ in range(rng.randrange(13))]
                checked += 1
                if (run_dfa(dfa, word) in dfa.accepting) != good_prefix_oracle(f, word):
                    mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60 and len(CORPUS) >= 12
    report(
        1,
        ok,
        f"{len(CORPUS)} formulas, {checked} words, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. PO1 preference DFA structure
# ---------------------------------------------------------------------------


def test_criterion_2_po1_preference_dfa_structure(po1_spec):
    atoms, spec = po1_spec
    pdfa = build_preference_dfa(spec, atoms)
    n_states = len(pdfa.states)
    n_final = len(pdfa.final)
    iA, iB, iE = (index_of(spec, n) for n in ("visit_A", "visit_B", "visit_E"))
    q_be = next(
        q for q in pdfa.final if satisfied(pdfa, q) == frozenset({iB, iE})
    )
    tags = set(tag_labels(spec, pdfa.graph.nodes[pdfa.node_of_state[q_be]].mp))
    expected_tags = {"x(visit_B,visit_A)", "x(visit_E,visit_A)"}

    # One node per indifference class of ``spec.compare``, i.e. per set of
    # most-preferred satisfied outcomes, computed from the component DFAs
    # rather than from the graph's own MP sets.  With B > A and E > A (B, E incomparable)
    # the seven final states satisfy {A}, {B}, {E}, {A,B}, {A,E}, {B,E} and
    # {A,B,E}, whose MP sets are {A}, {B}, {E}, {B}, {E}, {B,E} and {B,E}:
    # four classes, hence four nodes.
    mp_classes: dict = {}
    for q in pdfa.final:
        mp_classes.setdefault(spec.mp(satisfied(pdfa, q)), set()).add(q)
    partition = {frozenset(n.states) for n in pdfa.graph.nodes}
    partition_ok = partition == {frozenset(m) for m in mp_classes.values()}
    n_nodes = len(pdfa.graph.nodes)

    # The {A} node is worse than each of {B}, {E} and {B,E}.  No other pair
    # of classes is strictly ordered: B and E are incomparable, so neither of
    # {B}, {E}, {B,E} holds an outcome strictly preferred to one of another.
    node_of_mp = {mp: pdfa.node_of_state[min(m)] for mp, m in mp_classes.items()}
    worst = node_of_mp[frozenset({iA})]
    expected_edges = {
        (worst, node_of_mp[frozenset(better)]) for better in ({iB}, {iE}, {iB, iE})
    }
    edges_ok = partition_ok and pdfa.graph.edges == expected_edges

    ok = (
        n_states == 8
        and n_final == 7
        and tags == expected_tags
        and partition_ok
        and n_nodes == 4
        and edges_ok
    )
    report(
        2,
        ok,
        f"{n_states} states (want 8), {n_final} final (want 7), "
        f"tags-at-BE match: {tags == expected_tags}, {n_nodes} graph nodes (want 4), "
        f"nodes are MP classes: {partition_ok}, "
        f"{len(pdfa.graph.edges)} edges (want 3), edges match: {edges_ok}",
    )
    assert n_states == 8
    assert n_final == 7
    assert tags == expected_tags
    assert partition_ok, (
        f"graph nodes {sorted(map(sorted, partition))} do not partition the final "
        f"states by MP set {sorted(map(sorted, mp_classes.values()))}"
    )
    assert n_nodes == 4
    assert pdfa.graph.edges == expected_edges


# ---------------------------------------------------------------------------
# 3. Graph comparison equals direct-semantics comparison (PO1 and PO2)
# ---------------------------------------------------------------------------


def _graph_compare(pdfa, n1, n2):
    if n1 is None and n2 is None:
        return Comparison.INDIFFERENT
    if n1 is None or n2 is None:
        return Comparison.INCOMPARABLE
    if n1 == n2:
        return Comparison.INDIFFERENT
    if (n2, n1) in pdfa.graph.edges:
        return Comparison.STRICTLY_BETTER
    if (n1, n2) in pdfa.graph.edges:
        return Comparison.STRICTLY_WORSE
    return Comparison.INCOMPARABLE


def test_criterion_3_graph_semantics_consistency(po1_spec, po2_spec):
    # Both comparisons are functions of the product state a word reaches, so
    # checking one witness word per state reachable in at most five steps
    # covers every word pair of length <= 5 exactly.
    started = time.monotonic()
    mismatches = 0
    pairs = 0
    for atoms, spec in (po1_spec, po2_spec):
        pdfa = build_preference_dfa(spec, atoms)
        outcome_dfas = [to_dfa(o.formula, atoms) for o in spec.outcomes]
        witnesses = {pdfa.initial: ()}
        frontier = [pdfa.initial]
        for _ in range(5):
            nxt = []
            for q in frontier:
                for sigma in pdfa.symbols:
                    q2 = run_dfa(pdfa, [sigma], q)
                    if q2 not in witnesses:
                        witnesses[q2] = witnesses[q] + (sigma,)
                        nxt.append(q2)
            frontier = nxt
        for w1 in witnesses.values():
            for w2 in witnesses.values():
                pairs += 1
                cg = _graph_compare(
                    pdfa, classify_word(pdfa, w1), classify_word(pdfa, w2)
                )
                sat1 = {k for k, d in enumerate(outcome_dfas) if run_dfa(d, w1) in d.accepting}
                sat2 = {k for k, d in enumerate(outcome_dfas) if run_dfa(d, w2) in d.accepting}
                if cg is not spec.compare(sat1, sat2):
                    mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 300
    report(3, ok, f"{pairs} state-pair classes, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 4. Qualitative solvers vs value iteration on 100 random MDPs
# ---------------------------------------------------------------------------


def test_criterion_4_solver_soundness():
    started = time.monotonic()
    mismatches = 0
    states_checked = 0
    for seed in range(100):
        n = 24 + (seed * 7) % 49
        k = 2 + seed % 3
        mdp = random_mdp(seed, n_states=n, n_actions=k, trap_fraction=0.25)
        view = view_of_mdp(mdp)
        rng = random.Random(seed + 1000)
        target = frozenset(rng.sample(range(n), 3))
        values = value_iteration(view, target)
        rows = support_rows(view)
        almost = aswin(rows, target).region
        positive = pwin(rows, target).region
        for s in view.states:
            states_checked += 1
            if (s in almost) != (values[s] >= 1 - 1e-6):
                mismatches += 1
            if (s in positive) != (values[s] > 1e-9):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 120
    report(4, ok, f"100 MDPs, {states_checked} states, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 5. Strategy conditions: synthesized strategies pass, mutants fail
# ---------------------------------------------------------------------------


def _mutants(pm, result):
    """Hand-damaged strategies; every one must fail the checker."""
    cache = result.cache
    out = []
    # (m1) a strategy that deliberately takes a regressing edge
    for v in range(pm.n_states()):
        done = False
        for a in pm.enabled(v):
            if any(p > 0 and is_improvement(cache, w, v) for w, p in pm.dist(v, a)):
                out.append(("regressing", "spi", Strategy("spi", {v: frozenset({a})})))
                done = True
                break
        if done:
            break
    # (m2) vacuous self-loop at an absorbing state: no improvement ever
    dead = next(
        v for v in range(pm.n_states()) if pm.dist(v, pm.enabled(v)[0]) == ((v, 1.0),)
    )
    out.append(("vacuous", "sasi", Strategy("sasi", {dead: frozenset({pm.enabled(dead)[0]})})))
    # (m3) the positive strategy demoted to almost-sure duty
    if result.spi.actions:
        out.append(("spi-as-sasi", "sasi", Strategy("sasi", dict(result.spi.actions))))
    # (m4) reference to an action that is not enabled
    v0 = pm.initial
    bogus = max(pm.enabled(v0)) + 1
    out.append(("disabled-action", "spi", Strategy("spi", {v0: frozenset({bogus})})))
    # (m5) sasi diluted with an extra branch at its first state: depending on
    # the branch it either regresses (fails b) or dodges improvement forever
    # (fails a); both are rejections.
    if result.sasi.actions:
        v = min(result.sasi.actions)
        extra = [a for a in pm.enabled(v) if a not in result.sasi.actions[v]]
        for a in extra[:2]:
            actions = dict(result.sasi.actions)
            actions[v] = actions[v] | {a}
            out.append((f"diluted-sasi-{a}", "sasi", Strategy("sasi", actions)))
    return out


def test_criterion_5_theorem_check(po1_b4, po1_b2, po2_b4):
    started = time.monotonic()
    synthesized_ok = True
    mutants_failed = 0
    mutants_total = 0

    products = [po1_b4[4], po1_b2[4], po2_b4[4]]
    for seed in range(25):
        products.append(random_product(seed, n_states=18)[3])

    mutant_pool_products = [po1_b4[4], po1_b2[4]]
    for pm in products:
        result = synthesize(pm)
        for mode, strategy in (("spi", result.spi), ("sasi", result.sasi)):
            if not strategy.actions:
                continue
            rep = check_strategy_conditions(strategy, mode, result.cache)
            if not rep.ok:
                synthesized_ok = False
    for pm in mutant_pool_products:
        result = synthesize(pm)
        for name, mode, mutant in _mutants(pm, result):
            mutants_total += 1
            rep = check_strategy_conditions(mutant, mode, result.cache)
            if not rep.ok:
                mutants_failed += 1
    elapsed = time.monotonic() - started
    ok = synthesized_ok and mutants_failed == mutants_total and mutants_total >= 5 and elapsed < 300
    report(
        5,
        ok,
        f"28 products: synthesized pass={synthesized_ok}; "
        f"mutants failed {mutants_failed}/{mutants_total}; {elapsed:.1f}s",
    )
    assert synthesized_ok
    assert mutants_total >= 5
    assert mutants_failed == mutants_total
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 6. Bundled scenario reproduction (reconstruction configs)
# ---------------------------------------------------------------------------


def test_criterion_6_scenarios(po1_b4, po1_b2, po2_b4):
    details = []

    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    v0 = pm.initial
    sasi_west = v0 in result.sasi.actions and {
        mdp.actions[a] for a in result.sasi.actions[v0]
    } == {"West"}
    details.append(f"battery-4 sasi selects West: {sasi_west}")

    atoms, spec, mdp2, pdfa2, pm2 = po1_b2
    result2 = synthesize(pm2)
    v02 = pm2.initial
    b2_ok = (v02 not in result2.sasi.actions) and v02 in result2.spi.actions
    details.append(f"battery-2 sasi undefined / spi defined: {b2_ok}")

    atoms, spec, mdp3, pdfa3, pm3 = po2_b4
    result3 = synthesize(pm3)
    policy = CompositePolicy(result3, mode="sasi", tie_break="lowest")
    stats = monte_carlo(policy, episodes=10_000, seed=42)
    two_plus = all(k >= 2 for k in stats.improvements_histogram)
    po2_ok = two_plus and stats.regressions_observed == 0
    details.append(
        f"composite sasi >=2 improvements in all episodes: {two_plus} "
        f"(histogram {dict(sorted(stats.improvements_histogram.items()))}), "
        f"regressions {stats.regressions_observed}"
    )

    ok = sasi_west and b2_ok and po2_ok
    report(6, ok, "; ".join(details))
    assert sasi_west
    assert b2_ok
    assert po2_ok


# ---------------------------------------------------------------------------
# 7. Byte-level reproducibility of strategy and statistics artifacts
# ---------------------------------------------------------------------------


def test_criterion_7_reproducibility(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = str(BUNDLES / "po2" / "gridworld_battery4.json")
    pref = str(BUNDLES / "po2" / "preferences.json")
    assert cli_main(["--out", "g", "gridworld", grid]) == 0
    mdp_path = str(tmp_path / "g" / "mdp.json")
    identical = True
    for run in ("r1", "r2"):
        assert cli_main(["--out", run, "synth", mdp_path, pref]) == 0
        assert (
            cli_main(
                ["--out", run, "simulate", mdp_path, pref, "--episodes", "300", "--seed", "9"]
            )
            == 0
        )
    names = [
        "strategy_spi.json",
        "strategy_sasi.json",
        "winning_regions.json",
        "stats.json",
        "episodes.csv",
    ]
    for name in names:
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes():
            identical = False
    report(7, identical, f"{len(names)} artifacts byte-compared across two runs")
    assert identical
