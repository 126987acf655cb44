"""Product construction, qualitative solvers, and improving-strategy synthesis."""

import gc
import importlib.util
import json

import pytest

import reference_solvers
from prefplan.mdp import build_gridworld, gridworld_config_from_json, load_mdp
from prefplan.prefdfa import build_preference_dfa
from prefplan.preferences import load_preference_document
from prefplan.synthesis import (
    BOTTOM,
    CompositePolicy,
    MdpView,
    aswin,
    aswin_by_node,
    build_improvement_mdp,
    build_product,
    improvement_mdp_to_dot,
    is_improvement,
    mp_nodes,
    pwin,
    regions_to_json,
    strategy_to_json,
    synthesize,
)
from prefplan.verify import value_iteration

from conftest import (
    BUNDLES,
    RECURRENT_PREF_DOC,
    THREE_STATE_PREF_DOC,
    WIDE_PREF_DOC,
    dead_start_product,
    index_of,
    random_mdp,
    random_product,
    read_bundle_json,
    recurrent_product,
    render,
    run_dfa,
    three_state_mdp_doc,
    three_state_product,
)
from reference_rollout import z_set
from reference_solvers import support_rows, view_of_mdp


def chain_view():
    # s0 -> s1 -> s2(target), deterministic; s3 is an absorbing trap.
    states = (0, 1, 2, 3)

    def enabled(s):
        return [0]

    def dist(s, a):
        nxt = {0: ((1, 1.0),), 1: ((2, 1.0),), 2: ((2, 1.0),), 3: ((3, 1.0),)}
        return nxt[s]

    return MdpView(states=states, enabled=enabled, dist=dist)


def coin_view():
    # s0 --a--> {target 0.5, trap 0.5}; s1 --b--> {target 0.5, s1 0.5}
    states = (0, 1, 2, 3)

    def enabled(s):
        return [0]

    def dist(s, a):
        if s == 0:
            return ((2, 0.5), (3, 0.5))
        if s == 1:
            return ((2, 0.5), (1, 0.5))
        return ((s, 1.0),)

    return MdpView(states=states, enabled=enabled, dist=dist)


def test_pwin_chain():
    region = pwin(support_rows(chain_view()), {2})
    assert region.region == {0, 1, 2}
    assert region.strategy[0] == {0}
    assert region.strategy[1] == {0}


def test_pwin_excludes_trap():
    region = pwin(support_rows(coin_view()), {2})
    assert 3 not in region.region
    assert 0 in region.region  # positive probability suffices


def test_aswin_separates_positive_from_almost_sure():
    rows = support_rows(coin_view())
    almost = aswin(rows, {2})
    positive = pwin(rows, {2})
    assert 0 in positive.region and 0 not in almost.region
    assert 1 in almost.region  # the only exit from s1 is the target
    assert 2 in almost.region  # target states always count


def test_aswin_on_random_mdps_matches_value_iteration():
    for seed in range(20):
        mdp = random_mdp(seed, n_states=40, n_actions=3)
        view = view_of_mdp(mdp)
        import random as _r

        rng = _r.Random(seed + 1)
        target = frozenset(rng.sample(range(mdp.n_states()), 4))
        values = value_iteration(view, target)
        rows = support_rows(view)
        almost = aswin(rows, target).region
        positive = pwin(rows, target).region
        for s in view.states:
            assert (s in almost) == (values[s] >= 1 - 1e-6), (seed, s, values[s])
            assert (s in positive) == (values[s] > 1e-9), (seed, s, values[s])


def test_solver_strategies_are_themselves_winning():
    # Restrict each MDP to the returned permissive action sets and confirm
    # via value iteration that the strategies deliver what the regions claim.
    for seed in range(10):
        mdp = random_mdp(seed, n_states=30, n_actions=3)
        view = view_of_mdp(mdp)
        import random as _r

        target = frozenset(_r.Random(seed).sample(range(mdp.n_states()), 3))
        rows = support_rows(view)
        almost = aswin(rows, target)
        positive = pwin(rows, target)

        def restricted(region):
            def enabled(s):
                if s in region.strategy and region.strategy[s]:
                    return sorted(region.strategy[s])
                return list(view.enabled(s))

            return MdpView(states=view.states, enabled=enabled, dist=view.dist)

        vals = value_iteration(restricted(almost), target)
        for s in almost.region:
            assert vals[s] >= 1 - 1e-6, (seed, s, vals[s])
        vals = value_iteration(restricted(positive), target)
        for s in positive.region:
            assert vals[s] > 1e-9, (seed, s, vals[s])


def test_aswin_strategy_stays_inside_region():
    for seed in range(8):
        mdp = random_mdp(seed, n_states=30)
        view = view_of_mdp(mdp)
        target = frozenset({0, 1})
        region = aswin(support_rows(view), target)
        for s, actions in region.strategy.items():
            for a in actions:
                for t, p in view.dist(s, a):
                    if p > 0:
                        assert t in region.region


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------


def test_product_shape_and_probabilities(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    assert pm.n_states() <= mdp.n_states() * len(pdfa.states)
    # Probabilities are copied verbatim onto the unique successor pair.
    for v, (s, q) in enumerate(pm.state_pairs):
        assert pm.enabled(v) == list(mdp.rows[s])
        for a, dist in mdp.rows[s].items():
            stepped = [
                ((s2, pdfa.rows[q][pdfa.position[mdp.labels[s2]]]), p)
                for s2, p in dist
                if p > 0
            ]
            assert [(pm.state_pairs[w], p) for w, p in pm.dist(v, a)] == stepped


def test_dist_steps_the_positive_mdp_entries_in_order():
    # load_mdp drops a zero-probability entry, successor or initial, and a
    # successor listed twice stays two entries: dist is the MDP's
    # distribution stepped through the automaton, nothing merged or reordered.
    doc = three_state_mdp_doc(zero_successor=True, zero_initial=True)
    doc["transitions"][0]["to"] = [
        {"state": "s1", "prob": 0.25}, {"state": "s2", "prob": 0.5}, {"state": "s1", "prob": 0.25},
    ]
    atoms, spec = load_preference_document(THREE_STATE_PREF_DOC)
    mdp = load_mdp(doc)
    pm = build_product(mdp, build_preference_dfa(spec, atoms))
    oracle = reference_solvers.product_dist(pm)
    for v, row in pm.rows.items():
        for a in row:
            assert pm.dist(v, a) == oracle(v, a)
    assert pm.n_states() == 3
    s0, s1, s2 = sorted(range(3), key=pm.state_pairs.__getitem__)  # product state per MDP state
    assert pm.dist(s0, 0) == ((s1, 0.25), (s2, 0.5), (s1, 0.25))
    assert mdp.rows[2][0] == ((2, 1.0),)
    assert mdp.initial == ((0, 1.0),)
    assert pm.dist(s2, 0) == ((s2, 1.0),)


@pytest.mark.parametrize("source", ["po1_b2", "po1_b4", "po2_b4", *range(20), "zero"])
def test_rows_list_the_successors_of_dist(source, request):
    # A zero-probability successor is not an edge: the solvers' rows and the
    # distributions list the same successors, in the same order.
    if source == "zero":
        pm = three_state_product(zero_successor=True)
        assert pm.n_states() == three_state_product().n_states() == 3
    elif isinstance(source, str):
        pm = request.getfixturevalue(source)[4]
    else:
        pm = random_product(source)[3]
    for v, row in pm.rows.items():
        for a, succ in row.items():
            assert succ == tuple(w for w, _ in pm.dist(v, a))


def test_product_initial_consumes_start_label(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    s0 = mdp.initial[0][0]
    assert pm.state_pairs[pm.initial] == (s0, run_dfa(pdfa, [mdp.labels[s0]]))


def test_product_alphabet_mismatch_rejected(po1_spec):
    atoms, spec = po1_spec
    from prefplan.prefdfa import build_preference_dfa

    pdfa = build_preference_dfa(spec, atoms)  # alphabet {A, B, E}
    mdp = random_mdp(3, n_states=5, atoms=("A", "Z"), label_density=0.5)
    with pytest.raises(ValueError, match="not covered"):
        build_product(mdp, pdfa)


def test_product_drops_unreachable_nodes(po2_b4):
    atoms, spec, mdp, pdfa, pm = po2_b4
    # The diagonally-satisfied D+F class exists in the automaton but no
    # gridworld path can satisfy both formulas, so it has no members.
    assert set(pm.node_members) < {n.node_id for n in pdfa.graph.nodes}


def test_w_membership_tracks_classes(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    for node_id, members in pm.node_members.items():
        node_states = set(pdfa.graph.nodes[node_id].states)
        for v in members:
            assert pm.state_pairs[v][1] in node_states


# ---------------------------------------------------------------------------
# z-sets and improvement
# ---------------------------------------------------------------------------


def test_z_set_contains_current_node(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    for node_id, members in pm.node_members.items():
        v = min(members)
        assert node_id in z_set(cache, v)


def test_z_set_empty_at_low_battery_start(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    cache = aswin_by_node(pm)
    assert z_set(cache, pm.initial) == frozenset()


def test_mp_nodes_bottom_for_empty(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    assert mp_nodes(pm, frozenset()) == frozenset({BOTTOM})


def test_improvement_via_direct_edge(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    # Pick members of the A-node and the B-node: the latter improves on the
    # former through the preference-graph edge.
    node_of_mp = {node.mp: node.node_id for node in pdfa.graph.nodes}
    n_a = node_of_mp[frozenset({index_of(spec, "visit_A")})]
    n_b = node_of_mp[frozenset({index_of(spec, "visit_B")})]
    v_a = min(pm.node_members[n_a])
    v_b = min(pm.node_members[n_b])
    assert is_improvement(cache, v_a, v_b)
    assert not is_improvement(cache, v_b, v_a)
    assert not is_improvement(cache, v_a, v_a)


def test_improvement_from_nothing_via_bottom(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    cache = aswin_by_node(pm)
    v0 = pm.initial
    assert z_set(cache, v0) == frozenset()
    some_winner = next(
        v for node in pm.node_members.values() for v in node
    )
    assert is_improvement(cache, v0, some_winner)
    assert not is_improvement(cache, some_winner, v0)


# ---------------------------------------------------------------------------
# Improvement MDP
# ---------------------------------------------------------------------------


def test_improvement_mdp_adds_one_target_state(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(cache)
    assert cache.improved == pm.n_states()
    assert sorted(im.rows) == list(range(pm.n_states() + 1))
    assert im.rows[cache.improved] == {}


def test_improvement_mdp_routing(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(cache)
    routed_somewhere = False
    for v in range(pm.n_states()):
        for a, routed in im.rows[v].items():
            support = [w for w, p in pm.dist(v, a) if p > 0]
            assert len(routed) == len(support)
            for t, w in zip(routed, support):
                assert (t == cache.improved) == is_improvement(cache, v, w)
                if t != cache.improved:
                    assert t == w
                routed_somewhere |= t == cache.improved
    assert routed_somewhere


def test_improvement_mdp_disables_regressing_actions(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(cache)
    for v in range(pm.n_states()):
        for a in pm.enabled(v):
            regresses = any(
                is_improvement(cache, w, v) for w, p in pm.dist(v, a) if p > 0
            )
            assert (a in im.rows[v]) == (not regresses)


@pytest.mark.parametrize("source", ["po2_b4", *range(10)])
def test_rows_are_shared_tuples_the_collector_skips(source, request):
    # Support rows hold ints only, so one full collection untracks every row
    # tuple and then every row dict.  An action none of whose successors
    # changes MP class has nothing to route: the improvement MDP keeps the
    # product's own row for it.
    if isinstance(source, str):
        pm = request.getfixturevalue(source)[4]
    else:
        pm = random_product(source)[3]
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(cache)
    gc.collect()
    for rows in (pm.rows, im.rows):
        for row in rows.values():
            assert not gc.is_tracked(row)
            for successors in row.values():
                assert type(successors) is tuple and not gc.is_tracked(successors)
    cls, shared = cache.mp_class, 0
    for v in range(pm.n_states()):
        for a, routed in im.rows[v].items():
            successors = pm.rows[v][a]
            if all(cls[w] == cls[v] for w in successors):
                assert routed is successors
                shared += 1
            else:
                assert routed is not successors
    # A decided state keeps the product's row dict itself.
    assert all(im.rows[v] is pm.rows[v] for v in pm.decided)
    if isinstance(source, str):
        assert 0 < shared < sum(map(len, im.rows.values()))


def test_dead_states_never_positively_winning():
    pm = dead_start_product()
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(cache)
    assert im.dead == {0}
    assert im.rows[0] == {}
    assert len(pm.enabled(0)) == 2  # both product actions regress
    result = synthesize(pm)
    for v in im.dead:
        assert v not in result.spi.actions
        assert v not in result.sasi.actions
    dot = render(improvement_mdp_to_dot, im)
    assert '  v0B -> v0B [label="dead:1"];' in dot.splitlines()
    assert '  v0T -> v0T [label="dead:1"];' in dot.splitlines()
    assert dot.count("dead:1") == 2


# ---------------------------------------------------------------------------
# Synthesis on the bundled scenarios
# ---------------------------------------------------------------------------


def action_names(mdp, actions):
    return sorted(mdp.actions[a] for a in actions)


def test_po1_battery4_sasi_selects_west(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    v0 = pm.initial
    assert v0 in result.sasi.actions
    assert action_names(mdp, result.sasi.actions[v0]) == ["West"]
    policy = CompositePolicy(result, mode="sasi")
    action, phase = policy.step(v0)
    assert mdp.actions[action] == "West"
    assert phase == "improve"


def test_po1_battery2_sasi_undefined_spi_west(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    result = synthesize(pm)
    v0 = pm.initial
    assert v0 not in result.sasi.actions
    assert v0 in result.spi.actions
    assert action_names(mdp, result.spi.actions[v0]) == ["West"]


def test_po2_battery4_sasi_north(po2_b4):
    atoms, spec, mdp, pdfa, pm = po2_b4
    result = synthesize(pm)
    v0 = pm.initial
    assert v0 in result.sasi.actions
    assert "North" in action_names(mdp, result.sasi.actions[v0])
    policy = CompositePolicy(result, mode="sasi")
    action, phase = policy.step(v0)
    assert mdp.actions[action] == "North"


def test_no_improvement_possible_everywhere_undefined():
    # Single outcome: the graph has no edges, so nothing ever improves.
    from prefplan.prefdfa import build_preference_dfa
    from prefplan.preferences import build_spec
    from prefplan.scltl import parse

    atoms = ("g",)
    spec = build_spec([("win", parse("F g", atoms))])
    pdfa = build_preference_dfa(spec, atoms)
    mdp = random_mdp(11, n_states=12, atoms=atoms, label_density=0.2)
    pm = build_product(mdp, pdfa)
    result = synthesize(pm)
    assert not result.spi.actions
    assert not result.sasi.actions


def test_theorem_reduction_form(po1_b4):
    # Defined exactly on the product states inside the respective regions
    # where the solver keeps some action.
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    im, target = result.improvement_mdp, {pm.n_states()}
    regions = (pwin(im.rows, target), aswin(im.rows, target))
    for strategy, region in zip((result.spi, result.sasi), regions):
        for v in range(pm.n_states()):
            assert (v in strategy.actions) == (
                v in region.region and bool(region.strategy.get(v))
            )
            if v in strategy.actions:
                assert strategy.actions[v] == region.strategy[v]


def doubled_reference(pm, cache):
    """The paper's doubled improvement MDP, rebuilt from the MDP, the
    automaton and the improvement relation: (v, True) marks v as just
    entered by an improving edge, an action with a regressing successor is
    dropped, and a state left with none gets a self-loop under action -1."""
    product = reference_solvers.product_dist(pm)

    def enabled(state):
        v, _ = state
        kept = [
            a
            for a in pm.mdp.rows[pm.state_pairs[v][0]]
            if not any(is_improvement(cache, w, v) for w, _ in product(v, a))
        ]
        return kept or [-1]

    def dist(state, a):
        v, flag = state
        if a == -1:
            return ((state, 1.0),)
        return tuple(
            ((w, not flag and is_improvement(cache, v, w)), p) for w, p in product(v, a)
        )

    states = tuple((v, flag) for v in range(pm.n_states()) for flag in (False, True))
    return MdpView(states=states, enabled=enabled, dist=dist), frozenset(s for s in states if s[1])


def project_doubled(region):
    actions = {}
    for (v, flag), acts in region.strategy.items():
        kept = frozenset(a for a in acts if a >= 0)
        if not flag and kept:
            actions[v] = kept
    return actions


@pytest.mark.parametrize(
    "instance", ["po1_b2", "po1_b4", "po2_b4"] + [f"random{seed}" for seed in range(20)]
)
def test_merged_target_matches_doubled_reference(instance, request):
    if instance.startswith("random"):
        pm = random_product(int(instance[len("random"):]))[3]
    else:
        pm = request.getfixturevalue(instance)[4]
    result = synthesize(pm)
    view, marked = doubled_reference(pm, result.cache)
    rows = support_rows(view)
    assert result.spi.actions == project_doubled(pwin(rows, marked))
    assert result.sasi.actions == project_doubled(aswin(rows, marked))


def test_monotone_improvement_classes_along_induced_paths(po2_b4):
    # Along any path of the sasi strategy the most-preferred winnable class
    # never steps to a strictly worse one.
    atoms, spec, mdp, pdfa, pm = po2_b4
    result = synthesize(pm)
    cache = result.cache
    seen = set(result.sasi.actions)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        actions = result.sasi.actions.get(v)
        if not actions:
            continue
        for a in actions:
            for w, p in pm.dist(v, a):
                if p > 0:
                    assert not is_improvement(cache, w, v)
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)


@pytest.mark.parametrize("stay", [0.1, 0.9])
def test_strategies_invariant_under_drift_probabilities(stay, po1_b4, po1_spec):
    # Only positivity of the drift split matters: the synthesized domains
    # and the start-state action sets must not depend on the split values.
    from prefplan.mdp import build_gridworld, gridworld_config_from_json
    from prefplan.prefdfa import build_preference_dfa

    from conftest import read_bundle_json

    atoms, spec, mdp_half, pdfa, pm_half = po1_b4
    base = synthesize(pm_half)

    doc = dict(read_bundle_json("po1/gridworld_battery4.json"))
    doc["stay_probability"] = stay
    mdp = build_gridworld(gridworld_config_from_json(doc))
    pm = build_product(mdp, build_preference_dfa(spec, atoms))
    result = synthesize(pm)
    assert set(result.sasi.actions) == set(base.sasi.actions)
    assert set(result.spi.actions) == set(base.spi.actions)
    assert result.sasi.actions.get(pm.initial) == base.sasi.actions.get(pm_half.initial)


def test_composite_policy_satisfices_with_achievable_node(po1_b4):
    # At a state where the improvement strategy is undefined but some node is
    # almost-surely winnable, the policy follows that node's strategy.
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi")
    cache = result.cache
    v = next(
        v
        for v in range(pm.n_states())
        if v not in result.sasi.actions and z_set(cache, v)
    )
    action, phase = policy.step(v)
    assert phase == "satisfice"
    from prefplan.synthesis import mp_nodes

    node = min(mp_nodes(pm, z_set(cache, v)))
    region = cache.aswin_by_node[node]
    expected = region.strategy.get(v)
    if expected:
        assert action in expected


def test_composite_policy_uniform_tie_break_uses_rng(po1_b4):
    import random

    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="spi", tie_break="uniform")
    v = next(v for v in result.spi.actions if len(result.spi.actions[v]) > 1)
    picks = {policy.step(v, random.Random(s))[0] for s in range(40)}
    assert len(picks) > 1
    assert picks <= set(result.spi.actions[v])


def test_strategy_export_roundtrip(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    doc = strategy_to_json(pm, result.spi)
    assert doc["mode"] == "spi"
    assert len(doc["entries"]) == len(result.spi.actions)
    assert len(doc["entries"]) + len(doc["undefined_states"]) == pm.n_states()
    regions = regions_to_json(result.cache)
    assert set(regions["nodes"]) == {str(n) for n in pm.node_members}
    dot = render(improvement_mdp_to_dot, result.improvement_mdp)
    assert "palegreen" in dot


@pytest.mark.parametrize("source", ["po1_b2", "po1_b4", "po2_b4", *range(20)])
def test_improvement_table_matches_definition(source, request):
    # Every ordered state pair: the cache's class table against the
    # definition over the MP node sets of the two states' z-sets.
    if isinstance(source, str):
        pm = request.getfixturevalue(source)[4]
    else:
        pm = random_product(source)[3]
    cache = aswin_by_node(pm)
    mp = [mp_nodes(pm, z_set(cache, v)) for v in range(pm.n_states())]
    # Class ids number the MP sets in the order the states first show them.
    assert cache.mp_sets == list(dict.fromkeys(mp))
    improving = 0
    for v, mp_v in enumerate(mp):
        assert cache.mp_of(v) == mp_v
        for w, mp_w in enumerate(mp):
            expected = any(
                a == BOTTOM != b or (a, b) in pm.node_edges for a in mp_v for b in mp_w
            )
            assert is_improvement(cache, v, w) == expected
            improving += expected
    if isinstance(source, str):
        assert improving > 0


# ---------------------------------------------------------------------------
# Decided states
# ---------------------------------------------------------------------------


def letter_fixed_points(pdfa):
    """The preference-DFA states that every letter maps to themselves."""
    return frozenset(q for q, row in enumerate(pdfa.rows) if row.count(q) == len(row))


@pytest.mark.parametrize(
    "doc, n_decided",
    [
        (read_bundle_json("po1/preferences.json"), 1),
        (read_bundle_json("po2/preferences.json"), 15),
        (WIDE_PREF_DOC, 4),
        (RECURRENT_PREF_DOC, 1),
    ],
    ids=["po1", "po2", "wide", "recurrent"],
)
def test_decided_states_are_those_every_letter_fixes(doc, n_decided):
    # The component rule (every component DFA at an absorbing state) marks
    # exactly the states whose every successor is the state itself.
    atoms, spec = load_preference_document(doc)
    pdfa = build_preference_dfa(spec, atoms)
    assert pdfa.decided == letter_fixed_points(pdfa)
    assert len(pdfa.decided) == n_decided


def ladder_po2_product(tmp_path):
    """The product of the benchmark's ladder-po2 workload at seed 0."""
    spec = importlib.util.spec_from_file_location("workloads", BUNDLES.parents[2] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    paths = workloads.generate("ladder-po2", 0, tmp_path, BUNDLES)
    atoms, pref = load_preference_document(json.loads(paths["preferences"].read_text()))
    config = gridworld_config_from_json(json.loads(paths["config"].read_text()))
    return build_product(build_gridworld(config), build_preference_dfa(pref, atoms))


@pytest.mark.parametrize(
    "source, n_decided, n_states",
    [("po1_b2", 0, 25), ("po1_b4", 0, 96), ("po2_b4", 60, 107), ("recurrent", 40, 180), ("ladder-po2", 2119, 3162)],
)
def test_decided_product_states_are_left_out_of_the_order(source, n_decided, n_states, request, tmp_path):
    if source == "recurrent":
        pm = recurrent_product()
    elif source == "ladder-po2":
        pm = ladder_po2_product(tmp_path)
    else:
        pm = request.getfixturevalue(source)[4]
    assert (len(pm.decided), pm.n_states()) == (n_decided, n_states)
    fixed = letter_fixed_points(pm.pdfa)
    assert pm.decided == {v for v, (_, q) in enumerate(pm.state_pairs) if q in fixed}
    # A decided state reaches only states at its own DFA state ...
    pairs = pm.state_pairs
    for v in pm.decided:
        assert all(pairs[w][1] == pairs[v][1] for succ in pm.rows[v].values() for w in succ)
    # ... so the one SCC order every solve sweeps holds the other states.
    order = aswin_by_node(pm).order
    states = list(order.states())
    assert len(states) == len(set(states)) and set(states) == set(range(n_states)) - pm.decided
