"""Product construction, qualitative solvers, and improving-strategy synthesis."""

import pytest

import reference_solvers
from prefplan.mdp import load_mdp
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
    view_of_mdp,
    z_set,
)
from prefplan.verify import value_iteration

from conftest import (
    THREE_STATE_PREF_DOC,
    dead_start_product,
    random_mdp,
    random_product,
    three_state_mdp_doc,
    three_state_product,
)


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
    region = pwin(chain_view().rows, {2})
    assert region.region == {0, 1, 2}
    assert region.strategy[0] == {0}
    assert region.strategy[1] == {0}


def test_pwin_excludes_trap():
    region = pwin(coin_view().rows, {2})
    assert 3 not in region.region
    assert 0 in region.region  # positive probability suffices


def test_aswin_separates_positive_from_almost_sure():
    rows = coin_view().rows
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
        almost = aswin(view.rows, target).region
        positive = pwin(view.rows, target).region
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
        almost = aswin(view.rows, target)
        positive = pwin(view.rows, target)

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
        region = aswin(view.rows, target)
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
        assert pm.enabled(v) == mdp.enabled(s)
        for a in mdp.enabled(s):
            stepped = [
                ((s2, pdfa.rows[q][pdfa.position[mdp.labels[s2]]]), p)
                for s2, p in mdp.transitions[(s, a)]
                if p > 0
            ]
            assert [(pm.state_pairs[w], p) for w, p in pm.dist(v, a)] == stepped


def test_dist_steps_the_positive_mdp_entries_in_order():
    # A zero-probability entry is no edge, and a successor listed twice stays
    # two entries: dist is the MDP's distribution stepped through the
    # automaton, nothing merged or reordered.
    doc = three_state_mdp_doc(zero_successor=True)
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
    assert mdp.transitions[(2, 0)] == ((2, 1.0), (1, 0.0))
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
            assert succ == [w for w, _ in pm.dist(v, a)]


def test_product_initial_consumes_start_label(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    s0 = mdp.initial[0][0]
    assert pm.state_pairs[pm.initial] == (s0, pdfa.step(pdfa.initial, mdp.labels[s0]))


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
        assert node_id in z_set(pm, v, cache)


def test_z_set_empty_at_low_battery_start(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    cache = aswin_by_node(pm)
    assert z_set(pm, pm.initial, cache) == frozenset()


def test_mp_nodes_bottom_for_empty(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    assert mp_nodes(pm, frozenset()) == frozenset({BOTTOM})


def test_improvement_via_direct_edge(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    # Pick members of the A-node and the B-node: the latter improves on the
    # former through the preference-graph edge.
    node_of_mp = {node.mp: node.node_id for node in pdfa.graph.nodes}
    n_a = node_of_mp[frozenset({spec.index_of("visit_A")})]
    n_b = node_of_mp[frozenset({spec.index_of("visit_B")})]
    v_a = min(pm.node_members[n_a])
    v_b = min(pm.node_members[n_b])
    assert is_improvement(pm, v_a, v_b, cache)
    assert not is_improvement(pm, v_b, v_a, cache)
    assert not is_improvement(pm, v_a, v_a, cache)


def test_improvement_from_nothing_via_bottom(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    cache = aswin_by_node(pm)
    v0 = pm.initial
    assert z_set(pm, v0, cache) == frozenset()
    some_winner = next(
        v for node in pm.node_members.values() for v in node
    )
    assert is_improvement(pm, v0, some_winner, cache)
    assert not is_improvement(pm, some_winner, v0, cache)


# ---------------------------------------------------------------------------
# Improvement MDP
# ---------------------------------------------------------------------------


def test_improvement_mdp_adds_one_target_state(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(pm, cache)
    assert im.improved == pm.n_states()
    assert sorted(im.rows) == list(range(pm.n_states() + 1))
    assert im.rows[im.improved] == {}


def test_improvement_mdp_routing(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(pm, cache)
    routed_somewhere = False
    for v in range(pm.n_states()):
        for a, routed in im.rows[v].items():
            support = [w for w, p in pm.dist(v, a) if p > 0]
            assert len(routed) == len(support)
            for t, w in zip(routed, support):
                assert (t == im.improved) == is_improvement(pm, v, w, cache)
                if t != im.improved:
                    assert t == w
                routed_somewhere |= t == im.improved
    assert routed_somewhere


def test_improvement_mdp_disables_regressing_actions(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(pm, cache)
    for v in range(pm.n_states()):
        for a in pm.enabled(v):
            regresses = any(
                is_improvement(pm, w, v, cache) for w, p in pm.dist(v, a) if p > 0
            )
            assert (a in im.rows[v]) == (not regresses)


def test_dead_states_never_positively_winning():
    pm = dead_start_product()
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(pm, cache)
    assert im.dead == {0}
    assert im.rows[0] == {}
    assert len(pm.enabled(0)) == 2  # both product actions regress
    result = synthesize(pm, cache)
    for v in im.dead:
        assert not result.spi.defined_at(v)
        assert not result.sasi.defined_at(v)
    dot = improvement_mdp_to_dot(im)
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
    assert result.sasi.defined_at(v0)
    assert action_names(mdp, result.sasi.get(v0)) == ["West"]
    policy = CompositePolicy(result, mode="sasi")
    action, phase = policy.step(v0)
    assert mdp.actions[action] == "West"
    assert phase == "improve"


def test_po1_battery2_sasi_undefined_spi_west(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    result = synthesize(pm)
    v0 = pm.initial
    assert not result.sasi.defined_at(v0)
    assert result.spi.defined_at(v0)
    assert action_names(mdp, result.spi.get(v0)) == ["West"]


def test_po2_battery4_sasi_north(po2_b4):
    atoms, spec, mdp, pdfa, pm = po2_b4
    result = synthesize(pm)
    v0 = pm.initial
    assert result.sasi.defined_at(v0)
    assert "North" in action_names(mdp, result.sasi.get(v0))
    policy = CompositePolicy(result, mode="sasi")
    action, phase = policy.step(v0)
    assert mdp.actions[action] == "North"


def test_no_improvement_possible_everywhere_undefined():
    # Single outcome: the graph has no edges, so nothing ever improves.
    from prefplan.prefdfa import build_preference_dfa
    from prefplan.preferences import PreferenceDeclarations, build_spec
    from prefplan.scltl import parse

    atoms = ("g",)
    decl = PreferenceDeclarations(
        atoms=atoms, outcomes=[("win", parse("F g", atoms))], statements=[]
    )
    spec = build_spec(decl)
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
    for strategy, region in ((result.spi, result.spi_region), (result.sasi, result.sasi_region)):
        for v in range(pm.n_states()):
            assert strategy.defined_at(v) == (
                v in region.region and bool(region.strategy.get(v))
            )
            if strategy.defined_at(v):
                assert strategy.get(v) == region.strategy[v]


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
            for a in pm.mdp.enabled(pm.state_pairs[v][0])
            if not any(is_improvement(pm, w, v, cache) for w, _ in product(v, a))
        ]
        return kept or [-1]

    def dist(state, a):
        v, flag = state
        if a == -1:
            return ((state, 1.0),)
        return tuple(
            ((w, not flag and is_improvement(pm, v, w, cache)), p) for w, p in product(v, a)
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
    assert result.spi.actions == project_doubled(pwin(view.rows, marked))
    assert result.sasi.actions == project_doubled(aswin(view.rows, marked))


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
                    assert not is_improvement(pm, w, v, cache)
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
    assert result.sasi.get(pm.initial) == base.sasi.get(pm_half.initial)


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
        if not result.sasi.defined_at(v) and z_set(pm, v, cache)
    )
    action, phase = policy.step(v)
    assert phase == "satisfice"
    from prefplan.synthesis import mp_nodes

    node = min(mp_nodes(pm, z_set(pm, v, cache)))
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
    regions = regions_to_json(pm, result.cache)
    assert set(regions["nodes"]) == {str(n) for n in pm.node_members}
    dot = improvement_mdp_to_dot(result.improvement_mdp)
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
    mp = [mp_nodes(pm, z_set(pm, v, cache)) for v in range(pm.n_states())]
    improving = 0
    for v, mp_v in enumerate(mp):
        assert cache.mp_of(v) == mp_v
        for w, mp_w in enumerate(mp):
            expected = any(
                a == BOTTOM != b or (a, b) in pm.node_edges for a in mp_v for b in mp_w
            )
            assert is_improvement(pm, v, w, cache) == expected
            improving += expected
    if isinstance(source, str):
        assert improving > 0
