"""Differential tests: the indexed solvers against the reference oracles.

``prefplan.synthesis.pwin``/``aswin`` solve over the support rows each model
builds; ``reference_solvers`` rebuilds the predecessor map from a closure
view's ``enabled``/``dist`` on every fixpoint pass.  Both must return the same
region and the same action set per state on every model the pipeline solves.
The views for the pipeline's models come from ``reference_solvers`` too, so
the oracle never reads the rows under test.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefplan.synthesis as synthesis
import prefplan.verify as verify
import reference_solvers
from prefplan.synthesis import MdpView, aswin, scc_order, synthesize, view_of_mdp

from conftest import random_mdp, random_product

BUNDLES = ["po1_b2", "po1_b4", "po2_b4"]
SOLVERS = (
    (synthesis.pwin, reference_solvers.pwin),
    (synthesis.aswin, reference_solvers.aswin),
)


def solve_both(fast, slow, view, target):
    got, want = fast(view.rows, target), slow(view, target)
    assert got.region == want.region
    assert got.strategy == want.strategy
    return got


@contextmanager
def recorded_solves(module):
    """Let ``module``'s pwin/aswin calls run the fast solvers, recording each
    as (reference solver, target, result, SCC order or None) for
    ``check_against``."""
    calls = []

    def recording(fast, slow):
        def solve(rows, target, *order):
            got = fast(rows, target, *order)
            calls.append((slow, frozenset(target), got, order[0] if order else None))
            return got

        return solve

    (pwin, ref_pwin), (aswin, ref_aswin) = SOLVERS
    with mock.patch.object(module, "pwin", recording(pwin, ref_pwin)), \
            mock.patch.object(module, "aswin", recording(aswin, ref_aswin)):
        yield calls


def check_against(calls, view_of):
    """Solve each recorded call again with its reference solver on the view
    ``view_of(target)``, and compare."""
    for slow, target, got, _ in calls:
        want = slow(view_of(target), target)
        assert got.region == want.region
        assert got.strategy == want.strategy


def check_synthesize(pm):
    with recorded_solves(synthesis) as calls:
        result = synthesize(pm)
    im = result.improvement_mdp
    product = reference_solvers.product_view(pm)
    improvement = reference_solvers.improvement_view(pm, result.cache)
    check_against(calls, lambda target: improvement if target == {im.improved} else product)
    # One aswin per node, then pwin and aswin on the improvement MDP; every
    # aswin sweeps the product's SCC order.
    nodes = sorted(pm.node_members.items())
    order = result.cache.order
    assert [(slow, target, o) for slow, target, _, o in calls] == [
        *((reference_solvers.aswin, members, order) for _, members in nodes),
        (reference_solvers.pwin, {im.improved}, None),
        (reference_solvers.aswin, {im.improved}, order),
    ]


@given(
    seed=st.integers(0, 10**6),
    n_states=st.integers(3, 40),
    n_targets=st.integers(0, 5),
    trap_fraction=st.sampled_from([0.0, 0.2, 0.5]),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_random_mdps_match_reference(seed, n_states, n_targets, trap_fraction):
    mdp = random_mdp(seed, n_states=n_states, n_actions=3, trap_fraction=trap_fraction)
    rng = random.Random(seed)
    target = frozenset(rng.sample(range(n_states), min(n_targets, n_states)))
    for fast, slow in SOLVERS:
        solve_both(fast, slow, view_of_mdp(mdp), target)


def test_random_mdps_need_several_fixpoint_passes():
    # The incremental pruning only matters when aswin drops states in more
    # than one pass; random MDPs like those above must include such cases.
    # The reference aswin makes one BFS per pass plus one for the strategy.
    original = reference_solvers._distances_to
    deep = 0
    for seed in range(40):
        mdp = random_mdp(seed, n_states=30, n_actions=3, trap_fraction=0.2)
        with mock.patch.object(reference_solvers, "_distances_to", wraps=original) as bfs:
            reference_solvers.aswin(view_of_mdp(mdp), {0, 1})
        deep += bfs.call_count - 1 >= 3
    assert deep > 0


@given(seed=st.integers(0, 10**4))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_random_product_solves_match_reference(seed):
    check_synthesize(random_product(seed)[3])


@pytest.mark.parametrize("bundle", BUNDLES)
def test_bundle_solves_match_reference(bundle, request):
    check_synthesize(request.getfixturevalue(bundle)[4])


@pytest.mark.parametrize("bundle", BUNDLES)
def test_chain_view_solves_match_reference(bundle, request):
    pm = request.getfixturevalue(bundle)[4]
    result = synthesize(pm)
    checked = 0
    for strategy in (result.spi, result.sasi):
        if not strategy.actions:
            continue
        view = reference_solvers.chain_view(pm, strategy, result.cache)
        for mode in ("spi", "sasi"):
            with recorded_solves(verify) as calls:
                verify.check_strategy_conditions(pm, strategy, mode, result.cache)
            assert len(calls) == 1
            check_against(calls, lambda target: view)
            checked += 1
    assert checked >= 2


# ---------------------------------------------------------------------------
# The SCC sweep
# ---------------------------------------------------------------------------


def block_rows(seed, n_blocks):
    """Support rows built block by block.  A block is a cycle of two to four
    states, a state whose first action is a self-loop, a dead state (no
    action) or a plain state.  Actions lead inside their block or to earlier
    blocks; a few edges to any state merge blocks into larger components."""
    rng = random.Random(seed)
    rows = {}
    for _ in range(n_blocks):
        kind = rng.choice(("cycle", "loop", "dead", "plain"))
        earlier = list(rows)
        block = list(range(len(rows), len(rows) + (rng.randint(2, 4) if kind == "cycle" else 1)))
        for i, s in enumerate(block):
            rows[s] = row = {}
            if kind == "dead":
                continue
            if kind == "cycle":
                row[0] = [block[(i + 1) % len(block)]]
            elif kind == "loop":
                row[0] = [s] + rng.sample(earlier, min(len(earlier), rng.randint(0, 1)))
            pool = block + earlier
            for a in range(1, rng.randint(1, 3) + (kind == "plain")):
                row[a] = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
    for _ in range(rng.randint(0, 2)):
        s = rng.randrange(len(rows))
        if rows[s]:
            rows[s][rng.choice(list(rows[s]))].append(rng.randrange(len(rows)))
    return rows


def view_of_rows(rows):
    """A closure view of support rows, uniform over each action's successors."""
    return MdpView(
        states=tuple(rows),
        enabled=lambda s: list(rows[s]),
        dist=lambda s, a: tuple((t, 1 / len(rows[s][a])) for t in rows[s][a]),
    )


def block_target(rows, seed):
    rng = random.Random(seed)
    return frozenset(rng.sample(list(rows), min(len(rows), rng.randint(0, 3))))


def components(order):
    """The components of an SccOrder as lists of states, sinks first."""
    return [list(order.members.get(root, (root,))) for root in order.roots]


@given(seed=st.integers(0, 10**6), n_blocks=st.integers(1, 12))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_sweep_matches_reference_on_block_models(seed, n_blocks):
    rows = block_rows(seed, n_blocks)
    target = block_target(rows, seed)
    view = view_of_rows(rows)
    want = reference_solvers.aswin(view, target)
    for got in (aswin(rows, target), aswin(rows, target, scc_order(rows))):
        assert got.region == want.region
        assert got.strategy == want.strategy
    solve_both(synthesis.pwin, reference_solvers.pwin, view, target)


def test_block_models_cover_every_kind_of_component():
    # The differential test above must meet each case the sweep tells apart.
    seen = set()
    for seed in range(300):
        rows = block_rows(seed, 8)
        target = block_target(rows, seed)
        win = aswin(rows, target).region
        for comp in components(scc_order(rows)):
            if len(comp) > 1:
                seen.add("component with a target" if target & set(comp) else "component")
                if 0 < len(win & set(comp)) < len(comp):
                    seen.add("component split by the fixpoint")
            elif not rows[comp[0]]:
                seen.add("dead state")
            elif any(comp[0] in succ for succ in rows[comp[0]].values()):
                seen.add("winning self-loop" if comp[0] in win else "losing self-loop")
    assert seen == {
        "component", "component with a target", "component split by the fixpoint",
        "dead state", "winning self-loop", "losing self-loop",
    }


def check_scc_order(rows):
    order = scc_order(rows)
    comps = components(order)
    position = {s: i for i, comp in enumerate(comps) for s in comp}
    # The components partition the states ...
    assert sorted(position) == sorted(rows) and sum(map(len, comps)) == len(rows)
    # ... every edge stays in its component or leads to an earlier one ...
    for s, row in rows.items():
        for succ in row.values():
            assert all(position[t] <= position[s] for t in succ)
    # ... and each component is strongly connected, so none could be larger.
    for comp in comps:
        inside, seen, frontier = set(comp), {comp[0]}, [comp[0]]
        while frontier:
            s = frontier.pop()
            for succ in rows[s].values():
                for t in succ:
                    if t in inside and t not in seen:
                        seen.add(t)
                        frontier.append(t)
        assert seen == inside, comp


@given(seed=st.integers(0, 10**6), n_blocks=st.integers(1, 12), n_states=st.integers(3, 40))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_scc_order_is_a_topological_order_of_the_components(seed, n_blocks, n_states):
    check_scc_order(block_rows(seed, n_blocks))
    check_scc_order(view_of_mdp(random_mdp(seed, n_states=n_states, n_actions=3)).rows)


@pytest.mark.parametrize("bundle", BUNDLES)
def test_per_node_strategies_are_built_on_first_read(bundle, request):
    pm = request.getfixturevalue(bundle)[4]
    result = synthesize(pm)
    product = reference_solvers.product_view(pm)
    for node, region in result.cache.aswin_by_node.items():
        assert "strategy" not in vars(region)  # synthesis never reads them
        want = reference_solvers.aswin(product, pm.node_members[node])
        assert region.strategy == want.strategy
        assert vars(region)["strategy"] is region.strategy
