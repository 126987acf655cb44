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
from prefplan.synthesis import synthesize, view_of_mdp

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
    as (reference solver, target, result) for ``check_against``."""
    calls = []

    def recording(fast, slow):
        def solve(rows, target):
            got = fast(rows, target)
            calls.append((slow, frozenset(target), got))
            return got

        return solve

    (pwin, ref_pwin), (aswin, ref_aswin) = SOLVERS
    with mock.patch.object(module, "pwin", recording(pwin, ref_pwin)), \
            mock.patch.object(module, "aswin", recording(aswin, ref_aswin)):
        yield calls


def check_against(calls, view_of):
    """Solve each recorded call again with its reference solver on the view
    ``view_of(target)``, and compare."""
    for slow, target, got in calls:
        want = slow(view_of(target), target)
        assert got.region == want.region
        assert got.strategy == want.strategy


def check_synthesize(pm):
    with recorded_solves(synthesis) as calls:
        result = synthesize(pm)
    im = result.improvement_mdp
    product = reference_solvers.product_view(pm)
    improvement = reference_solvers.improvement_view(im, result.cache)
    check_against(calls, lambda target: improvement if target == {im.improved} else product)
    # One aswin per node, then pwin and aswin on the improvement MDP.
    nodes = sorted(pm.node_members.items())
    assert [(slow, target) for slow, target, _ in calls] == [
        *((reference_solvers.aswin, members) for _, members in nodes),
        (reference_solvers.pwin, {im.improved}),
        (reference_solvers.aswin, {im.improved}),
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
