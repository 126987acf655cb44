"""Differential test: the improvement-MDP DOT export against the reference.

``prefplan.synthesis.improvement_mdp_to_dot`` renders each MDP (state,
action)'s labels and each edge of a product state once;
``reference_dot`` renders every edge line from scratch for both copies of
every state.  Both must give the same string, dead states and improving
edges included.
"""

import pytest

import reference_dot
from prefplan.synthesis import aswin_by_node, build_improvement_mdp, improvement_mdp_to_dot

from conftest import dead_start_product, random_product, render, unsatisfiable_product

PRODUCTS = {
    "dead-start": dead_start_product,
    "unsatisfiable": unsatisfiable_product,
    **{f"random-{seed}": lambda seed=seed: random_product(seed)[3] for seed in range(12)},
}


def improvement_mdp(pm):
    return build_improvement_mdp(aswin_by_node(pm))


def improving_edges(im):
    return sum(t == im.cache.improved for row in im.rows.values() for r in row.values() for t in r)


def check_dot(im):
    assert render(improvement_mdp_to_dot, im) == reference_dot.improvement_mdp_to_dot(im)


@pytest.mark.parametrize("bundle", ["po1_b2", "po1_b4", "po2_b4"])
def test_dot_matches_reference_on_bundles(bundle, request):
    im = improvement_mdp(request.getfixturevalue(bundle)[4])
    assert improving_edges(im) > 0
    check_dot(im)


@pytest.mark.parametrize("name", PRODUCTS)
def test_dot_matches_reference_on_products(name):
    check_dot(improvement_mdp(PRODUCTS[name]()))


def test_products_cover_dead_states_and_improving_edges():
    ims = [improvement_mdp(build()) for build in PRODUCTS.values()]
    assert any(im.dead for im in ims)
    assert sum(improving_edges(im) > 0 for im in ims) >= 3
