"""Differential tests: per-state MDP rows against the (state, action)-keyed
oracle, and the gridworld generator against its two-pass predecessor.

``prefplan.mdp.load_mdp`` stores each state's distributions as one row,
actions ascending, and ``prefplan.synthesis.build_product`` walks those rows
and keys its pair index by one int per pair; ``reference_mdp`` keeps both as
they were before.  A valid document must load to the same model and give the
same product numbering and support rows, whatever order it lists its
transitions in; a document with one fault must fail with the same exception
and the same text.  ``build_gridworld`` must expand every config to the model
the oracle's generator gives, rows and their action order included.
"""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mdp
from prefplan.mdp import GridworldConfig, build_gridworld, gridworld_config_from_json, load_mdp, mdp_to_json
from prefplan.prefdfa import build_preference_dfa
from prefplan.preferences import load_preference_document
from prefplan.synthesis import build_product

from conftest import (
    DIST_SHAPES,
    read_bundle_json,
    random_mdp,
    random_preference_problem,
    three_state_mdp_doc,
)

BUNDLE_GRIDS = ["po1/gridworld_battery2.json", "po1/gridworld_battery4.json", "po2/gridworld_battery4.json"]
# Shapes whose left-to-right sum is off one by rounding, so the loader normalizes them.
DRIFT_SHAPES = [(0.7, 0.2, 0.1), (0.1, 0.2, 0.7), (0.7 + 4e-10, 0.3)]


def _bundle_pdfa(bundle):
    atoms, spec = load_preference_document(read_bundle_json(f"{bundle}/preferences.json"))
    return build_preference_dfa(spec, atoms)


PDFAS = {bundle: _bundle_pdfa(bundle) for bundle in ("po1", "po2")}


def as_reference(mdp):
    """A loaded model in the oracle's terms: (state, action) -> distribution."""
    transitions = {(s, a): dist for s, row in enumerate(mdp.rows) for a, dist in row.items()}
    return reference_mdp.ReferenceMdp(mdp.atoms, mdp.states, mdp.actions, mdp.labels, transitions, mdp.initial)


def assert_loads_as_reference(doc, pdfa=None):
    expected, mdp = reference_mdp.load_mdp(doc), load_mdp(doc)
    assert as_reference(mdp) == expected
    assert all(list(row) == sorted(row) for row in mdp.rows)
    if pdfa is not None:
        pm, oracle = build_product(mdp, pdfa), reference_mdp.build_product(expected, pdfa)
        assert pm.state_pairs == oracle.state_pairs
        assert {v: list(row.items()) for v, row in pm.rows.items()} == {
            v: list(row.items()) for v, row in oracle.rows.items()
        }


@st.composite
def gridworld_configs(draw):
    """A small gridworld over the bundles' atoms, valid by construction."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [(col, row) for row in range(height) for col in range(width)]
    start = draw(st.sampled_from(cells))
    free = [c for c in cells if c != start]
    obstacles = draw(st.sets(st.sampled_from(free), max_size=len(free) // 3)) if free else set()
    open_cells = [c for c in cells if c not in obstacles]
    drift = draw(st.dictionaries(
        st.sampled_from(open_cells),
        st.lists(st.sampled_from(["North", "East", "South", "West"]), min_size=1, max_size=4).map(tuple),
        max_size=3,
    ))
    regions = draw(st.dictionaries(
        st.sampled_from("ABCDEF"), st.frozensets(st.sampled_from(open_cells), min_size=1, max_size=2), max_size=4,
    ))
    return GridworldConfig(
        width=width, height=height, start=start, battery_capacity=draw(st.integers(1, 3)),
        obstacles=frozenset(obstacles), drift_cells=drift, regions=regions,
        stay_probability=draw(st.sampled_from([0.1, 1 / 3, 0.5, 0.7, 0.9])),
    )


BUNDLE_CONFIGS = [gridworld_config_from_json(read_bundle_json(grid)) for grid in BUNDLE_GRIDS]


def gridworld_parts(mdp):
    """A generated model's fields, each row as its (action, distribution)
    items: ``Record`` equality compares dicts without their order."""
    return (mdp.atoms, mdp.states, mdp.actions, mdp.labels,
            [list(row.items()) for row in mdp.rows], mdp.initial)


@given(cfg=st.one_of(gridworld_configs(), st.sampled_from(BUNDLE_CONFIGS)))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_gridworlds_build_as_the_reference(cfg):
    assert gridworld_parts(build_gridworld(cfg)) == gridworld_parts(reference_mdp.build_gridworld(cfg))


@st.composite
def valid_documents(draw):
    """(an MDP document, a preference DFA over its atoms): a bundle gridworld,
    a generated gridworld or a random MDP, its transitions listed in a drawn
    order and, sometimes, each one's successors too."""
    source = draw(st.sampled_from(["bundle", "gridworld", "random"]))
    if source == "bundle":
        grid = draw(st.sampled_from(BUNDLE_GRIDS))
        doc = mdp_to_json(build_gridworld(gridworld_config_from_json(read_bundle_json(grid))))
        pdfa = PDFAS[grid.split("/")[0]]
    elif source == "gridworld":
        doc, pdfa = mdp_to_json(build_gridworld(draw(gridworld_configs()))), PDFAS["po2"]
    else:
        seed = draw(st.integers(0, 10**6))
        atoms, spec = random_preference_problem(seed)
        mdp = random_mdp(seed, n_states=12, atoms=atoms, label_density=0.3, shapes=DIST_SHAPES + DRIFT_SHAPES)
        doc, pdfa = mdp_to_json(mdp), build_preference_dfa(spec, atoms)
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(doc["transitions"])
    if draw(st.booleans()):
        for entry in doc["transitions"]:
            rng.shuffle(entry["to"])
    return doc, pdfa


@given(case=valid_documents())
@settings(derandomize=True, max_examples=120, deadline=None)
def test_valid_documents_load_and_build_as_the_reference(case):
    assert_loads_as_reference(*case)


def test_bundle_gridworlds_load_and_build_as_the_reference():
    for grid in BUNDLE_GRIDS:
        doc = json.loads(json.dumps(mdp_to_json(build_gridworld(gridworld_config_from_json(read_bundle_json(grid))))))
        assert_loads_as_reference(doc, PDFAS[grid.split("/")[0]])


# ---------------------------------------------------------------------------
# Single-fault documents
# ---------------------------------------------------------------------------

# Values a fault puts in place of any part of a document: wrong JSON types,
# numbers beyond the float range, non-finite and out-of-range probabilities,
# and names that are or are not declared.
FAULT_VALUES = [
    None, True, False, 0, 1, -1, 2, 0.5, -0.5, 1.5, 1e-12, 1 - 4e-10, -0.0, 10**400, -(10**400),
    math.nan, math.inf, -math.inf, "", "x", "0.5", "s0", "s1", "s2", "a", "b", "A", "B",
    [], ["A"], [1], [[]], {}, {"state": "s0"}, {"state": "s0", "prob": 1.0},
]


def _small_documents():
    docs = [three_state_mdp_doc(), three_state_mdp_doc(zero_successor=True, zero_initial=True)]
    cfg = GridworldConfig(
        width=2, height=1, start=(0, 0), battery_capacity=1, obstacles=frozenset(),
        drift_cells={(1, 0): ("West", "North")}, regions={"A": frozenset({(1, 0)})}, stay_probability=0.5,
    )
    docs.append(mdp_to_json(build_gridworld(cfg)))
    for seed in range(3):
        docs.append(mdp_to_json(random_mdp(seed, n_states=4, n_actions=2, atoms=("A",), label_density=0.5,
                                           shapes=DIST_SHAPES + DRIFT_SHAPES[:2])))
    return docs


SMALL_DOCUMENTS = _small_documents()


def _paths(node, path=()):
    """The path (keys and indices) of every part of a JSON document."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def single_fault_documents(draw):
    """A small valid document with one part replaced, deleted or repeated (a
    list item twice in a row, an object's value as a list of itself twice)."""
    doc = copy.deepcopy(draw(st.sampled_from(SMALL_DOCUMENTS)))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    fault = draw(st.sampled_from(["replace", "delete", "repeat"]))
    if fault == "replace":
        parent[key] = draw(st.sampled_from(FAULT_VALUES))
    elif fault == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key], parent[key]]
    return doc


def outcome(load, doc):
    """What loading ``doc`` gives: the model in the oracle's terms, or the
    exception's type and text."""
    try:
        mdp = load(doc)
    except Exception as e:  # whatever is raised is compared, not handled
        return type(e), str(e)
    return mdp if isinstance(mdp, reference_mdp.ReferenceMdp) else as_reference(mdp)


@given(doc=single_fault_documents())
@settings(derandomize=True, max_examples=400, deadline=None)
def test_single_fault_documents_fail_as_the_reference(doc):
    assert outcome(load_mdp, doc) == outcome(reference_mdp.load_mdp, doc)
