"""MDP ingestion/validation and the gridworld generator rules."""

import gc
import json
import math

import pytest

from prefplan.mdp import (
    GRID_ACTIONS,
    PROB_TOL,
    GridworldConfig,
    MdpError,
    build_gridworld,
    gridworld_config_from_json,
    load_mdp,
    mdp_to_dot,
    mdp_to_json,
)

from conftest import read_bundle_json, render


def minimal_doc():
    return {
        "atoms": ["goal"],
        "states": [{"id": "s0", "label": []}, {"id": "s1", "label": ["goal"]}],
        "actions": ["go"],
        "transitions": [
            {"from": "s0", "action": "go", "to": [{"state": "s1", "prob": 1.0}]},
            {"from": "s1", "action": "go", "to": [{"state": "s1", "prob": 1.0}]},
        ],
        "initial": [{"state": "s0", "prob": 1.0}],
    }


def test_load_minimal():
    mdp = load_mdp(minimal_doc())
    assert mdp.n_states() == 2
    assert mdp.labels[1] == frozenset({"goal"})
    assert list(mdp.rows[0]) == [0]


def test_load_rejects_substochastic():
    doc = minimal_doc()
    doc["transitions"][0]["to"] = [{"state": "s1", "prob": 0.8}]
    with pytest.raises(MdpError, match="sums to"):
        load_mdp(doc)


def test_load_normalizes_rounding_drift():
    doc = minimal_doc()
    doc["transitions"][0]["to"] = [
        {"state": "s1", "prob": 0.7 + 4e-10},
        {"state": "s0", "prob": 0.3},
    ]
    mdp = load_mdp(doc)
    assert sum(p for _, p in mdp.rows[0][0]) == 1.0


def test_load_rejects_undeclared_atom():
    doc = minimal_doc()
    doc["states"][1]["label"] = ["mystery"]
    with pytest.raises(MdpError, match="undeclared atom"):
        load_mdp(doc)


def test_load_rejects_dangling_state():
    doc = minimal_doc()
    doc["transitions"][0]["to"] = [{"state": "nowhere", "prob": 1.0}]
    with pytest.raises(MdpError, match="undeclared state"):
        load_mdp(doc)


def test_load_rejects_actionless_state():
    doc = minimal_doc()
    doc["transitions"] = doc["transitions"][:1]
    with pytest.raises(MdpError, match="no defined action"):
        load_mdp(doc)


def test_load_rejects_negative_probability():
    doc = minimal_doc()
    doc["transitions"][0]["to"] = [
        {"state": "s1", "prob": 1.5},
        {"state": "s0", "prob": -0.5},
    ]
    with pytest.raises(MdpError, match="negative"):
        load_mdp(doc)


@pytest.mark.parametrize(
    "prob, initial", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)], ids=["nan", "inf", "initial-nan"]
)
def test_rejects_non_finite_probability(prob, initial):
    doc = minimal_doc()
    doc["transitions"][0]["to"] = [{"state": "s1", "prob": prob}]
    doc["initial"] = [{"state": "s0", "prob": initial}]
    with pytest.raises(MdpError, match="not a finite number"):
        load_mdp(doc)


def test_mdp_json_roundtrip():
    mdp = load_mdp(minimal_doc())
    again = load_mdp(mdp_to_json(mdp))
    assert again == mdp


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------


def small_config(**overrides):
    base = dict(
        width=3,
        height=3,
        start=(0, 0),
        battery_capacity=2,
        obstacles=frozenset({(1, 1)}),
        drift_cells={(2, 2): ("West", "South")},
        regions={"goal": frozenset({(2, 0)})},
        stay_probability=0.5,
    )
    base.update(overrides)
    return GridworldConfig(**base)


def state_index(mdp, cell, battery):
    return mdp.states.index(f"c{cell[0]}r{cell[1]}b{battery}")


def dist_of(mdp, cell, battery, action):
    s = state_index(mdp, cell, battery)
    a = GRID_ACTIONS.index(action)
    return {mdp.states[t]: p for t, p in mdp.rows[s][a]}


def test_plain_move_deterministic():
    mdp = build_gridworld(small_config())
    assert dist_of(mdp, (0, 0), 2, "East") == {"c1r0b1": 1.0}


def test_bounce_off_obstacle_and_boundary():
    mdp = build_gridworld(small_config())
    # North from (1,0) hits the obstacle at (1,1): back where it started.
    assert dist_of(mdp, (1, 0), 2, "North") == {"c1r0b1": 1.0}
    # South off the boundary likewise, still costing one unit.
    assert dist_of(mdp, (0, 0), 2, "South") == {"c0r0b1": 1.0}


def test_drift_split():
    mdp = build_gridworld(small_config())
    # Entering the drift cell (2,2): stay 0.5, each of two drift
    # neighbors 0.25.
    assert dist_of(mdp, (2, 1), 2, "North") == {
        "c2r2b1": 0.5,
        "c1r2b1": 0.25,
        "c2r1b1": 0.25,
    }


def test_drift_bounce_folds_back():
    # Drift neighbors that are blocked return their share to the drift cell.
    cfg = small_config(drift_cells={(2, 2): ("East", "South")})  # East is off-grid
    mdp = build_gridworld(cfg)
    assert dist_of(mdp, (2, 1), 2, "North") == {
        "c2r2b1": 0.75,
        "c2r1b1": 0.25,
    }


def test_battery_zero_absorbing():
    mdp = build_gridworld(small_config())
    for action in GRID_ACTIONS:
        assert dist_of(mdp, (1, 0), 0, action) == {"c1r0b0": 1.0}


def test_battery_monotone():
    mdp = build_gridworld(small_config())

    def battery_of(sid):
        return int(sid.rpartition("b")[2])

    for s, row in enumerate(mdp.rows):
        for dist in row.values():
            for t, p in dist:
                if p > 0:
                    assert battery_of(mdp.states[t]) <= battery_of(mdp.states[s])


def test_labels_at_every_battery_level():
    mdp = build_gridworld(small_config())
    for b in range(3):
        assert mdp.labels[state_index(mdp, (2, 0), b)] == frozenset({"goal"})


def test_initial_is_start_at_capacity():
    mdp = build_gridworld(small_config())
    ((s, p),) = mdp.initial
    assert mdp.states[s] == "c0r0b2"
    assert p == 1.0


def test_generator_deterministic():
    a = build_gridworld(small_config())
    b = build_gridworld(small_config())
    assert a == b
    assert mdp_to_json(a) == mdp_to_json(b)


def test_distributions_stochastic():
    mdp = build_gridworld(small_config())
    for dist in (dist for row in mdp.rows for dist in row.values()):
        assert abs(sum(p for _, p in dist) - 1.0) < 1e-9
        assert all(p > 0 for _, p in dist)


def test_config_validation():
    def read(**fields):
        return gridworld_config_from_json({
            "width": 3, "height": 3, "start": [0, 0], "battery_capacity": 2, "obstacles": [[1, 1]],
            "drift": [{"cell": [2, 2], "directions": ["West", "South"]}], "regions": {"goal": [[2, 0]]},
            "stay_probability": 0.5, **fields,
        })

    assert read() == small_config()
    with pytest.raises(MdpError, match="obstacle"):
        read(start=[1, 1])
    with pytest.raises(MdpError, match="overlaps obstacle"):
        read(regions={"goal": [[1, 1]]})
    with pytest.raises(MdpError, match="outside"):
        read(obstacles=[[9, 9]])
    with pytest.raises(MdpError, match="drift direction"):
        read(drift=[{"cell": [2, 2], "directions": ["Up"]}])
    with pytest.raises(MdpError, match="battery"):
        read(battery_capacity=0)
    with pytest.raises(MdpError, match="stay probability"):
        read(stay_probability=1.0)


@pytest.mark.parametrize(
    "bundle,grid,capacity,obstacles",
    [
        ("po1", "gridworld_battery4.json", 4, 1),
        ("po1", "gridworld_battery2.json", 2, 1),
        ("po2", "gridworld_battery4.json", 4, 3),
    ],
)
def test_bundle_gridworlds_build(bundle, grid, capacity, obstacles):
    doc = read_bundle_json(f"{bundle}/{grid}")
    mdp = build_gridworld(gridworld_config_from_json(doc))
    assert set(mdp.atoms) == {"A", "B", "C", "D", "E", "F"}
    assert mdp.actions == GRID_ACTIONS
    assert mdp.n_states() == (25 - obstacles) * (capacity + 1)


def drift_config(stay_probability):
    """A 4x3 grid with drift cells of one to four directions, some blocked."""
    return GridworldConfig(
        width=4,
        height=3,
        start=(0, 0),
        battery_capacity=2,
        obstacles=frozenset({(1, 1)}),
        drift_cells={
            (0, 2): ("West",),  # off the grid
            (1, 2): ("South", "East"),  # South is the obstacle
            (2, 1): ("North", "East", "West"),  # West is the obstacle
            (3, 0): GRID_ACTIONS,  # East and South are off the grid
        },
        regions={"goal": frozenset({(3, 2)}), "mid": frozenset({(2, 1), (3, 2)})},
        stay_probability=stay_probability,
    )


BUNDLE_GRIDS = [("po1", "gridworld_battery4.json"), ("po1", "gridworld_battery2.json"),
                ("po2", "gridworld_battery4.json")]


@pytest.mark.parametrize(
    "cfg",
    [gridworld_config_from_json(read_bundle_json(f"{b}/{g}")) for b, g in BUNDLE_GRIDS]
    + [drift_config(stay) for stay in (0.1, 1 / 3, 0.7)],
    ids=[f"{b}-{g}" for b, g in BUNDLE_GRIDS] + ["stay-0.1", "stay-1/3", "stay-0.7"],
)
def test_generated_gridworld_passes_the_loader(cfg):
    # LabeledMdp checks nothing itself, so every model build_gridworld makes
    # must be one that load_mdp accepts, and read back as the same model.
    built = build_gridworld(cfg)
    loaded = load_mdp(json.loads(json.dumps(mdp_to_json(built))))
    assert (loaded.atoms, loaded.states, loaded.actions, loaded.labels, loaded.initial) == (
        built.atoms, built.states, built.actions, built.labels, built.initial
    )
    assert [list(row) for row in loaded.rows] == [list(row) for row in built.rows]
    for loaded_row, row in zip(loaded.rows, built.rows):
        for a, dist in row.items():
            assert [t for t, _ in loaded_row[a]] == [t for t, _ in dist]
            assert all(abs(p - q) <= PROB_TOL for (_, p), (_, q) in zip(loaded_row[a], dist))


def test_dot_export():
    mdp = build_gridworld(small_config())
    dot = render(mdp_to_dot, mdp)
    assert dot.startswith("digraph")
    assert "goal" in dot


@pytest.mark.parametrize("order", ["listed", "reversed"])
@pytest.mark.parametrize("b, g", BUNDLE_GRIDS + [("drift", "stay-1/3")])
def test_loaded_rows_hold_tuples_the_collector_skips(b, g, order):
    # A distribution holds (int, float) pairs only, so one full collection
    # untracks every pair.  The collector looks at a tuple before the tuples
    # it holds, so the distributions, and with them the row dicts, go at the
    # next full collection (as any tuple of new tuples does).
    cfg = drift_config(1 / 3) if b == "drift" else gridworld_config_from_json(read_bundle_json(f"{b}/{g}"))
    doc = json.loads(json.dumps(mdp_to_json(build_gridworld(cfg))))
    if order == "reversed":
        doc["transitions"].reverse()
    mdp = load_mdp(doc)
    dists = [dist for row in mdp.rows for dist in row.values()]
    assert all(type(dist) is tuple for dist in dists)
    gc.collect()
    assert not any(gc.is_tracked(pair) for dist in dists for pair in dist)
    gc.collect()
    assert not any(map(gc.is_tracked, dists))
    assert not any(map(gc.is_tracked, mdp.rows))
