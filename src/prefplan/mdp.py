"""Labeled MDPs: JSON ingestion, validation, and a battery-constrained
stochastic gridworld generator.

Gridworld dynamics: four compass actions, each costing one battery unit.
Moves into obstacles or off the grid bounce back to the source cell.  Moves
into a drift cell resolve stochastically between staying and sliding to a
drift neighbor; drift neighbors that are blocked fold their probability back
onto the intended cell.  Battery-0 states are absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .schema import STRINGS, json_fields

__all__ = [
    "MdpError",
    "LabeledMdp",
    "GridworldConfig",
    "load_mdp",
    "mdp_to_json",
    "gridworld_config_from_json",
    "gridworld_config_to_json",
    "build_gridworld",
    "mdp_to_dot",
    "GRID_ACTIONS",
]

PROB_TOL = 1e-9

GRID_ACTIONS = ("North", "East", "South", "West")
_DELTAS = {"North": (0, 1), "East": (1, 0), "South": (0, -1), "West": (-1, 0)}


class MdpError(ValueError):
    """Raised for schema violations and stochasticity failures."""


@dataclass(frozen=True)
class LabeledMdp:
    """Finite labeled MDP with a partial action map.

    ``transitions[(s, a)]`` is a tuple of (successor, probability) pairs
    summing to one; every state has at least one defined action.
    """

    atoms: tuple
    states: tuple  # state ids (strings)
    actions: tuple  # action names
    labels: tuple  # frozenset of atoms per state
    transitions: dict  # (state index, action index) -> ((succ index, prob), ...)
    initial: tuple  # ((state index, prob), ...)

    def __post_init__(self):
        self.validate()

    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, state_id: str) -> int:
        try:
            return self.states.index(state_id)
        except ValueError:
            raise MdpError(f"unknown state id {state_id!r}") from None

    def enabled(self, s: int) -> list:
        return [a for a in range(len(self.actions)) if (s, a) in self.transitions]

    def dist(self, s: int, a: int):
        return self.transitions[(s, a)]

    def validate(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise MdpError("duplicate state ids")
        if len(self.labels) != n:
            raise MdpError("labels must cover every state")
        atom_set = set(self.atoms)
        for s, label in enumerate(self.labels):
            extra = set(label) - atom_set
            if extra:
                raise MdpError(f"state {self.states[s]!r} labeled with undeclared atoms {sorted(extra)}")
        defined = set()
        for (s, a), dist in self.transitions.items():
            if not 0 <= s < n or not 0 <= a < len(self.actions):
                raise MdpError(f"dangling transition reference ({s},{a})")
            total = 0.0
            for t, p in dist:
                if not 0 <= t < n:
                    raise MdpError(f"dangling successor index {t}")
                if not math.isfinite(p):
                    raise MdpError(
                        f"probability {p} at ({self.states[s]!r},{self.actions[a]!r}) is not a finite number"
                    )
                if p < 0:
                    raise MdpError(f"negative probability {p} at ({self.states[s]!r},{self.actions[a]!r})")
                total += p
            if abs(total - 1.0) > PROB_TOL:
                raise MdpError(
                    f"distribution at ({self.states[s]!r},{self.actions[a]!r}) sums to {total}"
                )
            defined.add(s)
        for s in range(n):
            if s not in defined:
                raise MdpError(f"state {self.states[s]!r} has no defined action")
        total = sum(p for _, p in self.initial)
        if abs(total - 1.0) > PROB_TOL:
            raise MdpError(f"initial distribution sums to {total}")
        for t, p in self.initial:
            if not 0 <= t < n:
                raise MdpError(f"dangling initial state index {t}")
            if not math.isfinite(p):
                raise MdpError(f"initial probability {p} is not a finite number")


def load_mdp(doc: dict) -> LabeledMdp:
    """Load the MDP JSON schema.

    Schema: {"atoms": [...], "states": [{"id", "label": [...]}],
    "actions": [...], "transitions": [{"from", "action", "to":
    [{"state", "prob"}]}], "initial": [{"state", "prob"}]}.
    """
    atoms, state_entries, actions, transition_entries, initial_entries = json_fields(
        doc, "MDP document", MdpError,
        {"atoms": STRINGS, "states": list, "actions": STRINGS, "transitions": list, "initial": list},
    )
    try:
        states = tuple(entry["id"] for entry in state_entries)
        labels = tuple(entry.get("label", []) for entry in state_entries)
        # A number would pass as an id and a string as a set of atoms; _check_entries names the field.
        if any(sid.__class__ is not str for sid in states) or any(x.__class__ is not list for x in labels):
            raise TypeError("a state id must be a string and its label a list")
        state_index = {sid: i for i, sid in enumerate(states)}
        if len(state_index) != len(states):
            raise MdpError("duplicate state ids")
        action_index = {a: i for i, a in enumerate(actions)}

        def resolve_state(sid):
            if sid not in state_index:
                raise MdpError(f"reference to undeclared state {sid!r}")
            return state_index[sid]

        def weighted(entry):
            # float() reads a string or a JSON boolean; _check_entries names it.
            p = entry["prob"]
            if p.__class__ is not float and p.__class__ is not int:
                raise TypeError("a probability must be a number")
            return resolve_state(entry["state"]), float(p)

        transitions = {}
        for entry in transition_entries:
            s = resolve_state(entry["from"])
            if entry["action"] not in action_index:
                raise MdpError(f"reference to undeclared action {entry['action']!r}")
            a = action_index[entry["action"]]
            if (s, a) in transitions:
                raise MdpError(f"duplicate transition for ({entry['from']!r},{entry['action']!r})")
            dist = tuple(map(weighted, entry["to"]))
            total = sum(p for _, p in dist)
            if total != 1.0 and abs(total - 1.0) <= PROB_TOL:
                # Rounding drift is normalized away; validate rejects a larger error.
                dist = tuple((t, p / total) for t, p in dist)
            transitions[(s, a)] = dist

        initial = tuple(map(weighted, initial_entries))
    except (KeyError, TypeError, AttributeError, ValueError):
        # Entries are checked only once reading them failed: checking each
        # one up front doubles the load time of a large MDP.
        _check_entries(state_entries, transition_entries, initial_entries)
        raise
    return LabeledMdp(
        atoms=tuple(atoms),
        states=states,
        actions=tuple(actions),
        labels=tuple(map(frozenset, labels)),
        transitions=transitions,
        initial=initial,
    )


def _check_entries(state_entries, transition_entries, initial_entries):
    """Raise an MdpError naming the first malformed entry field."""
    weighted = {"state": str, "prob": (int, float)}
    for entry in state_entries:
        json_fields(entry, "state entry", MdpError, {"id": str, "label": STRINGS},
                    defaults={"label": []})
    for entry in transition_entries:
        frm, act, to = json_fields(
            entry, "transition entry", MdpError, {"from": str, "action": str, "to": list}
        )
        for t in to:
            json_fields(t, f"successor of ({frm!r},{act!r})", MdpError, weighted)
    for entry in initial_entries:
        json_fields(entry, "initial entry", MdpError, weighted)


def mdp_to_json(mdp: LabeledMdp) -> dict:
    return {
        "atoms": list(mdp.atoms),
        "states": [
            {"id": sid, "label": sorted(mdp.labels[i])} for i, sid in enumerate(mdp.states)
        ],
        "actions": list(mdp.actions),
        "transitions": [
            {
                "from": mdp.states[s],
                "action": mdp.actions[a],
                "to": [{"state": mdp.states[t], "prob": p} for t, p in mdp.transitions[(s, a)]],
            }
            for (s, a) in sorted(mdp.transitions)
        ],
        "initial": [{"state": mdp.states[t], "prob": p} for t, p in mdp.initial],
    }


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridworldConfig:
    width: int
    height: int
    start: tuple  # (col, row)
    battery_capacity: int
    obstacles: frozenset = frozenset()  # of (col, row)
    drift_cells: dict = field(default_factory=dict)  # (col, row) -> tuple of directions
    regions: dict = field(default_factory=dict)  # atom -> frozenset of (col, row)
    stay_probability: float = 0.5

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MdpError("grid dimensions must be positive")
        if self.battery_capacity < 1:
            raise MdpError("battery capacity must be at least 1")
        if not 0 < self.stay_probability < 1:
            raise MdpError("stay probability must lie strictly between 0 and 1")
        for cell in self.obstacles:
            self._check_bounds(cell, "obstacle")
        for cell, directions in self.drift_cells.items():
            self._check_bounds(cell, "drift cell")
            if cell in self.obstacles:
                raise MdpError(f"drift cell {cell} is an obstacle")
            if not directions:
                raise MdpError(f"drift cell {cell} has no directions")
            for d in directions:
                if d not in _DELTAS:
                    raise MdpError(f"invalid drift direction {d!r} at {cell}")
        for atom, cells in self.regions.items():
            for cell in cells:
                self._check_bounds(cell, f"region {atom}")
                if cell in self.obstacles:
                    raise MdpError(f"region {atom} overlaps obstacle at {cell}")
        self._check_bounds(self.start, "start")
        if self.start in self.obstacles:
            raise MdpError("start cell is an obstacle")

    def _check_bounds(self, cell, what):
        col, row = cell
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise MdpError(f"{what} at {cell} is outside the {self.width}x{self.height} grid")
        if col != int(col) or row != int(row):
            raise MdpError(f"{what} at {cell} is not a grid cell: coordinates must be integers")

    def walkable(self):
        return [
            (col, row)
            for row in range(self.height)
            for col in range(self.width)
            if (col, row) not in self.obstacles
        ]


def gridworld_config_from_json(doc: dict) -> GridworldConfig:
    where = "malformed gridworld config"
    number = (int, float)
    width, height, start, battery, obstacles, drift, regions, stay = json_fields(
        doc, where, MdpError,
        {"width": number, "height": number, "start": list, "battery_capacity": number,
         "obstacles": list, "drift": list, "regions": dict, "stay_probability": number},
        defaults={"obstacles": [], "drift": [], "regions": {}, "stay_probability": 0.5},
    )
    drift_entries = [
        json_fields(entry, f"{where}: drift entry", MdpError, {"cell": list, "directions": STRINGS})
        for entry in drift
    ]
    try:
        return GridworldConfig(
            width=int(width),
            height=int(height),
            start=tuple(start),
            battery_capacity=int(battery),
            obstacles=frozenset(tuple(c) for c in obstacles),
            drift_cells={tuple(cell): tuple(directions) for cell, directions in drift_entries},
            regions={atom: frozenset(tuple(c) for c in cells) for atom, cells in regions.items()},
            stay_probability=float(stay),
        )
    except (TypeError, ValueError, OverflowError) as e:
        raise MdpError(f"{where}: {e}") from e


def gridworld_config_to_json(cfg: GridworldConfig) -> dict:
    return {
        "width": cfg.width,
        "height": cfg.height,
        "start": list(cfg.start),
        "battery_capacity": cfg.battery_capacity,
        "stay_probability": cfg.stay_probability,
        "obstacles": sorted(list(c) for c in cfg.obstacles),
        "drift": [
            {"cell": list(cell), "directions": list(directions)}
            for cell, directions in sorted(cfg.drift_cells.items())
        ],
        "regions": {atom: sorted(list(c) for c in cells) for atom, cells in sorted(cfg.regions.items())},
    }


def _state_id(cell, battery) -> str:
    return f"c{cell[0]}r{cell[1]}b{battery}"


def build_gridworld(cfg: GridworldConfig) -> LabeledMdp:
    """Expand a gridworld config into a labeled MDP over (cell, battery).

    State order is row-major over cells with ascending battery, so identical
    configs always produce identical MDPs.
    """
    cells = cfg.walkable()
    atoms = tuple(sorted(cfg.regions))
    cell_atoms = {}
    for atom, region in cfg.regions.items():
        for cell in region:
            cell_atoms.setdefault(cell, set()).add(atom)

    states = []
    index = {}
    labels = []
    for cell in cells:
        for battery in range(cfg.battery_capacity + 1):
            index[(cell, battery)] = len(states)
            states.append(_state_id(cell, battery))
            labels.append(frozenset(cell_atoms.get(cell, ())))

    def blocked(cell):
        col, row = cell
        return (
            not (0 <= col < cfg.width and 0 <= row < cfg.height)
            or cell in cfg.obstacles
        )

    transitions = {}
    for cell in cells:
        for battery in range(cfg.battery_capacity + 1):
            s = index[(cell, battery)]
            for a, action in enumerate(GRID_ACTIONS):
                if battery == 0:
                    transitions[(s, a)] = ((s, 1.0),)
                    continue
                dc, dr = _DELTAS[action]
                intended = (cell[0] + dc, cell[1] + dr)
                if blocked(intended):
                    intended = cell
                outcome_probs: dict = {}
                if intended in cfg.drift_cells:
                    directions = cfg.drift_cells[intended]
                    k = len(directions)
                    share = (1.0 - cfg.stay_probability) / k
                    outcome_probs[intended] = cfg.stay_probability
                    for d in directions:
                        ddc, ddr = _DELTAS[d]
                        neighbor = (intended[0] + ddc, intended[1] + ddr)
                        if blocked(neighbor):
                            neighbor = intended
                        outcome_probs[neighbor] = outcome_probs.get(neighbor, 0.0) + share
                else:
                    outcome_probs[intended] = 1.0
                dist = tuple(
                    (index[(target, battery - 1)], p)
                    for target, p in sorted(outcome_probs.items())
                )
                transitions[(s, a)] = dist

    initial = ((index[(cfg.start, cfg.battery_capacity)], 1.0),)
    return LabeledMdp(
        atoms=atoms,
        states=tuple(states),
        actions=GRID_ACTIONS,
        labels=tuple(labels),
        transitions=transitions,
        initial=initial,
    )


def mdp_to_dot(mdp: LabeledMdp) -> str:
    lines = ["digraph mdp {", "  rankdir=LR;"]
    for i, sid in enumerate(mdp.states):
        label = sid
        if mdp.labels[i]:
            label += "\\n{" + ",".join(sorted(mdp.labels[i])) + "}"
        lines.append(f'  s{i} [shape=ellipse label="{label}"];')
    for (s, a), dist in sorted(mdp.transitions.items()):
        for t, p in dist:
            lines.append(f'  s{s} -> s{t} [label="{mdp.actions[a]}:{p:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
