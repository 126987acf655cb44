"""Labeled MDPs and gridworld configs, each checked in the one pass that reads
it, and a battery-constrained stochastic gridworld generator, valid by
construction.

Gridworld dynamics: four compass actions, each costing one battery unit.
Moves into obstacles or off the grid bounce back to the source cell.  Moves
into a drift cell resolve stochastically between staying and sliding to a
drift neighbor; drift neighbors that are blocked fold their probability back
onto the intended cell.  Battery-0 states are absorbing.
"""

from __future__ import annotations

import math

from .record import Record
from .schema import CELL, CELLS, STRINGS, json_fields
from .scltl import DEFAULT_STATE_CAP, CapacityError, declare_alphabet, dot_escape

__all__ = [
    "MdpError",
    "LabeledMdp",
    "GridworldConfig",
    "load_mdp",
    "mdp_to_json",
    "gridworld_config_from_json",
    "build_gridworld",
    "mdp_to_dot",
    "GRID_ACTIONS",
]

PROB_TOL = 1e-9

_DELTAS = {"North": (0, 1), "East": (1, 0), "South": (0, -1), "West": (-1, 0)}
GRID_ACTIONS = tuple(_DELTAS)


class MdpError(ValueError):
    """Raised for schema violations and stochasticity failures."""


class LabeledMdp(Record):
    """Finite labeled MDP with a partial action map.

    ``rows[s]`` maps each action defined at state ``s``, in ascending order,
    to a tuple of (successor, probability) pairs, every probability positive,
    summing to one, and so is ``initial``; every state has at least one
    defined action.  The record checks none of this: ``load_mdp`` and
    ``build_gridworld`` make it so.
    """

    atoms: tuple
    states: tuple  # state ids (strings)
    actions: tuple  # action names
    labels: tuple  # frozenset of atoms per state
    rows: tuple  # per state index, {action index: ((succ index, prob), ...)}
    initial: tuple  # ((state index, prob), ...)

    def n_states(self) -> int:
        return len(self.states)

    @property
    def transitions(self) -> dict:
        """(s, a) -> ``rows[s][a]``, built on each read; read by ``perfbench/tracing.py`` only."""
        return {(s, a): dist for s, row in enumerate(self.rows) for a, dist in row.items()}


def load_mdp(doc: dict) -> LabeledMdp:
    """Load and check the MDP JSON schema in one pass, in reading order.

    Schema: {"atoms": [...], "states": [{"id", "label": [...]}],
    "actions": [...], "transitions": [{"from", "action", "to":
    [{"state", "prob"}]}], "initial": [{"state", "prob"}]}.

    State ids are unique and labels name declared atoms; a transition names
    declared states and action, once per pair, with finite, non-negative
    probabilities that sum to one within ``PROB_TOL``; every state has an
    action; the initial distribution sums to one likewise.  An entry of
    probability 0 is not an edge: once checked, it is dropped.
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
        labels = tuple(map(frozenset, labels))  # a list or object in a label is unhashable
        state_index = {sid: i for i, sid in enumerate(states)}
        if len(state_index) != len(states):
            raise MdpError("duplicate state ids")
        atom_set = frozenset(atoms)
        for sid, label in zip(states, labels):
            if not label <= atom_set:
                # A label that is not all strings fails sorted(); _check_entries names it.
                raise MdpError(f"state {sid!r} labeled with undeclared atoms {sorted(label - atom_set)}")
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

        rows = [{} for _ in states]
        top = [-1] * len(rows)  # per state, its highest action so far
        ascending, inf = True, math.inf
        for entry in transition_entries:
            s = resolve_state(entry["from"])
            if entry["action"] not in action_index:
                raise MdpError(f"reference to undeclared action {entry['action']!r}")
            a = action_index[entry["action"]]
            row = rows[s]
            if a in row:
                raise MdpError(f"duplicate transition for ({entry['from']!r},{entry['action']!r})")
            if a > top[s]:
                top[s] = a
            else:
                ascending = False  # the rows are sorted below
            pairs, probs, positive = [], [], True
            for successor in entry["to"]:
                # Read as ``weighted`` reads an entry, inlined: this is the loader's hot loop.
                p = successor["prob"]
                if p.__class__ is not float and p.__class__ is not int:
                    raise TypeError("a probability must be a number")
                t = state_index.get(successor["state"])
                if t is None:
                    raise MdpError(f"reference to undeclared state {successor['state']!r}")
                p = float(p)
                pairs.append((t, p))
                probs.append(p)
                if not 0.0 < p < inf:  # true for NaN too
                    positive = False
            total = sum(probs, 0.0)
            if total != 1.0 and abs(total - 1.0) <= PROB_TOL:
                # Rounding drift is normalized away; a negative entry is named as
                # normalized.  Dividing by a total this close to one keeps every
                # probability's sign and finiteness, so ``positive`` still holds.
                pairs = [(t, p / total) for t, p in pairs]
            if not positive:
                where = f"({entry['from']!r},{entry['action']!r})"
                for _, p in pairs:
                    if not math.isfinite(p):
                        raise MdpError(f"probability {p} at {where} is not a finite number")
                    if p < 0:
                        raise MdpError(f"negative probability {p} at {where}")
                pairs = [(t, p) for t, p in pairs if p]
            if abs(total - 1.0) > PROB_TOL:
                raise MdpError(f"distribution at ({entry['from']!r},{entry['action']!r}) sums to {total}")
            row[a] = tuple(pairs)
        initial = tuple(map(weighted, initial_entries))

        for s, sid in enumerate(states):
            if not rows[s]:
                raise MdpError(f"state {sid!r} has no defined action")
        total = sum(p for _, p in initial)
        if abs(total - 1.0) > PROB_TOL:
            raise MdpError(f"initial distribution sums to {total}")
        for _, p in initial:
            if not math.isfinite(p):
                raise MdpError(f"initial probability {p} is not a finite number")
            if p < 0:
                raise MdpError(f"negative initial probability {p}")
        initial = tuple((t, p) for t, p in initial if p)
        if not ascending:
            rows = [dict(sorted(row.items())) for row in rows]
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError):
        # Entries are checked only once reading them failed: checking each
        # one up front doubles the load time of a large MDP.  An MdpError is
        # a ValueError, so a malformed entry is named before any other fault.
        _check_entries(state_entries, transition_entries, initial_entries)
        raise
    return LabeledMdp(
        atoms=tuple(atoms),
        states=states,
        actions=tuple(actions),
        labels=labels,
        rows=tuple(rows),
        initial=initial,
    )


def _check_entries(state_entries, transition_entries, initial_entries):
    """Raise an MdpError naming the first malformed entry field."""

    def check_weighted(entry, where):
        _, p = json_fields(entry, where, MdpError, {"state": str, "prob": (int, float)})
        try:
            float(p)
        except OverflowError:  # an int beyond the float range
            raise MdpError(f"{where}: 'prob' is too large for a float, got {p!r:.60}") from None

    for entry in state_entries:
        json_fields(entry, "state entry", MdpError, {"id": str, "label": STRINGS},
                    defaults={"label": []})
    for entry in transition_entries:
        frm, act, to = json_fields(
            entry, "transition entry", MdpError, {"from": str, "action": str, "to": list}
        )
        for t in to:
            check_weighted(t, f"successor of ({frm!r},{act!r})")
    for entry in initial_entries:
        check_weighted(entry, "initial entry")


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
                "to": [{"state": mdp.states[t], "prob": p} for t, p in dist],
            }
            for s, row in enumerate(mdp.rows)
            for a, dist in row.items()
        ],
        "initial": [{"state": mdp.states[t], "prob": p} for t, p in mdp.initial],
    }


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------


class GridworldConfig(Record):
    """A gridworld config as ``gridworld_config_from_json`` reads and checks it
    (each cell on the grid, stay probability in (0, 1)); the record checks nothing."""

    width: int
    height: int
    start: tuple  # (col, row)
    battery_capacity: int
    obstacles: frozenset  # of (col, row)
    drift_cells: dict  # (col, row) -> tuple of directions
    regions: dict  # atom -> frozenset of (col, row)
    stay_probability: float


def gridworld_config_from_json(doc: dict, stay_probability: float | None = None) -> GridworldConfig:
    """Read and check a gridworld config in one pass: shapes, region names, whole
    sizes, then every range and cell.  ``stay_probability``, when given, replaces
    the config's value after the shape checks and before the range check."""
    where = "malformed gridworld config"
    number = (int, float)
    width, height, start, battery, obstacles, drift, regions, stay = json_fields(
        doc, where, MdpError,
        {"width": number, "height": number, "start": CELL, "battery_capacity": number,
         "obstacles": CELLS, "drift": list, "regions": dict, "stay_probability": number},
        defaults={"obstacles": [], "drift": [], "regions": {}, "stay_probability": 0.5},
    )
    drift_entries = [
        json_fields(entry, f"{where}: drift entry", MdpError, {"cell": CELL, "directions": STRINGS})
        for entry in drift
    ]
    json_fields(regions, f"{where}: regions", MdpError, dict.fromkeys(regions, CELLS))
    if stay_probability is not None:
        stay = stay_probability
    try:
        declare_alphabet(regions)  # a region name is an atom a preference document declares
        for name, value in (("width", width), ("height", height), ("battery_capacity", battery)):
            if int(value) != value:
                raise ValueError(f"{name!r} must be a whole number, got {value!r}")
        width, height, battery, stay = int(width), int(height), int(battery), float(stay)
        obstacles = frozenset(tuple(c) for c in obstacles)
        regions = {atom: frozenset(tuple(c) for c in cells) for atom, cells in regions.items()}

        def check_cell(cell, what):
            col, row = cell
            if not (0 <= col < width and 0 <= row < height):
                raise ValueError(f"{what} at {cell} is outside the {width}x{height} grid")
            if col != int(col) or row != int(row):
                raise ValueError(f"{what} at {cell} is not a grid cell: coordinates must be integers")

        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        if battery < 1:
            raise ValueError("battery capacity must be at least 1")
        if not 0 < stay < 1:
            raise ValueError("stay probability must lie strictly between 0 and 1")
        for cell in obstacles:
            check_cell(cell, "obstacle")
        drift_cells = {}
        for cell, directions in drift_entries:
            cell = tuple(cell)
            if cell in drift_cells:
                raise ValueError(f"drift cell {cell} is listed twice")
            check_cell(cell, "drift cell")
            if cell in obstacles:
                raise ValueError(f"drift cell {cell} is an obstacle")
            if not directions:
                raise ValueError(f"drift cell {cell} has no directions")
            for d in directions:
                if d not in _DELTAS:
                    raise ValueError(f"invalid drift direction {d!r} at {cell}")
            drift_cells[cell] = tuple(directions)
        for atom, cells in regions.items():
            for cell in cells:
                check_cell(cell, f"region {atom}")
                if cell in obstacles:
                    raise ValueError(f"region {atom} overlaps obstacle at {cell}")
        start = tuple(start)
        check_cell(start, "start")
        if start in obstacles:
            raise ValueError("start cell is an obstacle")
    except (TypeError, ValueError, OverflowError) as e:
        raise MdpError(f"{where}: {e}") from e
    return GridworldConfig(
        width=width, height=height, start=start, battery_capacity=battery,
        obstacles=obstacles, drift_cells=drift_cells, regions=regions, stay_probability=stay,
    )


def build_gridworld(cfg: GridworldConfig, state_cap: int = DEFAULT_STATE_CAP) -> LabeledMdp:
    """Expand a gridworld config into a labeled MDP over (cell, battery).

    The k-th free cell in row-major order, at battery b, is state
    ``k * (battery_capacity + 1) + b``, with id ``c{col}r{row}b{b}``, so
    identical configs always produce identical MDPs.  A config of more than
    ``state_cap`` states raises ``CapacityError`` before any is enumerated.
    """
    levels = cfg.battery_capacity + 1
    n_states = (cfg.width * cfg.height - len(cfg.obstacles)) * levels
    if n_states > state_cap:
        raise CapacityError(f"gridworld has {n_states} states, more than the cap of {state_cap}")
    cells = [(col, row) for row in range(cfg.height) for col in range(cfg.width)
             if (col, row) not in cfg.obstacles]
    first = {cell: k * levels for k, cell in enumerate(cells)}  # each free cell's battery-0 state
    cell_atoms = {}
    for atom, region in cfg.regions.items():
        for cell in region:
            cell_atoms.setdefault(cell, set()).add(atom)

    def step(cell, direction):
        """Where a move from ``cell`` lands: off the grid or into an obstacle, it stays put."""
        dc, dr = _DELTAS[direction]
        target = (cell[0] + dc, cell[1] + dr)
        return target if target in first else cell

    states, labels, rows = [], [], []
    for cell in cells:
        # Per action, the successors' battery-0 states and their probabilities,
        # in the order of their cells; every battery level above 0 shares them.
        moves = []
        for action in GRID_ACTIONS:
            intended = step(cell, action)
            directions = cfg.drift_cells.get(intended, ())
            probs = {intended: cfg.stay_probability if directions else 1.0}
            for d in directions:
                neighbor = step(intended, d)
                probs[neighbor] = probs.get(neighbor, 0.0) + (1.0 - cfg.stay_probability) / len(directions)
            moves.append(tuple((first[target], p) for target, p in sorted(probs.items())))
        label = frozenset(cell_atoms.get(cell, ()))
        for battery in range(levels):
            states.append(f"c{cell[0]}r{cell[1]}b{battery}")
            labels.append(label)
            if battery == 0:  # absorbing
                rows.append({a: ((first[cell], 1.0),) for a in range(len(GRID_ACTIONS))})
            else:
                rows.append({a: tuple((t + battery - 1, p) for t, p in move) for a, move in enumerate(moves)})

    return LabeledMdp(
        atoms=tuple(sorted(cfg.regions)),
        states=tuple(states),
        actions=GRID_ACTIONS,
        labels=tuple(labels),
        rows=tuple(rows),
        initial=((first[cfg.start] + cfg.battery_capacity, 1.0),),
    )


def mdp_to_dot(mdp: LabeledMdp, write) -> None:
    """Write the MDP in DOT through ``write``, a state or a (state, action)'s
    lines at a time."""
    write("digraph mdp {\n  rankdir=LR;\n")
    for i, sid in enumerate(mdp.states):
        label = sid
        if mdp.labels[i]:
            label += "\\n{" + dot_escape(",".join(sorted(mdp.labels[i]))) + "}"
        write(f'  s{i} [shape=ellipse label="{label}"];\n')
    for s, row in enumerate(mdp.rows):
        for a, dist in row.items():
            write("".join(f'  s{s} -> s{t} [label="{mdp.actions[a]}:{p:g}"];\n' for t, p in dist))
    write("}\n")
