"""The MDP loader and the product build as they were before per-state rows,
and the gridworld generator as it was before it numbered states by rule.

Test-only oracle: ``load_mdp`` keys each distribution by its ``(state,
action)`` pair in document order and reads every successor through one
``weighted`` call; ``build_product`` scans every action of the MDP at each
product state and keys its pair index by ``(s, q)`` tuples.  The versions in
``prefplan.mdp``/``prefplan.synthesis`` must give the same model, the same
product numbering and, on a faulty document, the same exception and text.
"""

import math
from typing import NamedTuple

from prefplan.mdp import PROB_TOL, LabeledMdp, MdpError
from prefplan.schema import STRINGS, json_fields
from prefplan.scltl import DEFAULT_STATE_CAP, CapacityError


GRID_ACTIONS = ("North", "East", "South", "West")
_DELTAS = {"North": (0, 1), "East": (1, 0), "South": (0, -1), "West": (-1, 0)}


class ReferenceMdp(NamedTuple):
    atoms: tuple
    states: tuple
    actions: tuple
    labels: tuple
    transitions: dict  # (state index, action index) -> ((succ index, prob), ...), in document order
    initial: tuple

    def enabled(self, s: int) -> list:
        return [a for a in range(len(self.actions)) if (s, a) in self.transitions]


class ReferenceProduct(NamedTuple):
    state_pairs: tuple
    rows: dict


def load_mdp(doc: dict) -> ReferenceMdp:
    atoms, state_entries, actions, transition_entries, initial_entries = json_fields(
        doc, "MDP document", MdpError,
        {"atoms": STRINGS, "states": list, "actions": STRINGS, "transitions": list, "initial": list},
    )
    try:
        states = tuple(entry["id"] for entry in state_entries)
        labels = tuple(entry.get("label", []) for entry in state_entries)
        if any(sid.__class__ is not str for sid in states) or any(x.__class__ is not list for x in labels):
            raise TypeError("a state id must be a string and its label a list")
        labels = tuple(map(frozenset, labels))
        _listed_once(states, "state id")
        state_index = {sid: i for i, sid in enumerate(states)}
        _listed_once(atoms, "atom")
        atom_set = frozenset(atoms)
        for sid, label in zip(states, labels):
            if not label <= atom_set:
                raise MdpError(f"state {sid!r} labeled with undeclared atoms {sorted(label - atom_set)}")
        _listed_once(actions, "action")
        action_index = {a: i for i, a in enumerate(actions)}

        def resolve_state(sid):
            if sid not in state_index:
                raise MdpError(f"reference to undeclared state {sid!r}")
            return state_index[sid]

        def weighted(entry):
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
            total = sum((p for _, p in dist), 0.0)
            if total != 1.0 and abs(total - 1.0) <= PROB_TOL:
                dist = tuple((t, p / total) for t, p in dist)
            if not all(0.0 < p < math.inf for _, p in dist):
                where = f"({entry['from']!r},{entry['action']!r})"
                for _, p in dist:
                    if not math.isfinite(p):
                        raise MdpError(f"probability {p} at {where} is not a finite number")
                    if p < 0:
                        raise MdpError(f"negative probability {p} at {where}")
                dist = tuple((t, p) for t, p in dist if p)
            if abs(total - 1.0) > PROB_TOL:
                raise MdpError(f"distribution at ({entry['from']!r},{entry['action']!r}) sums to {total}")
            transitions[(s, a)] = dist
        initial = tuple(map(weighted, initial_entries))
        _listed_once([states[t] for t, _ in initial], "initial state")

        defined = {s for s, _ in transitions}
        for s, sid in enumerate(states):
            if s not in defined:
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
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError):
        _check_entries(state_entries, transition_entries, initial_entries)
        raise
    return ReferenceMdp(tuple(atoms), states, tuple(actions), labels, transitions, initial)


def _listed_once(names, what):
    """Raise an MdpError naming the first name listed a second time."""
    seen = set()
    for name in names:
        if name in seen:
            raise MdpError(f"duplicate {what}s: {name!r}")
        seen.add(name)


def _check_entries(state_entries, transition_entries, initial_entries):
    def check_weighted(entry, where):
        _, p = json_fields(entry, where, MdpError, {"state": str, "prob": (int, float)})
        try:
            float(p)
        except OverflowError:
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


def build_product(mdp: ReferenceMdp, pdfa, state_cap: int = DEFAULT_STATE_CAP) -> ReferenceProduct:
    """The reachable (s, q) pairs, numbered in the order a depth-first
    frontier reaches them, and their support rows."""
    if set(mdp.atoms) - set(pdfa.alphabet):
        raise MdpError(
            f"MDP atoms {sorted(mdp.atoms)} not covered by preference alphabet "
            f"{sorted(pdfa.alphabet)}"
        )
    if len(mdp.initial) != 1:
        raise MdpError("product construction expects a single initial state")
    s0 = mdp.initial[0][0]
    positions = [pdfa.position[label] for label in mdp.labels]
    columns = {k: pdfa.column(k) for k in set(positions)}
    letter = [columns[k] for k in positions]
    q0 = letter[s0][pdfa.initial]

    pair_index = {(s0, q0): 0}
    state_pairs = [(s0, q0)]
    support_rows = {}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        s, q = state_pairs[v]
        support_rows[v] = row = {}
        for a in mdp.enabled(s):
            support = []
            for s2, _ in mdp.transitions[(s, a)]:
                q2 = letter[s2][q]
                w = pair_index.get((s2, q2))
                if w is None:
                    w = len(state_pairs)
                    if w >= state_cap:
                        raise CapacityError(f"product exceeded {state_cap} states")
                    pair_index[(s2, q2)] = w
                    state_pairs.append((s2, q2))
                    frontier.append(w)
                support.append(w)
            row[a] = tuple(support)
    return ReferenceProduct(tuple(state_pairs), support_rows)


def _state_id(cell, battery) -> str:
    return f"c{cell[0]}r{cell[1]}b{battery}"


def build_gridworld(cfg, state_cap: int = DEFAULT_STATE_CAP) -> LabeledMdp:
    n_states = (cfg.width * cfg.height - len(cfg.obstacles)) * (cfg.battery_capacity + 1)
    if n_states > state_cap:
        raise CapacityError(f"gridworld has {n_states} states, more than the cap of {state_cap}")
    cells = [(col, row) for row in range(cfg.height) for col in range(cfg.width)
             if (col, row) not in cfg.obstacles]
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

    rows = []
    for cell in cells:
        for battery in range(cfg.battery_capacity + 1):
            s, row = index[(cell, battery)], {}
            rows.append(row)
            for a, action in enumerate(GRID_ACTIONS):
                if battery == 0:
                    row[a] = ((s, 1.0),)
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
                row[a] = tuple(
                    (index[(target, battery - 1)], p)
                    for target, p in sorted(outcome_probs.items())
                )

    initial = ((index[(cfg.start, cfg.battery_capacity)], 1.0),)
    return LabeledMdp(
        atoms=atoms,
        states=tuple(states),
        actions=GRID_ACTIONS,
        labels=tuple(labels),
        rows=tuple(rows),
        initial=initial,
    )
