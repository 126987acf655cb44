"""Shared fixtures: bundle loaders and seeded random-instance generators."""

import json
import random
from pathlib import Path

import pytest

from prefplan.mdp import LabeledMdp, build_gridworld, gridworld_config_from_json, load_mdp
from prefplan.prefdfa import build_preference_dfa
from prefplan.preferences import (
    build_spec,
    load_preference_document,
)
from prefplan.scltl import AlphabetError, Dfa, parse, symbol_index
from prefplan.synthesis import build_product

BUNDLES = Path(__file__).resolve().parent.parent / "src" / "prefplan" / "bundles"


def render(export, *args) -> str:
    """The whole text a ``write``-style export (a DOT or CSV writer) emits."""
    parts = []
    export(*args, parts.append)
    return "".join(parts)


def read_bundle_json(name):
    return json.loads((BUNDLES / name).read_text())


def load_bundle(bundle, grid_name):
    atoms, spec = load_preference_document(read_bundle_json(f"{bundle}/preferences.json"))
    cfg = gridworld_config_from_json(read_bundle_json(f"{bundle}/{grid_name}"))
    mdp = build_gridworld(cfg)
    pdfa = build_preference_dfa(spec, atoms)
    product = build_product(mdp, pdfa)
    return atoms, spec, mdp, pdfa, product


@pytest.fixture(scope="session")
def po1_b4():
    return load_bundle("po1", "gridworld_battery4.json")


@pytest.fixture(scope="session")
def po1_b2():
    return load_bundle("po1", "gridworld_battery2.json")


@pytest.fixture(scope="session")
def po2_b4():
    return load_bundle("po2", "gridworld_battery4.json")


@pytest.fixture(scope="session")
def po1_spec():
    atoms = ("A", "B", "E")
    return atoms, build_spec(
        outcomes=[
            ("visit_A", parse("F A", atoms)),
            ("visit_B", parse("F B", atoms)),
            ("visit_E", parse("F E", atoms)),
        ],
        statements=[
            ("strict", "visit_B", "visit_A"),
            ("strict", "visit_E", "visit_A"),
        ],
    )


@pytest.fixture(scope="session")
def po2_spec():
    atoms = ("A", "B", "C", "D", "F")
    return atoms, build_spec(
        outcomes=[
            ("phiA", parse("!(B|C|D|F) U A", atoms)),
            ("phiB", parse("!(A|C|D|F) U B", atoms)),
            ("phiC", parse("!(A|B|D|F) U C", atoms)),
            ("phiD", parse("!(A|B|C|F) U D", atoms)),
            ("phiF", parse("!(A|B|C|D) U F", atoms)),
        ],
        statements=[
            ("strict", "phiB", "phiA"),
            ("strict", "phiD", "phiB"),
            ("strict", "phiF", "phiC"),
            ("indifferent", "phiB", "phiC"),
        ],
    )


# Ten atoms and the five outcome shapes of the benchmark's wide-alphabet
# workload, role rK played by the K-th atom: a 189-state preference DFA over
# 1024 symbols, where a slip in the order of states or letters shows.
WIDE_PREF_DOC = {
    "atoms": list("abcdefghij"),
    "outcomes": [
        {"name": "seq_a_b", "formula": "F (a & X F b)"},
        {"name": "seq_c_d", "formula": "F (c & X F d)"},
        {"name": "seq_e_f", "formula": "F (e & X F f)"},
        {"name": "guard_g", "formula": "!(h | i) U g"},
        {"name": "guard_h", "formula": "!(g | j) U h"},
    ],
    "preferences": [
        {"kind": "strict", "better": "seq_c_d", "worse": "seq_a_b"},
        {"kind": "strict", "better": "seq_e_f", "worse": "seq_c_d"},
        {"kind": "strict", "better": "guard_h", "worse": "guard_g"},
    ],
}


# Outcomes F p, F q and F (p & q), the last strictly better than F p, over a
# seeded random MDP with cycles (``recurrent_mdp``): its 180-state product has
# strongly connected components of up to 36 states, some of which the
# almost-sure solve shrinks over several passes, and SPI (126 states) and SASI
# (20) are both non-empty.
RECURRENT_PREF_DOC = {
    "atoms": ["p", "q"],
    "outcomes": [
        {"name": "P", "formula": "F p"},
        {"name": "Q", "formula": "F q"},
        {"name": "PQ", "formula": "F (p & q)"},
    ],
    "preferences": [{"kind": "strict", "better": "PQ", "worse": "P"}],
}


# Probabilities are drawn from a coarse grid so reachability values stay far
# from the classification thresholds of the qualitative solvers.
DIST_SHAPES = [
    (1.0,),
    (0.5, 0.5),
    (0.75, 0.25),
    (0.25, 0.75),
    (0.5, 0.25, 0.25),
    (0.25, 0.25, 0.5),
]


def random_mdp(
    seed, n_states=30, n_actions=3, atoms=(), label_density=0.0, trap_fraction=0.2, shapes=DIST_SHAPES
):
    """Seeded random labeled MDP; each distribution is one of ``shapes``."""
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"a{j}" for j in range(n_actions))
    traps = set(rng.sample(range(n_states), max(1, int(trap_fraction * n_states))))
    rows = tuple({} for _ in range(n_states))
    for s, row in enumerate(rows):
        if s in traps:
            row[0] = ((s, 1.0),)
            continue
        for a in range(n_actions):
            if a > 0 and rng.random() < 0.3:
                continue
            shape = shapes[rng.randrange(len(shapes))]
            succs = rng.sample(range(n_states), len(shape))
            row[a] = tuple(zip(succs, shape))
    labels = []
    for s in range(n_states):
        label = frozenset(a for a in atoms if rng.random() < label_density)
        labels.append(label)
    initial = ((rng.randrange(n_states), 1.0),)
    return LabeledMdp(
        atoms=tuple(atoms),
        states=states,
        actions=actions,
        labels=tuple(labels),
        rows=rows,
        initial=initial,
    )


_FORMULA_POOL = [
    "F p",
    "F q",
    "p U q",
    "q U p",
    "F (p & q)",
    "F (p | q)",
    "!p U q",
    "!q U p",
]


def random_preference_problem(seed, n_outcomes=3, connected=True):
    """Random strict/incomparable structure over small co-safe goals.

    With ``connected`` every outcome takes part in at least one strict pair;
    otherwise some outcome may be incomparable to all others, which the
    preference graph must still order exactly as ``PreferenceSpec.compare``.
    """
    rng = random.Random(seed)
    atoms = ("p", "q")
    texts = rng.sample(_FORMULA_POOL, n_outcomes)
    outcomes = [(f"o{i}", parse(text, atoms)) for i, text in enumerate(texts)]
    while True:
        statements = []
        covered = set()
        # Random DAG of strict statements over the outcome indices.
        for i in range(n_outcomes):
            for j in range(i + 1, n_outcomes):
                if rng.random() < 0.5:
                    statements.append(("strict", f"o{i}", f"o{j}"))
                    covered.update((i, j))
        if not connected or covered == set(range(n_outcomes)):
            break
    return atoms, build_spec(outcomes, statements)


def run_dfa(automaton, word, start=None):
    """State a ``Dfa`` or ``PreferenceDfa`` reaches on a finite word from
    ``start`` (default: its initial state); a letter outside the alphabet
    raises ``AlphabetError``.  A preference DFA runs each component DFA over
    the word and looks the summed code up, so its 2^|AP|-wide ``rows`` are
    never built."""
    is_dfa = isinstance(automaton, Dfa)
    position = symbol_index(automaton.alphabet)[1] if is_dfa else automaton.position
    letters = []
    for sigma in word:
        k = position.get(frozenset(sigma))
        if k is None:
            raise AlphabetError(f"symbol {set(sigma)!r} outside the alphabet")
        letters.append(k)

    def run(dfa, q):
        for k in letters:
            q = dfa.rows[q][k]
        return q

    if start is None:
        start = automaton.initial
    if is_dfa:
        return run(automaton, start)
    states = map(run, automaton.component_dfas, automaton.states[start])
    return automaton.index[sum(q * w for q, w in zip(states, automaton.weights))]


def satisfied(pdfa, state):
    """Outcome indices whose component automaton accepts at this state."""
    return frozenset(
        k for k, (q, d) in enumerate(zip(pdfa.states[state], pdfa.component_dfas)) if q in d.accepting
    )


def index_of(spec, name):
    """Index of the outcome called ``name``."""
    return [o.name for o in spec.outcomes].index(name)


def classify_word(pdfa, word):
    """Node id a finite word reaches, or None if it ends on a non-final
    state.  Classification only strengthens under extensions because
    component accepting states are absorbing."""
    return pdfa.node_of_state.get(run_dfa(pdfa, word))


def recurrent_mdp():
    return random_mdp(17, n_states=40, atoms=("p", "q"), label_density=0.15, trap_fraction=0.1)


def recurrent_product():
    atoms, spec = load_preference_document(RECURRENT_PREF_DOC)
    return build_product(recurrent_mdp(), build_preference_dfa(spec, atoms))


def random_product(seed, n_states=20, shapes=DIST_SHAPES):
    atoms, spec = random_preference_problem(seed, n_outcomes=3)
    mdp = random_mdp(
        seed + 17,
        n_states=n_states,
        n_actions=3,
        atoms=atoms,
        label_density=0.15,
        trap_fraction=0.15,
        shapes=shapes,
    )
    pdfa = build_preference_dfa(spec, atoms)
    return mdp, spec, pdfa, build_product(mdp, pdfa)


def dead_start_product():
    """Outcomes F x, F y, F z, F w with y > z and x > w.  From s0, action a
    leads to s1 (then x or z by choice) and b to s2 (then y or w): s0 can
    almost surely reach x and y, but each move gives up one of them while a
    worse goal stays reachable, so both regress and product state 0 is dead."""
    atoms = ("x", "y", "z", "w")
    spec = build_spec(
        outcomes=[(f"visit_{p}", parse(f"F {p}", atoms)) for p in atoms],
        statements=[("strict", "visit_y", "visit_z"), ("strict", "visit_x", "visit_w")],
    )
    pdfa = build_preference_dfa(spec, atoms)
    states = ("s0", "s1", "s2", "sx", "sy", "sz", "sw")
    s = {name: i for i, name in enumerate(states)}
    rows = (
        {0: ((s["s1"], 1.0),), 1: ((s["s2"], 1.0),)},
        {0: ((s["sx"], 1.0),), 1: ((s["sz"], 1.0),)},
        {0: ((s["sy"], 1.0),), 1: ((s["sw"], 1.0),)},
        *({0: ((s[goal], 1.0),)} for goal in ("sx", "sy", "sz", "sw")),
    )
    mdp = LabeledMdp(
        atoms=atoms,
        states=states,
        actions=("a", "b"),
        labels=tuple(frozenset(name[1:]) & frozenset(atoms) for name in states),
        rows=rows,
        initial=((s["s0"], 1.0),),
    )
    return build_product(mdp, pdfa)


def unsatisfiable_product():
    """One outcome F g on an MDP that never sees g: the start can guarantee
    nothing, never improves and steps into an absorbing trap."""
    atoms = ("g",)
    spec = build_spec(outcomes=[("win", parse("F g", atoms))], statements=[])
    pdfa = build_preference_dfa(spec, atoms)
    mdp = LabeledMdp(
        atoms=atoms,
        states=("s", "trap"),
        actions=("a",),
        labels=(frozenset(), frozenset()),
        rows=({0: ((1, 1.0),)}, {0: ((1, 1.0),)}),
        initial=((0, 1.0),),
    )
    return build_product(mdp, pdfa)


# Outcomes F A and F B with B strictly better, over the MDP of
# ``three_state_mdp_doc``.
THREE_STATE_PREF_DOC = {
    "atoms": ["A", "B"],
    "outcomes": [{"name": "visit_A", "formula": "F A"}, {"name": "visit_B", "formula": "F B"}],
    "preferences": [{"kind": "strict", "better": "visit_B", "worse": "visit_A"}],
}


def three_state_mdp_doc(zero_successor=False, zero_initial=False):
    """s0 steps under action a to s1 (labeled A) or s2 (labeled B) with
    probability 1/2 each, and both absorb; only s2 enables action b.  With
    ``zero_successor`` the self-loop of s2 under a also lists s1 with
    probability 0, and with ``zero_initial`` the initial distribution lists
    s1 with probability 0; neither must change anything."""
    loop = [{"state": "s2", "prob": 1.0}] + ([{"state": "s1", "prob": 0}] if zero_successor else [])
    return {
        "atoms": ["A", "B"],
        "states": [{"id": "s0", "label": []}, {"id": "s1", "label": ["A"]}, {"id": "s2", "label": ["B"]}],
        "actions": ["a", "b"],
        "transitions": [
            {"from": "s0", "action": "a", "to": [{"state": "s1", "prob": 0.5}, {"state": "s2", "prob": 0.5}]},
            {"from": "s1", "action": "a", "to": [{"state": "s1", "prob": 1.0}]},
            {"from": "s2", "action": "a", "to": loop},
            {"from": "s2", "action": "b", "to": [{"state": "s2", "prob": 1.0}]},
        ],
        "initial": [{"state": "s0", "prob": 1.0}] + ([{"state": "s1", "prob": 0}] if zero_initial else []),
    }


def three_state_product(zero_successor=False):
    atoms, spec = load_preference_document(THREE_STATE_PREF_DOC)
    return build_product(load_mdp(three_state_mdp_doc(zero_successor)), build_preference_dfa(spec, atoms))
