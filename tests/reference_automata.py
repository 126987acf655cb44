"""The eager automaton constructions as they were before letter classes and
successor rows, the string-keyed canonicalization, and an automaton-free
good-prefix oracle.

Test-only oracles: ``to_dfa`` progresses every state on every letter of 2^AP,
and ``build_preference_dfa`` steps the component automata one letter at a
time, both filling a ``(state, symbol) -> state`` dict.  The fast builders in
``prefplan.scltl`` and ``prefplan.prefdfa`` must give the same automata: the
same states in the same numbering, and the same successor for every letter.
``canonicalize`` tells subformulas apart by their ``fmt`` strings, as
``to_dfa`` here tells states apart; ``prefplan.scltl.canonicalize``
compares the formulas themselves and must give the same canonical forms.
``good_prefix_oracle`` decides a word by recursion on its positions, so it
checks what the automata accept without building one.
"""

import functools
from dataclasses import dataclass

from prefplan.preferences import Comparison, PreferenceSpec
from prefplan.prefdfa import GraphNode, PreferenceGraph, _tags
from prefplan.scltl import (
    DEFAULT_STATE_CAP,
    FALSE,
    TRUE,
    AlphabetError,
    And,
    Atom,
    CapacityError,
    FalseF,
    Formula,
    NegAtom,
    Next,
    Or,
    TrueF,
    Until,
    _fold,
    _mk_and,
    _mk_or,
    all_symbols,
    atoms_of,
    declare_alphabet,
    fmt,
    progress,
)


@dataclass(frozen=True)
class Dfa:
    alphabet: tuple
    states: tuple
    symbols: tuple
    transitions: dict  # (state index, symbol) -> state index
    initial: int
    accepting: frozenset

    def step(self, state: int, sigma: frozenset) -> int:
        return self.transitions[(state, sigma)]


@dataclass(frozen=True)
class PreferenceDfa:
    spec: PreferenceSpec
    alphabet: tuple
    component_dfas: tuple
    states: tuple
    symbols: tuple
    transitions: dict  # (state index, symbol) -> state index
    initial: int
    final: frozenset
    graph: PreferenceGraph
    node_of_state: dict

    def step(self, state: int, sigma: frozenset) -> int:
        return self.transitions[(state, sigma)]


def _temporal_atoms(f: Formula, acc: dict):
    """Collect maximal subformulas rooted at a literal, Next or Until."""
    if isinstance(f, (TrueF, FalseF)):
        return
    if isinstance(f, (Atom, NegAtom, Next, Until)):
        acc.setdefault(fmt(f), f)
        return
    if isinstance(f, (And, Or)):
        _temporal_atoms(f.left, acc)
        _temporal_atoms(f.right, acc)
        return
    raise TypeError(f"not a formula: {f!r}")


def _subst(f: Formula, target_key: str, value: Formula) -> Formula:
    """Replace every temporal atom with key ``target_key`` by a constant."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, NegAtom, Next, Until)):
        return value if fmt(f) == target_key else f
    if isinstance(f, And):
        return _mk_and(_subst(f.left, target_key, value), _subst(f.right, target_key, value))
    if isinstance(f, Or):
        return _mk_or(_subst(f.left, target_key, value), _subst(f.right, target_key, value))
    raise TypeError(f"not a formula: {f!r}")


def canonicalize(f: Formula) -> Formula:
    f = _fold(f)
    acc: dict = {}
    _temporal_atoms(f, acc)
    order = sorted(acc)

    @functools.lru_cache(maxsize=None)
    def build(g_key: str, g: Formula, idx: int) -> Formula:
        if isinstance(g, (TrueF, FalseF)) or idx == len(order):
            return g
        var_key = order[idx]
        var = acc[var_key]
        hi = build_entry(_subst(g, var_key, TRUE), idx + 1)
        lo = build_entry(_subst(g, var_key, FALSE), idx + 1)
        if hi == lo:
            return hi
        return _mk_or(_mk_and(var, hi), lo)

    def build_entry(g: Formula, idx: int) -> Formula:
        return build(fmt(g), g, idx)

    return build_entry(f, 0)


def to_dfa(f: Formula, alphabet, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    declared = declare_alphabet(alphabet)
    undeclared = atoms_of(f) - set(declared)
    if undeclared:
        raise AlphabetError(f"formula uses undeclared propositions: {sorted(undeclared)}")
    syms = all_symbols(declared)

    init = canonicalize(f)
    index = {fmt(init): 0}
    reps = [init]
    transitions = {}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        rep = reps[i]
        for sigma in syms:
            nxt = canonicalize(progress(rep, sigma))
            k = fmt(nxt)
            j = index.get(k)
            if j is None:
                j = len(reps)
                if j >= state_cap:
                    raise CapacityError(f"DFA construction exceeded {state_cap} states")
                index[k] = j
                reps.append(nxt)
                frontier.append(j)
            transitions[(i, sigma)] = j
    accepting = frozenset(i for i, rep in enumerate(reps) if isinstance(rep, TrueF))
    return Dfa(
        alphabet=declared,
        states=tuple(fmt(rep) for rep in reps),
        symbols=tuple(syms),
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )


def build_preference_dfa(
    spec: PreferenceSpec,
    alphabet,
    state_cap: int = DEFAULT_STATE_CAP,
) -> PreferenceDfa:
    declared = declare_alphabet(alphabet)
    components = tuple(to_dfa(o.formula, declared, state_cap=state_cap) for o in spec.outcomes)
    syms = all_symbols(declared)

    init = tuple(d.initial for d in components)
    index = {init: 0}
    states = [init]
    transitions = {}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        tup = states[i]
        for sigma in syms:
            nxt = tuple(d.transitions[(q, sigma)] for q, d in zip(tup, components))
            j = index.get(nxt)
            if j is None:
                j = len(states)
                if j >= state_cap:
                    raise CapacityError(f"preference DFA exceeded {state_cap} states")
                index[nxt] = j
                states.append(nxt)
                frontier.append(j)
            transitions[(i, sigma)] = j

    # Final states (some component accepts) grouped by their MP set.
    groups: dict = {}
    for i, tup in enumerate(states):
        sat = frozenset(k for k, (q, d) in enumerate(zip(tup, components)) if q in d.accepting)
        if sat:
            groups.setdefault(spec.mp(sat), []).append(i)
    ordered = sorted(groups, key=lambda mp: (_tags(spec, mp), sorted(mp)))
    nodes = tuple(
        GraphNode(node_id=k, mp=mp, states=tuple(groups[mp])) for k, mp in enumerate(ordered)
    )
    node_of_state = {s: node.node_id for node in nodes for s in node.states}
    edges = frozenset(
        (a.node_id, b.node_id)
        for a in nodes
        for b in nodes
        if spec.compare(b.mp, a.mp) is Comparison.STRICTLY_BETTER
    )

    return PreferenceDfa(
        spec=spec,
        alphabet=declared,
        component_dfas=components,
        states=tuple(states),
        symbols=tuple(syms),
        transitions=transitions,
        initial=0,
        final=frozenset(node_of_state),
        graph=PreferenceGraph(nodes=nodes, edges=edges),
        node_of_state=node_of_state,
    )


def good_prefix_oracle(f: Formula, word) -> bool:
    """Decide good-prefix satisfaction by direct recursion on positions.

    Strong finite-trace semantics: literals need a real position, Next
    consumes one letter, Until must be fulfilled within the word.  The
    constant ``true`` alone holds at the past-the-end position, so a Next
    whose obligation is already discharged (``X true``) succeeds on the last
    letter.
    """
    w = [frozenset(sigma) for sigma in word]
    n = len(w)
    memo: dict = {}  # (formula, position) -> verdict; formulas are hashable

    def ev(g: Formula, i: int) -> bool:
        hit = memo.get((g, i))
        if hit is not None:
            return hit
        if isinstance(g, TrueF):
            res = True
        elif isinstance(g, FalseF):
            res = False
        elif isinstance(g, Atom):
            res = i < n and g.name in w[i]
        elif isinstance(g, NegAtom):
            res = i < n and g.name not in w[i]
        elif isinstance(g, And):
            res = ev(g.left, i) and ev(g.right, i)
        elif isinstance(g, Or):
            res = ev(g.left, i) or ev(g.right, i)
        elif isinstance(g, Next):
            res = i < n and ev(g.child, i + 1)
        elif isinstance(g, Until):
            res = any(
                ev(g.right, k) and all(ev(g.left, j) for j in range(i, k))
                for k in range(i, n)
            )
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[(g, i)] = res
        return res

    return ev(f, 0)
