"""Preference DFA: product of outcome automata plus a preference graph.

The underlying automaton is the synchronous product of the outcome DFAs; a
product state is final as soon as one component accepts.  Final states are
grouped into graph nodes by their set of most-preferred (MP) satisfied
outcomes, i.e. one node per indifference class of ``PreferenceSpec.compare``,
and an edge runs from a node to each node whose MP set ``compare`` calls
strictly better.  The order itself lives in ``preferences``; this module only
groups states by it.

Tags are rendered labels of an MP set: x(i,j) marks the better outcome of a
strict pair as most preferred, y(i,j) the worse one.  They name the nodes in
the exports and fix the node order, but decide nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import prod
from operator import add, mul

from .preferences import Comparison, PreferenceSpec
from .scltl import (
    DEFAULT_STATE_CAP,
    CapacityError,
    declare_alphabet,
    symbol_index,
    symbol_labels,
    to_dfa,
    AlphabetError,
)

__all__ = [
    "GraphNode",
    "PreferenceGraph",
    "PreferenceDfa",
    "build_preference_dfa",
    "tag_labels",
    "pdfa_to_json",
    "pdfa_to_dot",
]


@dataclass(frozen=True)
class GraphNode:
    node_id: int
    mp: frozenset  # most-preferred satisfied outcome indices
    states: tuple  # product state indices


@dataclass(frozen=True)
class PreferenceGraph:
    nodes: tuple  # of GraphNode
    edges: frozenset  # of (worse_node_id, better_node_id)


@dataclass(frozen=True)
class PreferenceDfa:
    """Reachable product of the outcome DFAs with its preference graph.

    ``rows[q][k]`` is the successor of state ``q`` on ``symbols[k]`` and
    ``position`` maps each symbol to its ``k``.  States are numbered as the
    per-letter product construction first reaches them, reading letters in
    ``all_symbols`` order.
    """

    spec: PreferenceSpec
    alphabet: tuple
    component_dfas: tuple  # one Dfa per outcome
    states: tuple  # tuples of component state indices, reachable only
    symbols: tuple
    position: Mapping  # symbol -> its index in symbols
    rows: tuple  # per state, the successor on each symbol by position
    initial: int
    final: frozenset
    graph: PreferenceGraph
    node_of_state: dict  # final state index -> node id

    def step(self, state: int, sigma: frozenset) -> int:
        try:
            return self.rows[state][self.position[sigma]]
        except KeyError:
            raise AlphabetError(f"symbol {set(sigma)!r} outside the alphabet") from None

    def run(self, word) -> int:
        q = self.initial
        for sigma in word:
            q = self.step(q, frozenset(sigma))
        return q

    def satisfied(self, state: int) -> frozenset:
        """Outcome indices whose component automaton accepts at this state."""
        tup = self.states[state]
        return frozenset(
            k for k, d in enumerate(self.component_dfas) if tup[k] in d.accepting
        )


def _tags(spec: PreferenceSpec, mp: frozenset) -> list:
    """Sorted (kind, i, j) tags of an MP set: for (i, j) in P, x(i,j) iff i is
    most preferred and y(i,j) iff j is (then i cannot have been satisfied)."""
    return sorted(
        [("x", i, j) for i, j in spec.strict if i in mp]
        + [("y", i, j) for i, j in spec.strict if j in mp]
    )


def tag_labels(spec: PreferenceSpec, mp: frozenset) -> list:
    """The tags of an MP set rendered as sorted ``x(better,worse)`` strings."""
    names = [o.name for o in spec.outcomes]
    return sorted(f"{kind}({names[i]},{names[j]})" for kind, i, j in _tags(spec, mp))


def build_preference_dfa(
    spec: PreferenceSpec,
    alphabet,
    state_cap: int = DEFAULT_STATE_CAP,
) -> PreferenceDfa:
    """Compile each outcome, take the reachable synchronous product, and
    group its final states into preference-graph nodes.

    A node is one MP set: it holds exactly the final states whose satisfied
    outcomes share that set of most-preferred outcomes.  Nodes are numbered
    by their tags, then by the MP set, so ids follow from the spec alone.
    Edges run from the worse node to each node ``spec.compare`` calls
    strictly better.

    Each state steps on every letter at once, over integer codes: a state
    tuple's code is its mixed-radix number, the first component most
    significant and each component's radix its number of states.  Each
    component row is scaled by its radix weight once, so a state's successor
    codes on all letters are the elementwise sum of its components' scaled
    rows.  Only a state that reaches a new code lists them, and numbers the
    new ones in the order of their first letter.  States therefore get the
    numbers of the per-letter construction, a depth-first search reading
    letters in ``all_symbols`` order."""
    declared = declare_alphabet(alphabet)
    components = tuple(to_dfa(o.formula, declared, state_cap=state_cap) for o in spec.outcomes)
    syms, position = symbol_index(declared)

    radices = [len(d.states) for d in components]
    weights = [prod(radices[k + 1:]) for k in range(len(radices))]
    scaled = [[tuple(q * w for q in row) for row in d.rows] for d, w in zip(components, weights)]
    no_outcomes = (0,) * len(syms)  # the one state's code on every letter

    def successor_codes(tup):
        codes = no_outcomes
        for k, q in enumerate(tup):
            codes = map(add, codes, scaled[k][q]) if k else scaled[0][q]
        return codes

    init = tuple(d.initial for d in components)
    index = {sum(map(mul, init, weights)): 0}  # code -> state number
    states = [init]
    rows = [None]
    frontier = [0]
    while frontier:
        i = frontier.pop()
        try:
            rows[i] = tuple(map(index.__getitem__, successor_codes(states[i])))
            continue
        except KeyError:
            codes = list(successor_codes(states[i]))
        for code in dict.fromkeys(codes):
            if code not in index:
                j = len(states)
                if j >= state_cap:
                    raise CapacityError(f"preference DFA exceeded {state_cap} states")
                index[code] = j
                states.append(tuple(code // w % r for w, r in zip(weights, radices)))
                rows.append(None)
                frontier.append(j)
        rows[i] = tuple(map(index.__getitem__, codes))

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
        symbols=syms,
        position=position,
        rows=tuple(rows),
        initial=0,
        final=frozenset(node_of_state),
        graph=PreferenceGraph(nodes=nodes, edges=edges),
        node_of_state=node_of_state,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def _state_label(pdfa: PreferenceDfa, i: int) -> str:
    tup = pdfa.states[i]
    parts = []
    for k, (q, d) in enumerate(zip(tup, pdfa.component_dfas)):
        flag = "+" if q in d.accepting else "-"
        parts.append(f"{pdfa.spec.outcomes[k].name}{flag}")
    return "(" + ",".join(parts) + ")"


def _state_tags(pdfa: PreferenceDfa, i: int) -> list:
    return tag_labels(pdfa.spec, pdfa.graph.nodes[pdfa.node_of_state[i]].mp)


def pdfa_to_json(pdfa: PreferenceDfa) -> dict:
    spec = pdfa.spec
    names = [sorted(sigma) for sigma in pdfa.symbols]
    return {
        "alphabet": list(pdfa.alphabet),
        "outcomes": [o.name for o in spec.outcomes],
        "states": [
            {
                "id": i,
                "components": list(pdfa.states[i]),
                "label": _state_label(pdfa, i),
            }
            for i in range(len(pdfa.states))
        ],
        "initial": pdfa.initial,
        "final": sorted(pdfa.final),
        "tags": {str(i): _state_tags(pdfa, i) for i in sorted(pdfa.final)},
        "transitions": [
            {"from": i, "symbol": name, "to": j}
            for i, row in enumerate(pdfa.rows)
            for name, j in zip(names, row)
        ],
        "graph": {
            "nodes": [
                {
                    "id": n.node_id,
                    "tags": tag_labels(spec, n.mp),
                    "states": list(n.states),
                }
                for n in pdfa.graph.nodes
            ],
            "edges": sorted([worse, better] for worse, better in pdfa.graph.edges),
        },
    }


def pdfa_to_dot(pdfa: PreferenceDfa) -> str:
    spec = pdfa.spec
    lines = ["digraph preference_dfa {", "  rankdir=LR;"]
    lines.append("  subgraph cluster_automaton {")
    lines.append('    label="automaton";')
    for i in range(len(pdfa.states)):
        label = _state_label(pdfa, i)
        if i in pdfa.final:
            tag_text = ",".join(_state_tags(pdfa, i))
            lines.append(f'    q{i} [shape=doublecircle label="{label}\\n{{{tag_text}}}"];')
        else:
            lines.append(f'    q{i} [shape=circle label="{label}"];')
    lines.append(f"    init [shape=point]; init -> q{pdfa.initial};")
    texts = symbol_labels(pdfa.symbols)
    for i, row in enumerate(pdfa.rows):
        by_target: dict = {}
        for text, j in zip(texts, row):
            if j != i:
                by_target.setdefault(j, []).append(text)
        for j, labels in sorted(by_target.items()):
            lines.append(f'    q{i} -> q{j} [label="{" ".join(labels)}"];')
    lines.append("  }")
    lines.append("  subgraph cluster_graph {")
    lines.append('    label="preference graph";')
    for n in pdfa.graph.nodes:
        tag_text = ",".join(tag_labels(spec, n.mp))
        lines.append(f'    X{n.node_id} [shape=box label="X{n.node_id} {{{tag_text}}}"];')
    for worse, better in sorted(pdfa.graph.edges):
        lines.append(f'    X{worse} -> X{better} [label="≺"];')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
