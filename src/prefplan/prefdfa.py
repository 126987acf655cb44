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
from functools import cached_property
from math import prod
from operator import add, mul

from .preferences import Comparison, PreferenceSpec
from .record import Record
from .scltl import (
    DEFAULT_STATE_CAP,
    CapacityError,
    declare_alphabet,
    dot_escape,
    symbol_index,
    symbol_labels,
    to_dfa,
    transitions_to_json,
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


class GraphNode(Record):
    node_id: int
    mp: frozenset  # most-preferred satisfied outcome indices
    states: tuple  # product state indices


class PreferenceGraph(Record):
    nodes: tuple  # of GraphNode
    edges: frozenset  # of (worse_node_id, better_node_id)


class PreferenceDfa(Record):
    """Reachable product of the outcome DFAs with its preference graph.

    A state tuple's code is its mixed-radix number: the first component most
    significant, component ``c`` scaled by ``weights[c]``.  ``index`` maps
    each reachable code to its state number.  States are numbered as the
    per-letter product construction first reaches them, reading letters in
    ``all_symbols`` order.

    The successors are derived on demand from the components' rows:
    ``column(k)`` gives every state's successor on ``symbols[k]`` (planning
    reads only these), and ``rows[q][k]`` (built on first use, for the
    exports alone) is the successor of state ``q`` on ``symbols[k]``;
    ``position`` maps each symbol to its ``k``.

    A state is *decided* when every component sits at an absorbing state,
    its accepting ``true`` or its rejecting ``false`` sink: every letter then
    maps the state to itself, so its node can no longer change.
    """

    spec: PreferenceSpec
    alphabet: tuple
    component_dfas: tuple  # one Dfa per outcome
    states: tuple  # tuples of component state indices, reachable only
    symbols: tuple
    position: Mapping  # symbol -> its index in symbols
    index: Mapping  # state code -> state number
    weights: tuple  # per component, the radix weight of its entry in a code
    initial: int
    final: frozenset
    graph: PreferenceGraph
    node_of_state: dict  # final state index -> node id
    decided: frozenset  # states at which every component is absorbing

    @cached_property
    def rows(self) -> tuple:
        """Per state, the successor on each symbol by position: the
        transpose of the columns."""
        return tuple(zip(*map(self.column, range(len(self.symbols)))))

    def column(self, k: int) -> tuple:
        """Every state's successor on ``symbols[k]``, by state number."""
        codes = (0,) * len(self.states)  # with no outcomes, the one state's code
        for d, w, entries in zip(self.component_dfas, self.weights, zip(*self.states)):
            scaled = [row[k] * w for row in d.rows]
            codes = map(add, codes, map(scaled.__getitem__, entries))
        return tuple(map(self.index.__getitem__, codes))


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


_BITS = bytes.maketrans(b"\x00\x01", b"01")  # one byte per letter -> its binary digit


def _letter_masks(row) -> dict:
    """successor -> the mask of the letters (positions in ``row``) reaching
    it, read as binary digits at C speed, the last letter most significant."""
    backwards = row[::-1]
    return {
        q: int(bytes(map(q.__eq__, backwards)).translate(_BITS), 2)
        for q in dict.fromkeys(row)
    }


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

    States are numbered over letter masks, ints whose bit ``k`` stands for
    ``symbols[k]``.  Each component state groups the letters by its
    successor into masks once.  A state intersects its components' masks one
    component at a time, dropping empty ones, which leaves one mask per
    distinct successor code (see ``PreferenceDfa`` for the codes).  New codes
    are numbered in the order of their masks' lowest bits, i.e. of their
    first letters, so states get the numbers of the per-letter
    construction, a depth-first search reading letters in ``all_symbols``
    order.  No per-letter successor row is built here: ``PreferenceDfa``
    derives those on demand."""
    declared = declare_alphabet(alphabet)
    components = tuple(to_dfa(o.formula, declared, state_cap=state_cap) for o in spec.outcomes)
    syms, position = symbol_index(declared)

    radices = [len(d.states) for d in components]
    weights = tuple(prod(radices[k + 1:]) for k in range(len(radices)))
    scaled_masks = [
        [[(q * w, m) for q, m in _letter_masks(row).items()] for row in d.rows]
        for d, w in zip(components, weights)
    ]
    every_letter = (1 << len(syms)) - 1

    def successor_masks(tup):
        pairs = [(0, every_letter)]  # (code so far, letters that reach it)
        for k, q in enumerate(tup):
            pairs = [
                (code + c, m & mc)
                for code, m in pairs
                for c, mc in scaled_masks[k][q]
                if m & mc
            ]
        return pairs

    init = tuple(d.initial for d in components)
    index = {sum(map(mul, init, weights)): 0}  # code -> state number
    states = [init]
    frontier = [0]
    while frontier:
        pairs = successor_masks(states[frontier.pop()])
        # m & -m is the mask's lowest bit, so new codes go in first-letter order.
        for _, code in sorted((m & -m, code) for code, m in pairs if code not in index):
            j = len(states)
            if j >= state_cap:
                raise CapacityError(f"preference DFA exceeded {state_cap} states")
            index[code] = j
            states.append(tuple(code // w % r for w, r in zip(weights, radices)))
            frontier.append(j)

    absorbing = [{i for i, row in enumerate(d.rows) if row.count(i) == len(row)} for d in components]
    decided = frozenset(q for q, tup in enumerate(states) if all(map(set.__contains__, absorbing, tup)))

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
        index=index,
        weights=weights,
        initial=0,
        final=frozenset(node_of_state),
        graph=PreferenceGraph(nodes=nodes, edges=edges),
        node_of_state=node_of_state,
        decided=decided,
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
        "transitions": transitions_to_json(pdfa.symbols, pdfa.rows),
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


def pdfa_to_dot(pdfa: PreferenceDfa, write) -> None:
    """Write the preference DFA and its graph in DOT through ``write``, a
    state's lines at a time."""
    spec = pdfa.spec
    write('digraph preference_dfa {\n  rankdir=LR;\n  subgraph cluster_automaton {\n    label="automaton";\n')
    for i in range(len(pdfa.states)):
        label = dot_escape(_state_label(pdfa, i))
        if i in pdfa.final:
            tag_text = dot_escape(",".join(_state_tags(pdfa, i)))
            write(f'    q{i} [shape=doublecircle label="{label}\\n{{{tag_text}}}"];\n')
        else:
            write(f'    q{i} [shape=circle label="{label}"];\n')
    write(f"    init [shape=point]; init -> q{pdfa.initial};\n")
    texts = symbol_labels(pdfa.symbols)
    for i, row in enumerate(pdfa.rows):
        by_target: dict = {}
        for text, j in zip(texts, row):
            if j != i:
                by_target.setdefault(j, []).append(text)
        write("".join(
            f'    q{i} -> q{j} [label="{" ".join(labels)}"];\n' for j, labels in sorted(by_target.items())
        ))
    write('  }\n  subgraph cluster_graph {\n    label="preference graph";\n')
    for n in pdfa.graph.nodes:
        tag_text = dot_escape(",".join(tag_labels(spec, n.mp)))
        write(f'    X{n.node_id} [shape=box label="X{n.node_id} {{{tag_text}}}"];\n')
    for worse, better in sorted(pdfa.graph.edges):
        write(f'    X{worse} -> X{better} [label="≺"];\n')
    write("  }\n}\n")
