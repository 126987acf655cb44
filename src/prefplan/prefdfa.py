"""Preference DFA: product of outcome automata plus a preference graph.

The underlying automaton is the synchronous product of the outcome DFAs; a
product state is final as soon as one component accepts.  Final states carry
tags recording which side of a strict-preference pair the achieved,
most-preferred outcomes fall on, tag-equal states are grouped into graph
nodes, and graph edges order the nodes from worse to better.

The tags of a final state depend only on its set of most-preferred (MP)
satisfied outcomes, and they tell apart any two MP sets that differ in an
outcome taking part in some strict pair.  So when every outcome is in a
strict pair (as in the bundled po1 and po2 objectives) the graph has one node
per MP set, i.e. one per indifference class of ``PreferenceSpec.compare``.
Final states with no tags (no outcome of their MP set is in a strict pair)
share a single node with no edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preferences import PreferenceSpec
from .scltl import (
    DEFAULT_STATE_CAP,
    CapacityError,
    all_symbols,
    declare_alphabet,
    to_dfa,
    AlphabetError,
)

__all__ = [
    "Tag",
    "GraphNode",
    "PreferenceGraph",
    "PreferenceDfa",
    "build_preference_dfa",
    "classify_word",
    "pdfa_to_json",
    "pdfa_to_dot",
]


@dataclass(frozen=True, order=True)
class Tag:
    """x: the better outcome of pair (i, j) is achieved and most preferred.
    y: outcome i is missed while the worse outcome j is most preferred."""

    kind: str  # "x" or "y"
    i: int
    j: int

    def render(self, spec: PreferenceSpec) -> str:
        return f"{self.kind}({spec.outcomes[self.i].name},{spec.outcomes[self.j].name})"


@dataclass(frozen=True)
class GraphNode:
    node_id: int
    tags: frozenset  # of Tag
    states: tuple  # product state indices


@dataclass(frozen=True)
class PreferenceGraph:
    nodes: tuple  # of GraphNode
    edges: frozenset  # of (worse_node_id, better_node_id)


@dataclass(frozen=True)
class PreferenceDfa:
    spec: PreferenceSpec
    alphabet: tuple
    component_dfas: tuple  # one Dfa per outcome
    states: tuple  # tuples of component state indices, reachable only
    symbols: tuple
    transitions: dict  # (state index, symbol) -> state index
    initial: int
    final: frozenset
    tags: dict  # final state index -> frozenset of Tag
    graph: PreferenceGraph
    node_of_state: dict  # final state index -> node id

    def step(self, state: int, sigma: frozenset) -> int:
        try:
            return self.transitions[(state, sigma)]
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


def _assign_tags(spec: PreferenceSpec, sat: frozenset) -> frozenset:
    mp = spec.mp(sat)
    tags = set()
    for i, j in spec.strict:
        if i in sat and i in mp:
            tags.add(Tag("x", i, j))
        if i not in sat and j in sat and j in mp:
            tags.add(Tag("y", i, j))
    return frozenset(tags)


def _graph_edges(nodes) -> frozenset:
    """Edge (worse, better) iff some pair witnesses it and none witnesses the reverse."""
    edges = set()
    for a in nodes:
        for b in nodes:
            if a.node_id == b.node_id:
                continue
            forward = any(
                Tag("x", t.i, t.j) in b.tags for t in a.tags if t.kind == "y"
            )
            backward = any(
                Tag("x", t.i, t.j) in a.tags for t in b.tags if t.kind == "y"
            )
            if forward and not backward:
                edges.add((a.node_id, b.node_id))
    return frozenset(edges)


def build_preference_dfa(
    spec: PreferenceSpec,
    alphabet,
    state_cap: int = DEFAULT_STATE_CAP,
) -> PreferenceDfa:
    """Compile each outcome, take the reachable synchronous product, tag the
    final states and derive the preference graph.

    When every outcome is in some strict pair, each graph node holds exactly
    the final states that share one set of most-preferred satisfied outcomes
    (one indifference class of ``spec.compare``); MP sets that differ only in
    outcomes outside every strict pair share a node.  Untagged final states
    share one node.  Edges run from the worse node to the better one."""
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

    final = frozenset(
        i
        for i, tup in enumerate(states)
        if any(q in d.accepting for q, d in zip(tup, components))
    )

    tags = {}
    for i in final:
        sat = frozenset(
            k for k, d in enumerate(components) if states[i][k] in d.accepting
        )
        tags[i] = _assign_tags(spec, sat)

    # Nodes: lambda-equivalence classes of final states.  Untagged final
    # states form one node with an empty tag set and no incident edges.
    groups: dict = {}
    for i in sorted(final):
        groups.setdefault(tags[i], []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: sorted(repr(t) for t in kv[0]))
    nodes = tuple(
        GraphNode(node_id=k, tags=tagset, states=tuple(members))
        for k, (tagset, members) in enumerate(ordered)
    )
    node_of_state = {s: node.node_id for node in nodes for s in node.states}
    edges = _graph_edges([n for n in nodes if n.tags])

    return PreferenceDfa(
        spec=spec,
        alphabet=declared,
        component_dfas=components,
        states=tuple(states),
        symbols=tuple(syms),
        transitions=transitions,
        initial=0,
        final=final,
        tags=tags,
        graph=PreferenceGraph(nodes=nodes, edges=edges),
        node_of_state=node_of_state,
    )


def classify_word(pdfa: PreferenceDfa, word):
    """Node id reached by a finite word, or None if it lands on a non-final
    or untagged state.  Classification only strengthens under extensions
    because component accepting states are absorbing."""
    q = pdfa.run(word)
    if q not in pdfa.final:
        return None
    if not pdfa.tags[q]:
        return None
    return pdfa.node_of_state[q]


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
        "tags": {
            str(i): sorted(t.render(spec) for t in pdfa.tags[i]) for i in sorted(pdfa.final)
        },
        "transitions": [
            {"from": i, "symbol": sorted(sigma), "to": pdfa.transitions[(i, sigma)]}
            for i in range(len(pdfa.states))
            for sigma in pdfa.symbols
        ],
        "graph": {
            "nodes": [
                {
                    "id": n.node_id,
                    "tags": sorted(t.render(spec) for t in n.tags),
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
            tag_text = ",".join(sorted(t.render(spec) for t in pdfa.tags[i]))
            lines.append(f'    q{i} [shape=doublecircle label="{label}\\n{{{tag_text}}}"];')
        else:
            lines.append(f'    q{i} [shape=circle label="{label}"];')
    lines.append(f"    init [shape=point]; init -> q{pdfa.initial};")
    for i in range(len(pdfa.states)):
        by_target: dict = {}
        for sigma in pdfa.symbols:
            j = pdfa.transitions[(i, sigma)]
            if j != i:
                by_target.setdefault(j, []).append("{%s}" % ",".join(sorted(sigma)))
        for j, labels in sorted(by_target.items()):
            lines.append(f'    q{i} -> q{j} [label="{" ".join(labels)}"];')
    lines.append("  }")
    lines.append("  subgraph cluster_graph {")
    lines.append('    label="preference graph";')
    for n in pdfa.graph.nodes:
        tag_text = ",".join(sorted(t.render(spec) for t in n.tags))
        lines.append(f'    X{n.node_id} [shape=box label="X{n.node_id} {{{tag_text}}}"];')
    for worse, better in sorted(pdfa.graph.edges):
        lines.append(f'    X{worse} -> X{better} [label="≺"];')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
