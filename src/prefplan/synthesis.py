"""Qualitative synthesis: product MDP, winning regions, and improving strategies.

The pipeline: take the product of a labeled MDP with a preference DFA, compute
per-node almost-sure winning regions, and derive the improvement relation
between product states.  Safe positively/almost-surely improving strategy
synthesis then reduces to positive/almost-sure reachability in the improvement
MDP: the product restricted to non-regressing actions, with every improving
edge redirected to one absorbing target state.  That state stands for the
marked copies of the paper's doubled improvement MDP, which are only ever
targets, so both give the same regions and strategies (``improvement_mdp.dot``
still draws the doubled form).

The solvers take support rows, ``state -> {action: [positive-probability
successors]}``, which is all qualitative reachability depends on.  Each model
builds its rows in the loop that visits its edges anyway, and keeps no other
copy of them: ``build_product`` (``ProductMdp.dist`` pairs its rows with the
MDP's probabilities), the improvement MDP's one pass and the verifier's chain.
``pwin`` is one backward search over a predecessor index built per solve.
``aswin`` decides the strongly connected components of the support graph
one at a time, sinks first (``scc_order``): a single state in one step, a
larger component by the alternating fixpoint on its own states.  The
product's order serves every ``aswin`` of a synthesis, since the improvement
MDP and the verifier's chain only drop product edges and add edges into one
target sink.  A region's strategy is derived when first read; only
``synthesize`` and the composite policy read strategies.

The improvement relation is filled in once per product, right after the
per-node solves, as a table over the states' most-preferred node sets; the
improvement MDP, the verifier's chain and the rollout rows look it up, and
``is_improvement`` is the lookup for one pair of states.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .mdp import LabeledMdp, MdpError
from .prefdfa import PreferenceDfa, tag_labels
from .schema import STRINGS, json_fields
from .scltl import DEFAULT_STATE_CAP, CapacityError

__all__ = [
    "BOTTOM",
    "ProductMdp",
    "WinningRegion",
    "ImprovementMdp",
    "Strategy",
    "StrategyError",
    "SynthesisResult",
    "CompositePolicy",
    "MdpView",
    "view_of_mdp",
    "build_product",
    "pwin",
    "aswin",
    "aswin_by_node",
    "SccOrder",
    "scc_order",
    "z_set",
    "mp_nodes",
    "is_improvement",
    "build_improvement_mdp",
    "synthesize",
    "strategy_to_json",
    "regions_to_json",
    "improvement_mdp_to_dot",
    "product_state_id",
]

class StrategyError(ValueError):
    """Raised for a malformed strategy file, or one naming unknown states or disabled actions."""


# Virtual bottom node: a state from which nothing is almost-surely winnable
# sits below every real node, so gaining any guarantee counts as improvement.
BOTTOM = -1


@dataclass(frozen=True)
class MdpView:
    """An MDP described by closures: states, enabled actions, distributions.

    The adapter for models that exist only as callables (``LabeledMdp``,
    hand-built test models): ``value_iteration`` reads the probabilities,
    and ``rows`` compiles the supports into the solvers' input.
    """

    states: tuple
    enabled: object  # state -> iterable of actions
    dist: object  # (state, action) -> iterable of (successor, prob)

    @cached_property
    def rows(self) -> dict:
        """state -> {action: [positive-probability successors]}."""
        dist, enabled = self.dist, self.enabled
        return {
            s: {a: [t for t, p in dist(s, a) if p > 0] for a in enabled(s)}
            for s in self.states
        }


def view_of_mdp(mdp: LabeledMdp) -> MdpView:
    return MdpView(states=tuple(range(mdp.n_states())), enabled=mdp.enabled, dist=mdp.dist)


@dataclass(frozen=True)
class ProductMdp:
    """Reachable product of an MDP with a preference DFA.

    States are indices into ``state_pairs`` (mdp state, dfa state) pairs;
    ``node_members`` maps each preference-graph node to its product states
    and ``node_edges`` mirrors the graph edges over nonempty members.
    The automaton adds no probabilities: ``dist`` reads them off the MDP.
    """

    mdp: LabeledMdp
    pdfa: PreferenceDfa
    state_pairs: tuple  # of (s, q)
    rows: dict  # v -> {a: [v' per positive entry of the MDP's (s, a), in order]}: the solvers' input
    initial: int
    node_members: dict  # node id -> frozenset of product states
    node_edges: frozenset  # (worse node id, better node id)

    def n_states(self) -> int:
        return len(self.state_pairs)

    def enabled(self, v: int):
        return list(self.rows[v])

    def dist(self, v: int, a: int) -> tuple:  # ((v', p), ...) over rows[v][a]
        probs = [p for _, p in self.mdp.transitions[(self.state_pairs[v][0], a)] if p]
        return tuple(zip(self.rows[v][a], probs))

    @property
    def transitions(self) -> dict:
        """(v, a) -> ``dist(v, a)``, built on each read; read by ``perfbench/tracing.py`` only."""
        return {(v, a): self.dist(v, a) for v, row in self.rows.items() for a in row}


def build_product(
    mdp: LabeledMdp,
    pdfa: PreferenceDfa,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ProductMdp:
    """Synchronous product; the automaton consumes the label of each state
    entered, including the initial one."""
    if set(mdp.atoms) - set(pdfa.alphabet):
        raise MdpError(
            f"MDP atoms {sorted(mdp.atoms)} not covered by preference alphabet "
            f"{sorted(pdfa.alphabet)}"
        )
    if len(mdp.initial) != 1:
        raise MdpError("product construction expects a single initial state")
    s0 = mdp.initial[0][0]
    rows = pdfa.rows
    letter = [pdfa.position[label] for label in mdp.labels]  # per MDP state
    q0 = rows[pdfa.initial][letter[s0]]

    pair_index = {(s0, q0): 0}
    state_pairs = [(s0, q0)]
    support_rows = {}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        s, q = state_pairs[v]
        support_rows[v] = row = {}
        for a in mdp.enabled(s):
            row[a] = support = []
            for s2, p in mdp.transitions[(s, a)]:
                if not p:
                    continue  # a zero-probability successor is not an edge
                q2 = rows[q][letter[s2]]
                w = pair_index.get((s2, q2))
                if w is None:
                    w = len(state_pairs)
                    if w >= state_cap:
                        raise CapacityError(f"product exceeded {state_cap} states")
                    pair_index[(s2, q2)] = w
                    state_pairs.append((s2, q2))
                    frontier.append(w)
                support.append(w)

    groups: dict = {}
    for v, (_, q) in enumerate(state_pairs):
        node = pdfa.node_of_state.get(q)
        if node is not None:
            groups.setdefault(node, []).append(v)
    node_members = {node: frozenset(groups[node]) for node in sorted(groups)}
    node_edges = frozenset(
        (worse, better)
        for worse, better in pdfa.graph.edges
        if worse in node_members and better in node_members
    )
    return ProductMdp(
        mdp=mdp,
        pdfa=pdfa,
        state_pairs=tuple(state_pairs),
        rows=support_rows,
        initial=0,
        node_members=node_members,
        node_edges=node_edges,
    )


# ---------------------------------------------------------------------------
# Qualitative solvers
# ---------------------------------------------------------------------------


class SccOrder(NamedTuple):
    """The strongly connected components of a support graph, sinks first:
    every edge stays inside its component or leads to an earlier one."""

    roots: list  # one state per component, in order
    members: dict  # root -> tuple of its component's states, for components of two or more


_DONE = sys.maxsize  # the DFS number of a state whose component is emitted
_GOAL = object()  # a component's exit into states already known to win


def scc_order(rows: dict) -> SccOrder:
    """Tarjan's algorithm over the support rows' edges, without recursion.

    A component is emitted once every component it can reach has been, so
    the emission order is the order ``aswin`` sweeps.  A state whose
    component is emitted takes the number ``_DONE``, which lowers no lowlink.
    """
    num, low = {}, {}  # state -> DFS number, lowlink
    stack, roots, members = [], [], {}
    for start in rows:
        if start in num:
            continue
        num[start] = low[start] = len(num)
        stack.append(start)
        work = [(start, chain.from_iterable(rows[start].values()))]
        while work:
            v, successors = work[-1]
            for w in successors:
                n = num.get(w)
                if n is None:
                    num[w] = low[w] = len(num)
                    stack.append(w)
                    work.append((w, chain.from_iterable(rows[w].values())))
                    break
                if n < low[v]:
                    low[v] = n
            else:
                work.pop()
                lv = low[v]
                if lv == num[v]:
                    w = stack.pop()
                    num[w] = _DONE
                    if w != v:
                        group = [w]
                        while w != v:
                            w = stack.pop()
                            num[w] = _DONE
                            group.append(w)
                        members[v] = tuple(group)
                    roots.append(v)
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
    return SccOrder(roots, members)


@dataclass(frozen=True)
class WinningRegion:
    """A solver's region, with its strategy worked out on first read.

    ``strategy`` maps each region state outside the target to the actions
    that step strictly closer to the target, by breadth-first distance over
    the allowed actions: all actions for ``pwin``, those whose successors all
    stay in the region for ``aswin``.  Only the composite policy reads the
    per-node strategies, so ``synth`` and ``verify`` never compute them.
    """

    kind: str  # "almost-sure" | "positive"
    target: frozenset
    region: frozenset
    rows: dict = field(repr=False, compare=False)  # the solved model's support rows

    @cached_property
    def strategy(self) -> dict:
        """state -> frozenset of actions, for the region's states outside the target."""
        rows, target, region = self.rows, self.target, self.region
        # Only edges between region states can lie on a path to the target.
        allowed, preds = {}, {s: [] for s in region}
        for s in region - target:
            row = rows[s]
            allowed[s] = row if self.kind == "positive" else [
                a for a, succ in row.items() if all(t in region for t in succ)
            ]
            for a in allowed[s]:
                for t in row[a]:
                    if t in region:
                        preds[t].append((s, a))
        return _closer(rows, target, _layers(preds, target & region, allowed), allowed)


def _preds(rows: dict) -> dict:
    """state -> [(predecessor, action)] over the rows' edges."""
    preds = {s: [] for s in rows}
    for s, row in rows.items():
        for a, succ in row.items():
            for t in succ:
                preds[t].append((s, a))
    return preds


def _layers(preds: dict, goal, allowed: dict) -> dict:
    """BFS distance to ``goal`` over the allowed actions' edges in ``preds``."""
    dist = dict.fromkeys(goal, 0)
    frontier = list(dist)
    while frontier:
        nxt = []
        for t in frontier:
            for s, a in preds[t]:
                if s not in dist and a in allowed[s]:
                    dist[s] = dist[t] + 1
                    nxt.append(s)
        frontier = nxt
    return dist


def _closer(rows: dict, target, dist: dict, allowed: dict) -> dict:
    """Per state at a positive distance, the allowed actions with a successor
    one step closer."""
    return {
        s: frozenset(
            a
            for a in allowed[s]
            if any(dist.get(t, -1) == dist[s] - 1 for t in rows[s][a])
        )
        for s in sorted(dist.keys() - target)
    }


def _fixpoint(rows: dict, target) -> set:
    """The alternating fixpoint: drop the states that cannot reach the
    target under the allowed actions, disable through the predecessor index
    every action that may lead into them, and repeat until none drops."""
    preds = _preds(rows)
    region = set(rows)
    allowed = {s: set() if s in target else set(row) for s, row in rows.items()}
    while True:
        bad = region.difference(_layers(preds, target & region, allowed))
        if not bad:
            return region
        region -= bad
        for t in bad:
            allowed[t].clear()
            for s, a in preds[t]:
                allowed[s].discard(a)


def _component_region(rows: dict, win: set, group) -> set:
    """The states of one component that almost surely reach ``win``, which
    holds the target and every winning state of the earlier components.

    The fixpoint runs on the component alone: a successor in ``win`` becomes
    one goal state, and an action with a successor outside both the
    component and ``win`` (a losing state) is dropped.
    """
    inside = set(group)
    local = {_GOAL: {}}
    for s in group:
        if s in win:
            continue  # a target state
        local[s] = row = {}
        for a, succ in rows[s].items():
            mapped = []
            for t in succ:
                if t in win:
                    mapped.append(_GOAL)
                elif t in inside:
                    mapped.append(t)
                else:
                    break
            else:
                row[a] = mapped
    region = _fixpoint(local, {_GOAL})
    region.discard(_GOAL)
    return region


def pwin(rows: dict, target) -> WinningRegion:
    """Positive-probability reachability over support rows: one backward BFS.

    The strategy, derived on first read like every region's, keeps every
    action with a successor strictly closer to the target, so any tie-break
    of it witnesses positive reachability.
    """
    target = frozenset(target)
    allowed = {s: () if s in target else row for s, row in rows.items()}
    dist = _layers(_preds(rows), [s for s in target if s in rows], allowed)
    return WinningRegion("positive", target, frozenset(dist), rows)


def aswin(rows: dict, target, order: SccOrder = None) -> WinningRegion:
    """Almost-sure reachability over support rows, one component at a time.

    Components are decided in ``order``, sinks first, so every successor
    outside a component is already known to win or lose.  A single state
    wins if it is in the target, or if some action has a successor other
    than the state itself and every such successor wins.  A larger
    component runs the alternating fixpoint on its own states
    (``_component_region``).  Target states always stay in the region.

    ``order`` defaults to ``scc_order(rows)``.  The order of a model whose
    edges include these rows' edges serves as well: where one of its
    components holds several of the rows' components they are solved
    together, and its states missing from ``rows`` are skipped.  States of
    ``rows`` outside it must have empty rows, like the ``improved`` target
    state of the improvement MDP and of the verifier's chain.
    """
    target = frozenset(target)
    if order is None:
        order = scc_order(rows)
    win = {s for s in target if s in rows}
    members = order.members
    for v in order.roots:
        group = members.get(v)
        if group is not None:
            win |= _component_region(rows, win, [s for s in group if s in rows])
            continue
        row = rows.get(v)
        if row is None or v in win:
            continue
        for succ in row.values():
            leaves = False
            for t in succ:
                if t in win:
                    leaves = True
                elif t != v:
                    break  # a losing successor
            else:
                if leaves:  # a self-loop only delays leaving
                    win.add(v)
                    break
    return WinningRegion("almost-sure", target, frozenset(win), rows)


# ---------------------------------------------------------------------------
# Improvement relation
# ---------------------------------------------------------------------------


@dataclass
class ImprovementCache:
    """Per-product facts shared by the improvement machinery, computed once.

    ``order`` is the product's SCC order, which every ``aswin`` on the
    product or a model derived from it sweeps.  ``aswin_by_node`` holds the
    per-node almost-sure regions.  Every product
    state's most-preferred (MP) node set is interned into a class id:
    ``mp_class[v]`` indexes ``mp_sets``, and ``improves[c1][c2]`` tells
    whether a state of class c2 improves on one of class c1.
    """

    product: ProductMdp
    order: SccOrder = field(init=False)
    aswin_by_node: dict = field(default_factory=dict)
    mp_class: list = field(default_factory=list)  # state -> class id
    mp_sets: list = field(default_factory=list)  # class id -> frozenset of MP nodes
    improves: list = field(default_factory=list)  # class -> class -> bool

    def __post_init__(self):
        pm = self.product
        self.order = scc_order(pm.rows)
        for node_id, members in sorted(pm.node_members.items()):
            self.aswin_by_node[node_id] = aswin(pm.rows, members, self.order)
        z_sets = [[] for _ in range(pm.n_states())]
        for node_id, region in self.aswin_by_node.items():
            for v in region.region:
                z_sets[v].append(node_id)
        class_of = {}
        for nodes in z_sets:
            mp = mp_nodes(pm, frozenset(nodes))
            self.mp_class.append(class_of.setdefault(mp, len(class_of)))
        self.mp_sets = list(class_of)
        self.improves = [
            [
                any(
                    (a == BOTTOM != b) or (a, b) in pm.node_edges
                    for a in mp1
                    for b in mp2
                )
                for mp2 in self.mp_sets
            ]
            for mp1 in self.mp_sets
        ]

    def mp_of(self, v: int) -> frozenset:
        """MP nodes of product state v: ``mp_nodes(pm, z_set(pm, v, cache))``."""
        return self.mp_sets[self.mp_class[v]]


def aswin_by_node(pm: ProductMdp) -> ImprovementCache:
    return ImprovementCache(product=pm)


def z_set(pm: ProductMdp, v: int, cache: ImprovementCache) -> frozenset:
    """Preference-graph nodes almost-surely reachable from v."""
    return frozenset(
        node_id
        for node_id, region in cache.aswin_by_node.items()
        if v in region.region
    )


def mp_nodes(pm: ProductMdp, nodes: frozenset) -> frozenset:
    """Maximal elements of a node set under the graph edges; empty sets map
    to the virtual bottom node."""
    if not nodes:
        return frozenset({BOTTOM})
    return frozenset(
        n for n in nodes if not any((n, m) in pm.node_edges for m in nodes)
    )


def is_improvement(pm: ProductMdp, v1: int, v2: int, cache: ImprovementCache) -> bool:
    """True iff v2 improves on v1: some most-preferred almost-surely winnable
    node of v2 sits strictly above one of v1's (every real node sits above
    BOTTOM).  A lookup in the cache's class table."""
    return cache.improves[cache.mp_class[v1]][cache.mp_class[v2]]


# ---------------------------------------------------------------------------
# Improvement MDP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImprovementMdp:
    """The product restricted to non-regressing actions, with every improving
    edge redirected to the absorbing target state ``improved``.

    ``rows`` are the support rows the solvers take, ``improved``'s empty one
    included.  An action is kept only if none of its successors would be a
    regression; ``dead`` holds the states left with no action, which are
    never positively winning.  An edge improves iff its kept row routes it
    to ``improved``.
    """

    product: ProductMdp
    rows: dict  # v -> {kept action: [successors, improving ones as ``improved``]}
    dead: frozenset  # product states with no enabled action

    @property
    def improved(self) -> int:
        return self.product.n_states()

    @cached_property
    def _improving_pairs(self) -> frozenset:
        """(v, w) product edges that improve; read by ``perfbench/tracing.py`` only."""
        return frozenset(
            (v, w)
            for v, row in self.rows.items()
            for a, routed in row.items()
            for w, t in zip(self.product.rows[v][a], routed)
            if t == self.improved
        )


def build_improvement_mdp(pm: ProductMdp, cache: ImprovementCache) -> ImprovementMdp:
    cls, improves = cache.mp_class, cache.improves
    improved = pm.n_states()
    rows = {improved: {}}
    for v in range(improved):
        c = cls[v]
        up = improves[c]
        rows[v] = row = {}
        for a, successors in pm.rows[v].items():
            routed = []
            for w in successors:
                d = cls[w]
                if improves[d][c]:
                    break  # regression guard: the move could lose ground
                routed.append(improved if up[d] else w)
            else:
                row[a] = routed
    return ImprovementMdp(
        product=pm,
        rows=rows,
        dead=frozenset(v for v in range(improved) if not rows[v]),
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """Partial set-valued strategy over product states; absent means undefined."""

    mode: str  # "spi" | "sasi"
    actions: dict  # v -> frozenset of actions

    def defined_at(self, v: int) -> bool:
        return v in self.actions

    def get(self, v: int):
        return self.actions.get(v)


@dataclass(frozen=True)
class SynthesisResult:
    product: ProductMdp
    cache: ImprovementCache
    improvement_mdp: ImprovementMdp
    spi: Strategy
    sasi: Strategy
    spi_region: WinningRegion
    sasi_region: WinningRegion


def synthesize(pm: ProductMdp, cache: ImprovementCache = None) -> SynthesisResult:
    """Safe positively improving and safe almost-surely improving strategies.

    Both reduce to reachability of the improvement MDP's ``improved`` state;
    a strategy is defined where the solver keeps some product action.
    """
    if cache is None:
        cache = aswin_by_node(pm)
    im = build_improvement_mdp(pm, cache)
    positive = pwin(im.rows, {im.improved})
    almost = aswin(im.rows, {im.improved}, cache.order)
    return SynthesisResult(
        product=pm,
        cache=cache,
        improvement_mdp=im,
        spi=Strategy("spi", positive.strategy),
        sasi=Strategy("sasi", almost.strategy),
        spi_region=positive,
        sasi_region=almost,
    )


class CompositePolicy:
    """Runtime policy: chain improvements while any exist, then carry out the
    almost-sure strategy for a most-preferred winnable node.

    Deterministic for a fixed tie-break; the "uniform" mode draws from the
    permissive action set with the caller-supplied RNG.  ``choice`` works out
    a state's sorted candidate actions and phase on its first visit and looks
    them up afterwards; ``step`` picks from them with the draws deriving them
    anew would make (one ``randrange`` per uniform pick among several actions,
    none otherwise), so rollouts stay byte-reproducible.  Where a state's pick
    draws nothing, ``step`` keeps its result and returns it on later visits.
    """

    def __init__(self, result: SynthesisResult, mode: str = "sasi", tie_break: str = "lowest"):
        if mode not in ("spi", "sasi"):
            raise ValueError(f"unknown mode {mode!r}")
        if tie_break not in ("lowest", "uniform"):
            raise ValueError(f"unknown tie-break {tie_break!r}")
        self.result = result
        self.mode = mode
        self.tie_break = tie_break
        self.improvement_strategy = result.spi if mode == "spi" else result.sasi
        self._choices = {}  # v -> (sorted action tuple, phase)
        self._picks = {}  # v -> step's result where it draws nothing

    def _satisficing_actions(self, v: int):
        cache = self.result.cache
        mp = cache.mp_of(v)
        if mp == frozenset({BOTTOM}):
            return None
        node = min(mp)
        region = cache.aswin_by_node[node]
        acts = region.strategy.get(v)
        if acts:
            return acts
        # Already inside the node (or at its target): prefer actions that
        # keep every successor in the almost-sure region; a node once
        # achieved stays achieved, so anything enabled is acceptable.
        row = self.result.product.rows[v]
        keep = [a for a, succ in row.items() if all(t in region.region for t in succ)]
        return frozenset(keep) if keep else frozenset(row)

    def choice(self, v: int):
        """(sorted candidate actions, phase) at product state v.

        Phases: "improve" while the improvement strategy is defined,
        "satisfice" under the almost-sure strategy of the chosen node, and
        "unsatisfiable" when no guarantee exists at all.
        """
        choice = self._choices.get(v)
        if choice is None:
            if self.improvement_strategy.defined_at(v):
                acts, phase = self.improvement_strategy.get(v), "improve"
            else:
                acts, phase = self._satisficing_actions(v), "satisfice"
                if not acts:
                    acts, phase = self.result.product.rows[v], "unsatisfiable"
            choice = self._choices[v] = tuple(sorted(acts)), phase
        return choice

    def step(self, v: int, rng=None):
        """Action for product state v plus the phase that produced it."""
        pick = self._picks.get(v)
        if pick is not None:
            return pick
        actions, phase = self.choice(v)
        if len(actions) > 1 and self.tie_break == "uniform":
            return actions[rng.randrange(len(actions)) if rng is not None else 0], phase
        pick = self._picks[v] = actions[0], phase
        return pick


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def product_state_id(pm: ProductMdp, v: int) -> str:
    s, q = pm.state_pairs[v]
    return f"{pm.mdp.states[s]}#q{q}"


def strategy_to_json(pm: ProductMdp, strategy: Strategy) -> dict:
    entries = []
    for v in sorted(strategy.actions):
        entries.append(
            {
                "state": product_state_id(pm, v),
                "actions": sorted(pm.mdp.actions[a] for a in strategy.actions[v]),
            }
        )
    undefined = [
        product_state_id(pm, v)
        for v in range(pm.n_states())
        if v not in strategy.actions
    ]
    return {"mode": strategy.mode, "entries": entries, "undefined_states": undefined}


def strategy_from_json(pm: ProductMdp, doc: dict) -> Strategy:
    ids = {product_state_id(pm, v): v for v in range(pm.n_states())}
    action_index = {name: a for a, name in enumerate(pm.mdp.actions)}
    mode, entries = json_fields(doc, "strategy file", StrategyError, {"mode": str, "entries": list})
    if mode not in ("spi", "sasi"):
        raise StrategyError(f"strategy file: unknown mode {mode!r}")
    actions = {}
    for entry in entries:
        (sid,) = json_fields(entry, "strategy entry", StrategyError, {"state": str})
        if sid not in ids:
            raise StrategyError(f"strategy references unknown product state {sid!r}")
        if ids[sid] in actions:
            raise StrategyError(f"strategy lists product state {sid!r} twice")
        (names,) = json_fields(entry, f"strategy entry for {sid!r}", StrategyError, {"actions": STRINGS})
        unknown = [name for name in names if name not in action_index]
        if unknown:
            raise StrategyError(f"strategy entry for {sid!r} names unknown action {unknown[0]!r}")
        chosen = frozenset(action_index[name] for name in names)
        if not chosen:
            raise StrategyError(f"empty action set at {sid!r}")
        disabled = sorted(pm.mdp.actions[a] for a in chosen - pm.rows[ids[sid]].keys())
        if disabled:
            raise StrategyError(f"strategy entry for {sid!r} names action {disabled[0]!r}, not enabled there")
        actions[ids[sid]] = chosen
    return Strategy(mode=mode, actions=actions)


def regions_to_json(pm: ProductMdp, cache: ImprovementCache) -> dict:
    nodes = {}
    for node_id, region in sorted(cache.aswin_by_node.items()):
        nodes[str(node_id)] = {
            "tags": tag_labels(pm.pdfa.spec, pm.pdfa.graph.nodes[node_id].mp),
            "members": sorted(product_state_id(pm, v) for v in pm.node_members[node_id]),
            "almost_sure_region": sorted(product_state_id(pm, v) for v in region.region),
        }
    return {"nodes": nodes, "edges": sorted([w, b] for w, b in pm.node_edges)}


def improvement_mdp_to_dot(im: ImprovementMdp) -> str:
    """The paper's doubled improvement MDP: node ``v<i>T`` is product state i
    just entered by an improving edge, ``v<i>B`` the same state otherwise.
    Both copies of a state share its edges, so each edge's label is rendered
    once."""
    pm, improved, names = im.product, im.improved, im.product.mdp.actions
    lines = ["digraph improvement_mdp {", "  rankdir=LR;"]
    for v in range(pm.n_states()):
        sid = product_state_id(pm, v)
        lines.append(f'  v{v}B [shape=box label="{sid} bot"];')
        lines.append(f'  v{v}T [shape=box label="{sid} top" style=filled fillcolor="palegreen"];')
    for v in range(pm.n_states()):
        # (successor, improving, label) per edge of the kept actions
        edges = [
            (w, routed == improved, f'[label="{names[a]}:{p:g}"];')
            for a, row in im.rows[v].items()
            for (w, p), routed in zip(pm.dist(v, a), row)
        ]
        for src, entered in ((f"v{v}B", False), (f"v{v}T", True)):
            if v in im.dead:
                lines.append(f'  {src} -> {src} [label="dead:1"];')
            for w, up, label in edges:
                lines.append(f"  {src} -> v{w}{'T' if up and not entered else 'B'} {label}")
    lines.append("}")
    return "\n".join(lines) + "\n"
