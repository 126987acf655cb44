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

The solvers take support rows, ``state -> {action: (positive-probability
successors)}``, which is all qualitative reachability depends on.  Each model
builds its rows in the loop that visits its edges anyway, and keeps no other
copy of them: ``build_product``, which walks the MDP's per-state rows
(``ProductMdp.dist`` pairs its rows with their probabilities), the
improvement MDP's one pass and the verifier's chain.  Every row is a tuple
of ints, so the garbage collector stops tracking it, and then its state's
row dict, at the first full collection that sees them.  The improvement MDP
keeps the product's own tuple for every action none of whose successors
changes MP class, and builds a routed one only for the others.

A solve builds one predecessor index, over only the edges it searches.
``pwin`` is one backward search whose distances give its strategy; ``aswin``
decides the strongly connected components of the support graph one at a
time, sinks first (``scc_order``): a single state in one step, a larger
component by the alternating fixpoint on its own rows.  A product state at
a decided preference-DFA state keeps its MP class on every path, so no
solve visits it: it wins exactly the nodes it is a member of and never
improves.  One SCC order over the other states serves every solve of a
synthesis and both of the verifier's chain solves, since those models only
drop product edges and add edges into one target sink.  Only ``synthesize``
and the composite policy read strategies, each on first read.

The improvement relation is filled in once per product, right after the
per-node solves, as a table over the states' most-preferred node sets.
``is_improvement`` is the lookup for one pair of states; the improvement MDP
reads the table directly, and the verifier's chain and rollout rows call
``is_improvement``.  ``ImprovementCache.improved`` is the id of the one
target state that the improvement MDP and the verifier's chain share.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .mdp import LabeledMdp, MdpError
from .prefdfa import PreferenceDfa, tag_labels
from .record import Record, field
from .schema import STRINGS, json_fields
from .scltl import DEFAULT_STATE_CAP, CapacityError, dot_escape

__all__ = [
    "BOTTOM",
    "NO_GUARANTEE",
    "MODES",
    "TIE_BREAKS",
    "ProductMdp",
    "WinningRegion",
    "ImprovementMdp",
    "Strategy",
    "StrategyError",
    "SynthesisResult",
    "CompositePolicy",
    "MdpView",
    "build_product",
    "pwin",
    "aswin",
    "aswin_by_node",
    "SccOrder",
    "scc_order",
    "mp_nodes",
    "is_improvement",
    "build_improvement_mdp",
    "synthesize",
    "strategy_to_json",
    "regions_to_json",
    "improvement_mdp_to_dot",
]

class StrategyError(ValueError):
    """Raised for a malformed strategy file, or one naming unknown states or disabled actions."""


# Virtual bottom node: a state from which nothing is almost-surely winnable
# sits below every real node, so gaining any guarantee counts as improvement.
BOTTOM = -1
NO_GUARANTEE = frozenset({BOTTOM})  # the MP set of a state that can win no node

MODES = ("spi", "sasi")  # safe positively / almost-surely improving
TIE_BREAKS = ("lowest", "uniform")  # how the composite policy picks among permitted actions


class MdpView(Record):
    """An MDP described by closures: states, enabled actions, distributions.

    The input of ``value_iteration``, the numeric oracle for the qualitative
    solvers, which read support rows instead.
    """

    states: tuple
    enabled: object  # state -> iterable of actions
    dist: object  # (state, action) -> iterable of (successor, prob)


class ProductMdp(Record):
    """Reachable product of an MDP with a preference DFA.

    States are indices into ``state_pairs`` (mdp state, dfa state) pairs;
    ``node_members`` maps each preference-graph node to its product states
    and ``node_edges`` mirrors the graph edges over nonempty members.
    ``rows[v]`` lists the actions of the MDP state's row, in its order.  The
    automaton adds no probabilities: ``dist`` reads them off that row.
    """

    mdp: LabeledMdp
    pdfa: PreferenceDfa
    state_pairs: tuple  # of (s, q)
    rows: dict  # v -> {a: (v' per entry of the MDP's (s, a), in order)}: the solvers' input
    initial: int
    node_members: dict  # node id -> frozenset of product states
    node_edges: frozenset  # (worse node id, better node id)

    def n_states(self) -> int:
        return len(self.state_pairs)

    def enabled(self, v: int):
        return list(self.rows[v])

    def dist(self, v: int, a: int) -> tuple:  # ((v', p), ...) over rows[v][a]
        probs = [p for _, p in self.mdp.rows[self.state_pairs[v][0]][a]]
        return tuple(zip(self.rows[v][a], probs))

    @property
    def transitions(self) -> dict:
        """(v, a) -> ``dist(v, a)``, built on each read; read by ``perfbench/tracing.py`` only."""
        return {(v, a): self.dist(v, a) for v, row in self.rows.items() for a in row}

    @cached_property
    def decided(self) -> frozenset:
        """The states at a decided DFA state (``PreferenceDfa.decided``), whose
        successors all keep that DFA state and with it the MP class."""
        decided = self.pdfa.decided
        return frozenset(v for v, (_, q) in enumerate(self.state_pairs) if q in decided)

    @cached_property
    def state_ids(self) -> list:
        """v -> the id the exports give state v, ``<mdp state>#q<dfa state>``."""
        names = self.mdp.states
        return [f"{names[s]}#q{q}" for s, q in self.state_pairs]


def build_product(
    mdp: LabeledMdp,
    pdfa: PreferenceDfa,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ProductMdp:
    """Synchronous product; the automaton consumes the label of each state
    entered, including the initial one.

    ``mdp`` must have exactly one initial state.  The automaton is stepped
    through one ``pdfa.column`` per distinct MDP label, so only the letters the
    MDP emits are computed, not the 2^|AP|-wide ``pdfa.rows``.  Product states
    are numbered in the order a depth-first frontier reaches them; the pair
    index keys each (s, q) by the int ``s * len(pdfa.states) + q``."""
    if set(mdp.atoms) - set(pdfa.alphabet):
        raise MdpError(
            f"MDP atoms {sorted(mdp.atoms)} not covered by preference alphabet "
            f"{sorted(pdfa.alphabet)}"
        )
    if len(mdp.initial) != 1:
        raise MdpError("product construction expects a single initial state")
    s0 = mdp.initial[0][0]
    positions = [pdfa.position[label] for label in mdp.labels]  # per MDP state
    columns = {k: pdfa.column(k) for k in set(positions)}  # only the letters the MDP emits
    letter = [columns[k] for k in positions]  # per MDP state, its label's column
    q0 = letter[s0][pdfa.initial]

    n_q, mdp_rows = len(pdfa.states), mdp.rows
    pair_index = {s0 * n_q + q0: 0}  # the int s * n_q + q of each pair (s, q) -> its state
    state_pairs = [(s0, q0)]
    support_rows = {}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        s, q = state_pairs[v]
        support_rows[v] = row = {}
        for a, dist in mdp_rows[s].items():
            support = []
            for s2, _ in dist:
                q2 = letter[s2][q]
                key = s2 * n_q + q2
                w = pair_index.get(key)
                if w is None:
                    w = len(state_pairs)
                    if w >= state_cap:
                        raise CapacityError(f"product exceeded {state_cap} states")
                    pair_index[key] = w
                    state_pairs.append((s2, q2))
                    frontier.append(w)
                support.append(w)
            row[a] = tuple(support)

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

    def states(self):
        """Every state of the order, component by component."""
        members = self.members
        return chain.from_iterable(members.get(v, (v,)) for v in self.roots)


_DONE = sys.maxsize  # the DFS number of a state whose component is emitted


def scc_order(rows: dict, skip=()) -> SccOrder:
    """Tarjan's algorithm over the support rows' edges, without recursion.

    A component is emitted once every component it can reach has been, so
    the emission order is the order ``aswin`` sweeps.  A state whose
    component is emitted takes the number ``_DONE``, which lowers no lowlink.
    The states of ``skip`` start with it, so the order leaves them out; no
    edge may lead from them to a state outside ``skip``.
    """
    num, low = dict.fromkeys(skip, _DONE), {}  # state -> DFS number, lowlink
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


class WinningRegion(Record):
    """A solver's region, with its strategy worked out on first read.

    ``strategy`` maps each region state outside the target to the actions
    that step strictly closer to the target, by breadth-first distance over
    the allowed actions: all actions for ``pwin``, whose search left its
    distances in ``dist``, and for ``aswin`` those whose successors all stay
    in the region.  Only the composite policy reads the per-node strategies.
    """

    target: frozenset
    region: frozenset
    rows: dict = field(repr=False, compare=False)  # the solved model's support rows
    dist: dict = field(default=None, repr=False, compare=False)  # pwin's: state -> distance

    @cached_property
    def strategy(self) -> dict:
        """state -> frozenset of actions, for the region's states outside the target."""
        rows, target, region, dist = self.rows, self.target, self.region, self.dist
        if dist is not None:
            return _closer(rows, target, dist, rows)
        allowed = {s: [a for a, succ in rows[s].items() if all(t in region for t in succ)] for s in region - target}
        return _closer(rows, target, _layers(_preds(rows, allowed.items()), target & region, allowed), allowed)


def _preds(rows: dict, allowed) -> dict:
    """t -> [(s, a)] over ``rows[s][a]`` for each (s, actions) pair of
    ``allowed`` and each of its actions; a state no such edge reaches has no entry."""
    preds = {}
    entry = preds.setdefault
    for s, actions in allowed:
        row = rows[s]
        for a in actions:
            edge = s, a
            for t in row[a]:
                entry(t, []).append(edge)
    return preds


def _layers(preds: dict, goal, allowed: dict) -> dict:
    """BFS distance to ``goal`` over the allowed actions' edges in ``preds``."""
    dist = dict.fromkeys(goal, 0)
    frontier = list(dist)
    while frontier:
        nxt = []
        for t in frontier:
            for s, a in preds.get(t, ()):
                if s not in dist and a in allowed[s]:
                    dist[s] = dist[t] + 1
                    nxt.append(s)
        frontier = nxt
    return dist


def _closer(rows: dict, target, dist: dict, allowed: dict) -> dict:
    """Per state at a positive distance, the allowed actions with a successor
    one step closer."""
    return {
        s: frozenset(a for a in allowed[s] if any(dist.get(t, -1) == dist[s] - 1 for t in rows[s][a]))
        for s in sorted(dist.keys() - target)
    }


def _component_region(rows: dict, win: set, group) -> set:
    """The states of one component that almost surely reach ``win`` (the
    target and every winning state of earlier components), by the
    alternating fixpoint on the component's own rows: an action is allowed
    while its successors all lie in the component or in ``win``, and each
    pass drops the states that cannot reach the exits into ``win`` under
    the allowed actions and disables every action leading into them."""
    region = {s for s in group if s not in win}
    allowed = {}
    for s in region:
        allowed[s] = actions = set()
        for a, succ in rows[s].items():
            for t in succ:
                if t not in region and t not in win:
                    break  # a losing successor
            else:
                actions.add(a)
    preds = _preds(rows, allowed.items())
    goal = preds.keys() - region  # the exits into ``win``
    while True:
        bad = region.difference(_layers(preds, goal, allowed))
        if not bad:
            return region
        region -= bad
        for t in bad:
            allowed[t].clear()
            for s, a in preds.get(t, ()):
                allowed[s].discard(a)


def pwin(rows: dict, target, order: SccOrder = None) -> WinningRegion:
    """Positive-probability reachability over support rows: one backward BFS.

    The region keeps the search's distances, and its strategy, read off them
    on first read, keeps every action with a successor strictly closer to
    the target, so any tie-break of it witnesses positive reachability.

    With ``order``, only the edges of its states in ``rows`` are indexed (an
    order state missing from ``rows`` is skipped): as for ``aswin``, a state
    of ``rows`` outside the order must win iff it is in the target.
    """
    target = frozenset(target)
    sources = rows.items() if order is None else ((s, rows[s]) for s in order.states() if s in rows)
    dist = _layers(_preds(rows, sources), [s for s in target if s in rows], rows)
    return WinningRegion(target, frozenset(dist), rows, dist)


def aswin(rows: dict, target, order: SccOrder = None) -> WinningRegion:
    """Almost-sure reachability over support rows, one component at a time.

    Components are decided in ``order``, sinks first, so every successor
    outside a component is already known to win or lose.  A single state
    wins if it is in the target, or if some action has a successor other
    than the state itself and every such successor wins.  A larger
    component runs the alternating fixpoint on its own rows, copying none
    (``_component_region``).  Target states always stay in the region.

    ``order`` defaults to ``scc_order(rows)``.  The order of a model whose
    edges include these rows' edges serves as well: where one of its
    components holds several of the rows' components they are solved
    together, and its states missing from ``rows`` are skipped.  A state of
    ``rows`` outside it wins iff it is in the target, like the ``improved``
    target state of the improvement MDP and of the verifier's chain, and
    the decided states that ``ImprovementCache.order`` leaves out.
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
    return WinningRegion(target, frozenset(win), rows)


# ---------------------------------------------------------------------------
# Improvement relation
# ---------------------------------------------------------------------------


class ImprovementCache:
    """Per-product facts shared by the improvement machinery, computed once.

    ``order`` is the SCC order of the product's undecided states, which
    every solve on the product or a model derived from it sweeps.  A decided
    state (``ProductMdp.decided``) reaches only states with its DFA state, so
    it wins node X iff it is one of X's members, never improves and is in
    no strategy's domain: no solve visits it.  ``aswin_by_node`` holds the
    per-node almost-sure regions.  Every product state's most-preferred (MP)
    node set, worked out once per distinct z-set (the nodes whose region holds
    the state), is interned into a class id in the order the states first
    show it: ``mp_class[v]`` indexes ``mp_sets``, and ``improves[c1][c2]``
    tells whether a state of class c2 improves on one of class c1.  Outside
    this module the relation is read through ``is_improvement`` and ``mp_of``.
    """

    def __init__(self, product: ProductMdp):
        self.product = pm = product
        self.order = scc_order(pm.rows, pm.decided)
        self.aswin_by_node = {  # node id -> WinningRegion
            node_id: aswin(pm.rows, members, self.order)
            for node_id, members in sorted(pm.node_members.items())
        }
        # A state's z-set, the nodes whose region holds it, as a bit mask:
        # bit k stands for the k-th node of ``aswin_by_node``.
        nodes, z_masks = list(self.aswin_by_node), [0] * pm.n_states()
        for k, region in enumerate(self.aswin_by_node.values()):
            bit = 1 << k
            for v in region.region:
                z_masks[v] |= bit
        class_of, class_of_z = {}, {}  # MP set -> class id, z-set mask -> class id
        for z in dict.fromkeys(z_masks):  # each distinct z-set once, in first-occurrence order
            z_set = frozenset(n for k, n in enumerate(nodes) if z >> k & 1)
            class_of_z[z] = class_of.setdefault(mp_nodes(pm, z_set), len(class_of))
        self.mp_class = [class_of_z[z] for z in z_masks]  # state -> class id
        self.mp_sets = list(class_of)  # class id -> frozenset of MP nodes
        self.improves = [  # class -> class -> bool
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

    @property
    def improved(self) -> int:
        """The absorbing target state to which the improvement MDP and the
        verifier's chain route every improving edge: one past the product's
        last state."""
        return self.product.n_states()

    def mp_of(self, v: int) -> frozenset:
        """MP nodes of product state v: ``mp_nodes`` of the nodes it wins almost surely."""
        return self.mp_sets[self.mp_class[v]]


def aswin_by_node(pm: ProductMdp) -> ImprovementCache:
    return ImprovementCache(pm)


def mp_nodes(pm: ProductMdp, nodes: frozenset) -> frozenset:
    """Maximal elements of a node set under the graph edges; empty sets map
    to the virtual bottom node."""
    if not nodes:
        return NO_GUARANTEE
    return frozenset(
        n for n in nodes if not any((n, m) in pm.node_edges for m in nodes)
    )


def is_improvement(cache: ImprovementCache, v1: int, v2: int) -> bool:
    """True iff v2 improves on v1: some most-preferred almost-surely winnable
    node of v2 sits strictly above one of v1's (every real node sits above
    BOTTOM).  A lookup in the cache's class table."""
    return cache.improves[cache.mp_class[v1]][cache.mp_class[v2]]


# ---------------------------------------------------------------------------
# Improvement MDP
# ---------------------------------------------------------------------------


class ImprovementMdp(Record):
    """The product restricted to non-regressing actions, with every improving
    edge redirected to the absorbing target state ``cache.improved``.

    ``rows`` are the support rows the solvers take, the target's empty one
    included.  An action is kept only if none of its successors would be a
    regression; ``dead`` holds the states left with no action, which are
    never positively winning.  An edge improves iff its kept row routes it
    to the target.
    """

    cache: ImprovementCache
    # v -> {kept action: (successors, improving ones as ``cache.improved``)};
    # the product's own tuple where no successor changes MP class, and the
    # product's own row dict at a decided state
    rows: dict
    dead: frozenset  # product states with no enabled action

    @cached_property
    def _improving_pairs(self) -> frozenset:
        """(v, w) product edges that improve; read by ``perfbench/tracing.py`` only."""
        product_rows, improved = self.cache.product.rows, self.cache.improved
        return frozenset(
            (v, w)
            for v, row in self.rows.items()
            for a, routed in row.items()
            for w, t in zip(product_rows[v][a], routed)
            if t == improved
        )


def build_improvement_mdp(cache: ImprovementCache) -> ImprovementMdp:
    # Reads the class table directly: the build visits every product edge,
    # where is_improvement would cost two calls per edge.
    pm, cls, improves = cache.product, cache.mp_class, cache.improves
    improved = cache.improved
    rows = dict(pm.rows)  # a decided state keeps the product's row dict
    rows[improved] = {}
    for v in cache.order.states():
        c = cls[v]
        up = improves[c]
        rows[v] = row = {}
        for a, successors in pm.rows[v].items():
            for w in successors:
                if cls[w] != c:
                    break
            else:
                # No successor changes class, so none improves or regresses:
                # the product's own row serves.
                row[a] = successors
                continue
            routed = []
            for w in successors:
                d = cls[w]
                if improves[d][c]:
                    break  # regression guard: the move could lose ground
                routed.append(improved if up[d] else w)
            else:
                row[a] = tuple(routed)
    return ImprovementMdp(
        cache=cache,
        rows=rows,
        dead=frozenset(v for v in range(improved) if not rows[v]),
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class Strategy(Record):
    """Partial set-valued strategy over product states; absent means undefined."""

    mode: str  # "spi" | "sasi"
    actions: dict  # v -> frozenset of actions


class SynthesisResult(Record):
    cache: ImprovementCache  # holds the product
    improvement_mdp: ImprovementMdp
    spi: Strategy
    sasi: Strategy


def synthesize(pm: ProductMdp) -> SynthesisResult:
    """Safe positively improving and safe almost-surely improving strategies.

    Both reduce to reachability of the improvement MDP's target state
    ``cache.improved``; a strategy is defined where the solver keeps some
    product action.
    """
    cache = aswin_by_node(pm)
    im = build_improvement_mdp(cache)
    target = {cache.improved}
    return SynthesisResult(
        cache=cache,
        improvement_mdp=im,
        spi=Strategy("spi", pwin(im.rows, target, cache.order).strategy),
        sasi=Strategy("sasi", aswin(im.rows, target, cache.order).strategy),
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
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if tie_break not in TIE_BREAKS:
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
        if mp == NO_GUARANTEE:
            return None
        node = min(mp)
        region = cache.aswin_by_node[node]
        acts = region.strategy.get(v)
        if acts:
            return acts
        # Already inside the node (or at its target): prefer actions that
        # keep every successor in the almost-sure region; a node once
        # achieved stays achieved, so anything enabled is acceptable.
        row = cache.product.rows[v]
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
            acts, phase = self.improvement_strategy.actions.get(v), "improve"
            if acts is None:
                acts, phase = self._satisficing_actions(v), "satisfice"
                if not acts:
                    acts, phase = self.result.cache.product.rows[v], "unsatisfiable"
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


def strategy_to_json(pm: ProductMdp, strategy: Strategy) -> dict:
    ids, names, actions = pm.state_ids, pm.mdp.actions, strategy.actions
    entries = [
        {"state": ids[v], "actions": sorted(names[a] for a in actions[v])}
        for v in sorted(actions)
    ]
    undefined = [sid for v, sid in enumerate(ids) if v not in actions]
    return {"mode": strategy.mode, "entries": entries, "undefined_states": undefined}


def strategy_from_json(pm: ProductMdp, doc: dict) -> Strategy:
    ids = {sid: v for v, sid in enumerate(pm.state_ids)}
    action_index = {name: a for a, name in enumerate(pm.mdp.actions)}
    mode, entries = json_fields(doc, "strategy file", StrategyError, {"mode": str, "entries": list})
    if mode not in MODES:
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


def regions_to_json(cache: ImprovementCache) -> dict:
    pm, nodes = cache.product, {}
    ids = pm.state_ids
    for node_id, region in sorted(cache.aswin_by_node.items()):
        nodes[str(node_id)] = {
            "tags": tag_labels(pm.pdfa.spec, pm.pdfa.graph.nodes[node_id].mp),
            "members": sorted(ids[v] for v in pm.node_members[node_id]),
            "almost_sure_region": sorted(ids[v] for v in region.region),
        }
    return {"nodes": nodes, "edges": sorted([w, b] for w, b in pm.node_edges)}


def improvement_mdp_to_dot(im: ImprovementMdp, write) -> None:
    """Write the paper's doubled improvement MDP in DOT through ``write``, a
    product state's lines at a time: node ``v<i>T`` is product state i just
    entered by an improving edge, ``v<i>B`` the same state otherwise.

    Each MDP (state, action)'s labels are rendered once, and each edge of a
    product state once: ``v<i>T`` steps to the plain copy of every
    successor, and ``v<i>B`` differs only where an edge improves."""
    pm, improved = im.cache.product, im.cache.improved
    names, mdp_rows = list(map(dot_escape, pm.mdp.actions)), pm.mdp.rows
    labels: dict = {}  # (s, a) -> label per entry, the successors of ``pm.dist``
    write("digraph improvement_mdp {\n  rankdir=LR;\n")
    for v, sid in enumerate(map(dot_escape, pm.state_ids)):
        write(f'  v{v}B [shape=box label="{sid} bot"];\n'
              f'  v{v}T [shape=box label="{sid} top" style=filled fillcolor="palegreen"];\n')
    for v, (s, _) in enumerate(pm.state_pairs):
        if v in im.dead:
            write(f'  v{v}B -> v{v}B [label="dead:1"];\n  v{v}T -> v{v}T [label="dead:1"];\n')
            continue
        bot, top = [], []  # edge bodies from v<i>B and from v<i>T
        for a, routed in im.rows[v].items():
            row = labels.get((s, a))
            if row is None:
                row = labels[(s, a)] = [
                    f'[label="{names[a]}:{p:g}"];' for _, p in mdp_rows[s][a]
                ]
            for w, t, label in zip(pm.rows[v][a], routed, row):
                body = f"v{w}B {label}"
                top.append(body)
                bot.append(f"v{w}T {label}" if t == improved else body)
        if top:
            write(f"  v{v}B -> " + f"\n  v{v}B -> ".join(bot) + f"\n  v{v}T -> " + f"\n  v{v}T -> ".join(top) + "\n")
    write("}\n")
