"""The qualitative solvers as they were before the compiled predecessor index.

Test-only oracles: ``aswin`` rebuilds its predecessor map on every pass of its
outer fixpoint through the view's ``enabled``/``dist`` callables, so it is slow
but independent of the support rows the fast solvers in ``prefplan.synthesis``
take.  Those must return the same regions and strategies.

The views below describe the three models the pipeline solves as closures,
rebuilt from the MDP's transitions, the preference DFA's rows, the strategy
and ``is_improvement`` alone, so they never read the rows or distributions
the pipeline builds: the product steps each positive MDP entry through the
automaton, the improvement MDP keeps the actions without a regressing
successor and routes improving ones to one target state, and the verifier's
induced chain mixes the chosen actions uniformly.
"""

from typing import NamedTuple

from prefplan.synthesis import MdpView, is_improvement


class Solved(NamedTuple):
    """A reference solver's answer, with its strategy computed up front."""

    kind: str
    target: frozenset
    region: frozenset
    strategy: dict


def product_dist(pm):
    """(v, a) -> ((v', p), ...): each positive entry of the MDP's
    distribution, its successor stepped through the preference DFA on its
    label and looked up among ``pm.state_pairs``."""
    mdp, pdfa = pm.mdp, pm.pdfa
    index = {pair: v for v, pair in enumerate(pm.state_pairs)}

    def dist(v, a):
        s, q = pm.state_pairs[v]
        return tuple(
            (index[(t, pdfa.rows[q][pdfa.position[mdp.labels[t]]])], p)
            for t, p in mdp.transitions[(s, a)]
            if p > 0
        )

    return dist


def _product_enabled(pm, v):
    return pm.mdp.enabled(pm.state_pairs[v][0])


def product_view(pm) -> MdpView:
    return MdpView(
        states=tuple(range(pm.n_states())),
        enabled=lambda v: _product_enabled(pm, v),
        dist=product_dist(pm),
    )


def improvement_view(pm, cache) -> MdpView:
    """The product's actions without a regressing successor, each improving
    successor routed to the target state ``pm.n_states()``."""
    improved, product = pm.n_states(), product_dist(pm)

    def enabled(v):
        if v == improved:
            return []
        return [
            a
            for a in _product_enabled(pm, v)
            if not any(is_improvement(pm, w, v, cache) for w, _ in product(v, a))
        ]

    def dist(v, a):
        return tuple(
            (improved if is_improvement(pm, v, w, cache) else w, p) for w, p in product(v, a)
        )

    return MdpView(states=tuple(range(improved + 1)), enabled=enabled, dist=dist)


def chain_view(pm, strategy, cache) -> MdpView:
    """The strategy's induced chain: per state one action that mixes the
    chosen actions uniformly, improving edges routed to ``pm.n_states()``."""
    improved, product = pm.n_states(), product_dist(pm)
    reached = set(strategy.actions)
    for v, actions in strategy.actions.items():
        for a in actions:
            reached.update(w for w, _ in product(v, a))

    def dist(v, a):
        actions = strategy.actions[v]
        share = 1.0 / len(actions)
        mixed: dict = {}
        for b in actions:
            for w, p in product(v, b):
                key = improved if is_improvement(pm, v, w, cache) else w
                mixed[key] = mixed.get(key, 0.0) + share * p
        return tuple(sorted(mixed.items()))

    return MdpView(
        states=tuple(sorted(reached)) + (improved,),
        enabled=lambda v: [0] if v in strategy.actions else [],
        dist=dist,
    )


def _predecessor_map(view: MdpView, allowed=None):
    preds: dict = {s: [] for s in view.states}
    for s in view.states:
        actions = allowed[s] if allowed is not None else view.enabled(s)
        for a in actions:
            for t, p in view.dist(s, a):
                if p > 0:
                    preds[t].append((s, a))
    return preds


def _distances_to(view: MdpView, target, allowed=None):
    """BFS distance over positive-probability edges into the target set."""
    preds = _predecessor_map(view, allowed)
    dist = {t: 0 for t in target}
    frontier = sorted(target)
    while frontier:
        nxt = []
        for t in frontier:
            for s, _ in preds[t]:
                if s not in dist:
                    dist[s] = dist[t] + 1
                    nxt.append(s)
        frontier = sorted(nxt)
    return dist


def pwin(view: MdpView, target) -> Solved:
    """Positive-probability reachability: backward closure over the graph.

    The strategy keeps every action with a successor strictly closer to the
    target, so any tie-break of it witnesses positive reachability.
    """
    target = frozenset(target)
    dist = _distances_to(view, target)
    region = frozenset(dist)
    strategy = {}
    for s in region - target:
        keep = frozenset(
            a
            for a in view.enabled(s)
            if any(p > 0 and dist.get(t, -1) == dist[s] - 1 for t, p in view.dist(s, a))
        )
        strategy[s] = keep
    return Solved(kind="positive", target=target, region=region, strategy=strategy)


def aswin(view: MdpView, target) -> Solved:
    """Almost-sure reachability by the alternating fixpoint.

    Repeatedly restrict to the sub-MDP whose states can still reach the
    target, dropping actions that may leak outside it; target states are
    treated as absorbing and always stay in the region.
    """
    target = frozenset(target)
    region = set(view.states)
    allowed = {
        s: (list(view.enabled(s)) if s not in target else [])
        for s in view.states
    }
    while True:
        reachable = _distances_to(view, target & region, allowed)
        bad = region - set(reachable)
        if not bad:
            break
        region -= bad
        for s in region:
            if s in target:
                continue
            allowed[s] = [
                a
                for a in allowed[s]
                if all(t in region for t, p in view.dist(s, a) if p > 0)
            ]
    dist = _distances_to(view, target & region, allowed)
    strategy = {}
    for s in sorted(region - target):
        keep = frozenset(
            a
            for a in allowed[s]
            if any(p > 0 and dist.get(t, -1) == dist[s] - 1 for t, p in view.dist(s, a))
        )
        strategy[s] = keep
    return Solved(
        kind="almost-sure", target=target, region=frozenset(region), strategy=strategy
    )
