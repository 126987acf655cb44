"""The qualitative solvers as they were before the compiled predecessor index.

Test-only oracles: ``aswin`` rebuilds its predecessor map on every pass of its
outer fixpoint through the view's ``enabled``/``dist`` callables, so it is slow
but independent of ``MdpView.rows``/``preds``.  The fast solvers in
``prefplan.synthesis`` must return the same regions and strategies.
"""

from prefplan.synthesis import MdpView, WinningRegion


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


def pwin(view: MdpView, target) -> WinningRegion:
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
    return WinningRegion(kind="positive", target=target, region=region, strategy=strategy)


def aswin(view: MdpView, target) -> WinningRegion:
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
    return WinningRegion(
        kind="almost-sure", target=target, region=frozenset(region), strategy=strategy
    )
