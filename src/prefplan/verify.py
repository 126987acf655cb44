"""Independent verification: value iteration, strategy condition checks, rollouts.

Value iteration is the numeric oracle for the qualitative solvers.  The
strategy checker replays a strategy's induced chain and tests the two
defining conditions directly (no improving path un-reached, no regressing
edge reachable), independent of how the strategy was synthesized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .synthesis import (
    BOTTOM,
    CompositePolicy,
    ImprovementCache,
    MdpView,
    ProductMdp,
    Strategy,
    aswin,
    pwin,
)

__all__ = [
    "ValueIterationError",
    "value_iteration",
    "InducedChain",
    "build_induced_chain",
    "StrategyReport",
    "check_strategy_conditions",
    "EpisodeStats",
    "monte_carlo",
    "stats_to_json",
    "stats_to_csv",
]


class ValueIterationError(RuntimeError):
    """Raised when the Bellman iteration fails to converge."""


def value_iteration(view: MdpView, target, max_iter: int = 100000, tol: float = 1e-12):
    """Max reachability probabilities via synchronous Bellman backups.

    Returns a dict state -> probability.  Target states are clamped to one;
    iteration stops when the sup-norm change drops below ``tol``.  Per state,
    each action's positive-probability terms are summed left to right and
    the max over actions starts at 0.0.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    target = frozenset(target)
    if not target:
        raise ValueError("target must be nonempty")
    states = list(view.states)
    index = {s: i for i, s in enumerate(states)}

    # Per non-target state with a move: one list of (successor index,
    # probability) pairs per action with a positive-probability successor.
    rows = []
    for s in states:
        if s in target:
            continue
        moves = [[(index[t], p) for t, p in view.dist(s, a) if p > 0] for a in view.enabled(s)]
        moves = [pairs for pairs in moves if pairs]
        if moves:
            rows.append((index[s], moves))

    values = [0.0] * len(states)
    for s in target:
        values[index[s]] = 1.0
    residual = 0.0
    for _ in range(max_iter):
        new = values[:]
        residual = 0.0
        for i, moves in rows:
            best = 0.0
            for pairs in moves:
                total = 0.0
                for t, p in pairs:
                    total += p * values[t]
                if total > best:
                    best = total
            new[i] = best
            residual = max(residual, abs(best - values[i]))
        values = new
        if residual < tol:
            break
    else:
        raise ValueIterationError(f"no convergence after {max_iter} iterations (residual {residual:g})")
    return dict(zip(states, values))


# ---------------------------------------------------------------------------
# Strategy condition checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedChain:
    """A strategy's induced chain as the solvers' support rows.

    Every chosen action is taken with positive probability, so a domain
    state has one row, the union of its actions' supports, with improving
    successors routed to one absorbing target ``pm.n_states()``.  Execution
    stops where the strategy is undefined: every other reached state, and
    the target, has an empty row.  Edges are marked improving/regressing by
    the improvement relation on the underlying product states.
    """

    states: frozenset  # the domain and the states its edges reach
    rows: dict  # v -> {0: [successors, improving ones as pm.n_states()]} or {}
    improving: frozenset  # of (v, v2)
    regressing: frozenset  # of (v, v2)


def build_induced_chain(pm: ProductMdp, strategy: Strategy, cache: ImprovementCache) -> InducedChain:
    cls, improves = cache.mp_class, cache.improves
    improved = pm.n_states()
    rows = {improved: {}}
    improving, regressing = set(), set()
    for v in sorted(strategy.actions):
        c, successors = cls[v], []
        for a in sorted(strategy.actions[v]):
            for w in pm.rows[v][a]:
                rows.setdefault(w, {})
                if improves[cls[w]][c]:
                    regressing.add((v, w))
                if improves[c][cls[w]]:
                    improving.add((v, w))
                    w = improved  # the chain routes the edge to the target
                successors.append(w)
        rows[v] = {0: successors}
    return InducedChain(
        states=frozenset(rows).difference((improved,)),
        rows=rows,
        improving=frozenset(improving),
        regressing=frozenset(regressing),
    )


@dataclass(frozen=True)
class StrategyReport:
    mode: str
    ok: bool
    condition_a: bool
    condition_b: bool
    regressing_edges: tuple = ()  # of (v, v2)
    stuck_states: tuple = ()  # domain states violating condition (a)
    bottom_based_improvements: tuple = ()  # improving edges that exist only via the bottom node
    integrity_errors: tuple = ()


def check_strategy_conditions(
    pm: ProductMdp,
    strategy: Strategy,
    mode: str,
    cache: ImprovementCache,
) -> StrategyReport:
    """Test the defining strategy conditions on the induced chain.

    (a) an improving transition is reached: with positive probability for
    positively-improving strategies, with probability one for almost-surely
    improving ones; (b) no reachable transition regresses.  Verified on the
    strategy's induced chain, so the check mirrors the definitions, not the
    synthesizer.
    """
    if mode not in ("spi", "sasi"):
        raise ValueError(f"unknown mode {mode!r}")
    if not strategy.actions:
        raise ValueError("strategy domain is empty")

    integrity = [
        (v, a) for v, actions in strategy.actions.items() for a in actions if a not in pm.rows[v]
    ]
    if integrity:
        return StrategyReport(mode, False, False, False, integrity_errors=tuple(sorted(integrity)))

    chain = build_induced_chain(pm, strategy, cache)
    condition_b = not chain.regressing
    target = {pm.n_states()}
    if mode == "spi":
        region = pwin(chain.rows, target).region
    else:
        # The chain's edges are product edges plus those into the target.
        region = aswin(chain.rows, target, cache.order).region
    stuck = tuple(v for v in sorted(strategy.actions) if v not in region)
    condition_a = not stuck

    bottom = tuple(
        sorted(
            (v, w)
            for v, w in chain.improving
            if cache.mp_of(v) == frozenset({BOTTOM})
        )
    )
    return StrategyReport(
        mode=mode,
        ok=condition_a and condition_b,
        condition_a=condition_a,
        condition_b=condition_b,
        regressing_edges=tuple(sorted(chain.regressing)),
        stuck_states=stuck,
        bottom_based_improvements=bottom,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo rollout
# ---------------------------------------------------------------------------


class EpisodeRow(NamedTuple):
    episode: int
    seed: int
    steps: int
    improvements: int
    regressions: int
    final_node: object  # node id or None
    truncated: bool
    unsatisfiable: bool


@dataclass
class EpisodeStats:
    episodes: int
    seed: int
    horizon: int
    improvements_histogram: dict = field(default_factory=dict)
    final_node_distribution: dict = field(default_factory=dict)
    regressions_observed: int = 0
    truncated_episodes: int = 0
    unsatisfiable_episodes: int = 0
    rows: list = field(default_factory=list)


_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1


def _episode_seed(seed: int, episode: int) -> int:
    # Splittable counter scheme: episode seeds are independent of rollout
    # order, so aggregation is order-insensitive and byte-reproducible.
    return ((seed * 0x100000001B3) ^ (episode * _MIX)) & _MASK


def monte_carlo(
    pm: ProductMdp,
    policy: CompositePolicy,
    episodes: int,
    horizon: int = None,
    seed: int = 0,
) -> EpisodeStats:
    """Seeded rollouts of a composite policy on the product MDP.

    Improvements and regressions are counted per traversed edge; episodes
    stop at the horizon (flagged truncated) or in an absorbing state.

    Per step the loop calls ``policy.step`` once and looks the picked
    action's row up in a table indexed by product state.  A state's entry is
    filled on first visit: one row (absorbing, ((threshold, successor,
    improving, regressing), ...)) per candidate action of ``policy.choice``,
    thresholds being the running sums of the probabilities.  Unless the
    state is absorbing, a step draws ``rng.random()`` once and takes the
    first successor whose threshold exceeds it (the last if none does).  One
    generator is reseeded per episode with ``_episode_seed``, the state a
    fresh ``random.Random(seed)`` starts in.  Draws and sums are those of
    sampling straight from ``pm.dist``, so ``stats.json`` and
    ``episodes.csv`` stay byte-reproducible.
    """
    if episodes < 1:
        raise ValueError("need at least one episode")
    if horizon is None:
        horizon = 10 * pm.n_states()
    if horizon < 1:
        raise ValueError("horizon must be positive")
    cache = policy.result.cache
    cls, improves = cache.mp_class, cache.improves

    def compile_row(v: int, a: int):
        dist = pm.dist(v, a)
        entries = []
        acc = 0.0
        for t, p in dist:
            acc += p
            entries.append((acc, t, improves[cls[v]][cls[t]], improves[cls[t]][cls[v]]))
        return len(dist) == 1 and dist[0][0] == v, tuple(entries)

    # v -> {candidate action: compiled row}
    table = [None] * pm.n_states()
    node_of_state, state_pairs = pm.pdfa.node_of_state, pm.state_pairs
    rng = random.Random()
    reseed, draw, step = rng.seed, rng.random, policy.step
    rows = []
    histogram = {}
    final_nodes = {}
    regressions_observed = truncated_episodes = unsatisfiable_episodes = 0

    for ep in range(episodes):
        ep_seed = _episode_seed(seed, ep)
        reseed(ep_seed)
        v = pm.initial
        improvements = 0
        regressions = 0
        unsatisfiable = False
        truncated = True
        steps = 0
        for _ in range(horizon):
            a, phase = step(v, rng)
            if phase == "unsatisfiable":
                unsatisfiable = True
            rows_at = table[v]
            if rows_at is None:
                rows_at = table[v] = {a: compile_row(v, a) for a in policy.choice(v)[0]}
            absorbing, entries = rows_at[a]
            if absorbing:
                truncated = False
                break
            r = draw()
            # Without a break the loop leaves the last successor bound.
            for threshold, nxt, improving, regressing in entries:
                if r < threshold:
                    break
            steps += 1
            improvements += improving
            regressions += regressing
            v = nxt
        final_node = node_of_state.get(state_pairs[v][1])
        rows.append(
            EpisodeRow(ep, ep_seed, steps, improvements, regressions, final_node, truncated, unsatisfiable)
        )
        histogram[improvements] = histogram.get(improvements, 0) + 1
        key = "none" if final_node is None else str(final_node)
        final_nodes[key] = final_nodes.get(key, 0) + 1
        regressions_observed += regressions
        truncated_episodes += truncated
        unsatisfiable_episodes += unsatisfiable
    return EpisodeStats(
        episodes, seed, horizon, histogram, final_nodes,
        regressions_observed, truncated_episodes, unsatisfiable_episodes, rows,
    )


def stats_to_json(stats: EpisodeStats) -> dict:
    total = stats.episodes
    return {
        "episodes": stats.episodes,
        "seed": stats.seed,
        "horizon": stats.horizon,
        "improvements_histogram": {
            str(k): v for k, v in sorted(stats.improvements_histogram.items())
        },
        "final_node_distribution": {
            k: {"count": v, "frequency": v / total}
            for k, v in sorted(stats.final_node_distribution.items())
        },
        "regressions_observed": stats.regressions_observed,
        "truncated_episodes": stats.truncated_episodes,
        "unsatisfiable_episodes": stats.unsatisfiable_episodes,
    }


_CSV_HEADER = ",".join(EpisodeRow._fields) + "\n"


def stats_to_csv(stats: EpisodeStats) -> str:
    # Every field is an int or "", which csv.writer would write unquoted.
    return _CSV_HEADER + "".join([
        f"{ep},{seed},{steps},{up},{down},{'' if node is None else node},{1 if cut else 0},{1 if unsat else 0}\n"
        for ep, seed, steps, up, down, node, cut, unsat in stats.rows
    ])
