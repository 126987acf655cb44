"""The rollout machinery as it was before the compiled per-state tables.

Test-only oracle: ``is_improvement`` re-derives both states' most-preferred
(MP) node sets from the per-node regions on every call, ``CompositePolicy``
rebuilds and re-sorts its action set on every step, and ``monte_carlo``
samples straight from ``pm.dist`` with a fresh ``random.Random`` per
episode into a list of ``EpisodeRow``s, and ``stats_to_csv`` writes through
``csv.writer``.  The compiled
versions in ``prefplan.synthesis``/``prefplan.verify`` must give the same
answers, the same RNG draws and therefore the same bytes.
"""

import csv
import io
import random

from prefplan.record import Record, field
from prefplan.synthesis import BOTTOM, ImprovementCache, ProductMdp, SynthesisResult, mp_nodes
from prefplan.verify import EpisodeRow, _episode_seed


class EpisodeStats(Record, frozen=False):
    """``prefplan.verify.EpisodeStats`` with one ``EpisodeRow`` per episode."""

    episodes: int
    seed: int
    horizon: int
    improvements_histogram: dict = field(default_factory=dict)
    final_node_distribution: dict = field(default_factory=dict)
    regressions_observed: int = 0
    truncated_episodes: int = 0
    unsatisfiable_episodes: int = 0
    rows: list = field(default_factory=list)


def z_set(cache: ImprovementCache, v: int) -> frozenset:
    """Preference-graph nodes almost-surely reachable from v."""
    return frozenset(
        node_id
        for node_id, region in cache.aswin_by_node.items()
        if v in region.region
    )


def _mp_of_state(pm: ProductMdp, v: int, cache: ImprovementCache) -> frozenset:
    return mp_nodes(pm, z_set(cache, v))


def _edge_up(pm: ProductMdp, a: int, b: int) -> bool:
    if a == BOTTOM:
        return b != BOTTOM
    if b == BOTTOM:
        return False
    return (a, b) in pm.node_edges


def is_improvement(pm: ProductMdp, v1: int, v2: int, cache: ImprovementCache) -> bool:
    """True iff v2 improves on v1: some most-preferred almost-surely winnable
    node of v2 sits strictly above one of v1's."""
    mp1 = _mp_of_state(pm, v1, cache)
    mp2 = _mp_of_state(pm, v2, cache)
    return any(_edge_up(pm, a, b) for a in mp1 for b in mp2)


class CompositePolicy:
    """Runtime policy: chain improvements while any exist, then carry out the
    almost-sure strategy for a most-preferred winnable node."""

    def __init__(self, result: SynthesisResult, mode: str = "sasi", tie_break: str = "lowest"):
        if mode not in ("spi", "sasi"):
            raise ValueError(f"unknown mode {mode!r}")
        if tie_break not in ("lowest", "uniform"):
            raise ValueError(f"unknown tie-break {tie_break!r}")
        self.result = result
        self.mode = mode
        self.tie_break = tie_break
        self.improvement_strategy = result.spi if mode == "spi" else result.sasi

    def _pick(self, actions, rng=None):
        ordered = sorted(actions)
        if self.tie_break == "uniform" and rng is not None and len(ordered) > 1:
            return ordered[rng.randrange(len(ordered))]
        return ordered[0]

    def _satisficing_actions(self, v: int):
        pm = self.result.cache.product
        cache = self.result.cache
        mp = _mp_of_state(pm, v, cache)
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
        keep = [
            a
            for a in pm.enabled(v)
            if all(t in region.region for t, p in pm.dist(v, a) if p > 0)
        ]
        return frozenset(keep) if keep else frozenset(pm.enabled(v))

    def step(self, v: int, rng=None):
        if v in self.improvement_strategy.actions:
            return self._pick(self.improvement_strategy.actions[v], rng), "improve"
        acts = self._satisficing_actions(v)
        if acts:
            return self._pick(acts, rng), "satisfice"
        pm = self.result.cache.product
        enabled = pm.enabled(v)
        return self._pick(enabled, rng), "unsatisfiable"


def monte_carlo(
    pm: ProductMdp,
    policy: CompositePolicy,
    episodes: int,
    horizon: int = None,
    seed: int = 0,
) -> EpisodeStats:
    if episodes < 1:
        raise ValueError("need at least one episode")
    if horizon is None:
        horizon = 10 * pm.n_states()
    if horizon < 1:
        raise ValueError("horizon must be positive")
    cache = policy.result.cache
    stats = EpisodeStats(episodes=episodes, seed=seed, horizon=horizon)

    for ep in range(episodes):
        ep_seed = _episode_seed(seed, ep)
        rng = random.Random(ep_seed)
        v = pm.initial
        improvements = 0
        regressions = 0
        unsatisfiable = False
        truncated = True
        steps = 0
        for _ in range(horizon):
            a, phase = policy.step(v, rng)
            if phase == "unsatisfiable":
                unsatisfiable = True
            dist = pm.dist(v, a)
            if len(dist) == 1 and dist[0][0] == v:
                truncated = False
                break
            r = rng.random()
            acc = 0.0
            nxt = dist[-1][0]
            for t, p in dist:
                acc += p
                if r < acc:
                    nxt = t
                    break
            steps += 1
            if is_improvement(pm, v, nxt, cache):
                improvements += 1
            if is_improvement(pm, nxt, v, cache):
                regressions += 1
            v = nxt
        final_node = pm.pdfa.node_of_state.get(pm.state_pairs[v][1])
        stats.rows.append(
            EpisodeRow(
                episode=ep,
                seed=ep_seed,
                steps=steps,
                improvements=improvements,
                regressions=regressions,
                final_node=final_node,
                truncated=truncated,
                unsatisfiable=unsatisfiable,
            )
        )
        stats.improvements_histogram[improvements] = (
            stats.improvements_histogram.get(improvements, 0) + 1
        )
        key = "none" if final_node is None else str(final_node)
        stats.final_node_distribution[key] = stats.final_node_distribution.get(key, 0) + 1
        stats.regressions_observed += regressions
        if truncated:
            stats.truncated_episodes += 1
        if unsatisfiable:
            stats.unsatisfiable_episodes += 1
    return stats


def stats_to_csv(stats: EpisodeStats) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["episode", "seed", "steps", "improvements", "regressions", "final_node", "truncated", "unsatisfiable"]
    )
    for row in stats.rows:
        writer.writerow(
            [
                row.episode,
                row.seed,
                row.steps,
                row.improvements,
                row.regressions,
                "" if row.final_node is None else row.final_node,
                int(row.truncated),
                int(row.unsatisfiable),
            ]
        )
    return buf.getvalue()
