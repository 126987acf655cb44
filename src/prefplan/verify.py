"""Independent verification: value iteration, strategy condition checks, rollouts.

Value iteration is the numeric oracle for the qualitative solvers.  The
strategy checker replays a strategy's induced chain and tests the two
defining conditions directly (no improving path un-reached, no regressing
edge reachable), independent of how the strategy was synthesized.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from typing import NamedTuple

from .record import Record, field
from .scltl import CapacityError
from .synthesis import (
    MODES,
    NO_GUARANTEE,
    CompositePolicy,
    ImprovementCache,
    MdpView,
    Strategy,
    aswin,
    is_improvement,
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


class InducedChain(Record):
    """A strategy's induced chain as the solvers' support rows.

    Every chosen action is taken with positive probability, so a domain
    state has one row, the union of its actions' supports, with improving
    successors routed to the absorbing target ``cache.improved``.  Execution
    stops where the strategy is undefined: every other reached state, and
    the target, has an empty row.  Edges are marked improving/regressing by
    ``is_improvement`` on the underlying product states.
    """

    states: frozenset  # the domain and the states its edges reach
    rows: dict  # v -> {0: (successors, improving ones as cache.improved)} or {}
    improving: frozenset  # of (v, v2)
    regressing: frozenset  # of (v, v2)


def build_induced_chain(strategy: Strategy, cache: ImprovementCache) -> InducedChain:
    product_rows, improved = cache.product.rows, cache.improved
    rows = {improved: {}}
    improving, regressing = set(), set()
    for v in sorted(strategy.actions):
        successors = []
        for a in sorted(strategy.actions[v]):
            for w in product_rows[v][a]:
                rows.setdefault(w, {})
                if is_improvement(cache, w, v):
                    regressing.add((v, w))
                if is_improvement(cache, v, w):
                    improving.add((v, w))
                    w = improved  # the chain routes the edge to the target
                successors.append(w)
        rows[v] = {0: tuple(successors)}
    return InducedChain(
        states=frozenset(rows).difference((improved,)),
        rows=rows,
        improving=frozenset(improving),
        regressing=frozenset(regressing),
    )


class StrategyReport(Record):
    mode: str
    ok: bool
    condition_a: bool
    condition_b: bool
    regressing_edges: tuple = ()  # of (v, v2)
    stuck_states: tuple = ()  # domain states violating condition (a)
    bottom_based_improvements: tuple = ()  # improving edges that exist only via the bottom node
    integrity_errors: tuple = ()


def check_strategy_conditions(strategy: Strategy, mode: str, cache: ImprovementCache) -> StrategyReport:
    """Test the defining strategy conditions on the induced chain.

    (a) an improving transition is reached: with positive probability for
    positively-improving strategies, with probability one for almost-surely
    improving ones; (b) no reachable transition regresses.  Verified on the
    strategy's induced chain, so the check mirrors the definitions, not the
    synthesizer.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not strategy.actions:
        raise ValueError("strategy domain is empty")

    product_rows = cache.product.rows
    integrity = [
        (v, a) for v, actions in strategy.actions.items() for a in actions if a not in product_rows[v]
    ]
    if integrity:
        return StrategyReport(mode, False, False, False, integrity_errors=tuple(sorted(integrity)))

    chain = build_induced_chain(strategy, cache)
    condition_b = not chain.regressing
    # The chain's edges are product edges plus those into the target.  A
    # decided domain state, outside the order, loses: it never improves.
    region = (pwin if mode == "spi" else aswin)(chain.rows, {cache.improved}, cache.order).region
    stuck = tuple(v for v in sorted(strategy.actions) if v not in region)
    condition_a = not stuck

    bottom = tuple(sorted((v, w) for v, w in chain.improving if cache.mp_of(v) == NO_GUARANTEE))
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


# Each episode's outcome is OUTCOME_WORDS consecutive entries of
# ``EpisodeStats.outcomes``: steps, improvements, regressions, final node (-1
# for none) and truncated + 2 * unsatisfiable.
OUTCOME_WORDS = 5


class EpisodeStats(Record, frozen=False):
    episodes: int
    seed: int
    horizon: int
    improvements_histogram: dict = field(default_factory=dict)
    final_node_distribution: dict = field(default_factory=dict)
    regressions_observed: int = 0
    truncated_episodes: int = 0
    unsatisfiable_episodes: int = 0
    outcomes: object = field(repr=False)  # memoryview of 'q' words, OUTCOME_WORDS per episode

    @property
    def rows(self):
        """The episodes as ``EpisodeRow``s, rebuilt from ``outcomes`` and
        ``_episode_seed`` on every read."""
        seed = self.seed
        for ep, (steps, up, down, node, flags) in enumerate(zip(*[iter(self.outcomes)] * OUTCOME_WORDS)):
            yield EpisodeRow(
                ep, _episode_seed(seed, ep), steps, up, down,
                None if node < 0 else node, bool(flags & 1), bool(flags & 2),
            )


_SEED_MUL = 0x100000001B3
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1

# A batch is split across processes only if each gets at least this many
# episodes: on no workload did forking pay at 2,000 episodes.
MIN_EPISODES_PER_PROCESS = 5000


def _episode_seed(seed: int, episode: int) -> int:
    # Splittable counter scheme: episode seeds are independent of rollout
    # order, so aggregation is order-insensitive and byte-reproducible.
    return ((seed * _SEED_MUL) ^ (episode * _MIX)) & _MASK


def monte_carlo(policy: CompositePolicy, episodes: int, horizon: int = None, seed: int = 0) -> EpisodeStats:
    """Seeded rollouts of a composite policy on its product MDP.

    Improvements and regressions are counted per traversed edge; episodes
    stop at the horizon (flagged truncated) or in an absorbing state.
    ``_rollouts`` runs one contiguous range of episodes.  A batch of at least
    ``MIN_EPISODES_PER_PROCESS`` episodes per CPU this process may run on is
    cut into one range per such CPU; otherwise, or where forking is
    unavailable or unsafe, the whole batch is one range.  ``_forked_rollouts``
    runs the first range here and every other one in a forked child, each
    writing episode ``ep``'s OUTCOME_WORDS words at word ``OUTCOME_WORDS * ep``
    of one anonymous mapping of 40 bytes an episode, shared with the children
    on Unix.  Episode seeds depend on the episode index alone, so the outcomes,
    and with them ``stats.json`` and ``episodes.csv``, are the same bytes
    either way.  The totals are counted once every range is in;
    ``EpisodeStats.outcomes`` is a view of the mapping's words, from which
    ``EpisodeStats.rows`` rebuilds the rows on each read.  A batch whose
    mapping cannot be made raises ``CapacityError`` before any episode runs.
    """
    # Imported here, as ``struct`` is in ``_rollouts``: loading either
    # extension module would cost every CLI process, not only ``simulate``'s,
    # 0.3 to 0.7 ms (``python -X importtime``).
    import mmap

    if episodes < 1:
        raise ValueError("need at least one episode")
    pm = policy.result.cache.product
    if horizon is None:
        horizon = 10 * pm.n_states()
    if horizon < 1:
        raise ValueError("horizon must be positive")

    run = _rollouts(policy, horizon, seed)
    size = 8 * OUTCOME_WORDS * episodes
    try:
        shared = mmap.mmap(-1, size)
    except (OverflowError, OSError):  # a size beyond ssize_t, or more than the system will map
        raise CapacityError(f"cannot map {size} bytes for the outcomes of {episodes} episodes") from None
    processes = _processes(episodes)
    _forked_rollouts(run, [episodes * k // processes for k in range(processes + 1)], shared)
    outcomes = memoryview(shared).cast("q")

    # Word k of every episode is the column outcomes[k::OUTCOME_WORDS].
    flags = Counter(outcomes[4::OUTCOME_WORDS])
    final_nodes = Counter(outcomes[3::OUTCOME_WORDS])
    return EpisodeStats(
        episodes, seed, horizon, dict(Counter(outcomes[1::OUTCOME_WORDS])),
        {"none" if node < 0 else str(node): n for node, n in final_nodes.items()},
        sum(outcomes[2::OUTCOME_WORDS]), flags[1] + flags[3], flags[2] + flags[3], outcomes,
    )


def _rollouts(policy: CompositePolicy, horizon: int, seed: int):
    """``run(start, stop, shared)``, which writes the OUTCOME_WORDS outcome
    words of each episode ``ep`` from ``start`` to ``stop - 1`` into the
    writable buffer ``shared``, at byte ``8 * OUTCOME_WORDS * ep``.

    Per step ``run`` calls ``policy.step`` once and looks the picked action's
    row up in a table indexed by product state, shared by every call of this
    ``run``.  A state's entry is filled on first visit: one row (absorbing,
    ((threshold, successor, improving, regressing), ...)) per candidate
    action of ``policy.choice``, thresholds being the running sums of the
    probabilities.  Unless the state is absorbing, a step draws
    ``rng.random()`` once and takes the first successor whose threshold
    exceeds it (the last if none does).  One generator is reseeded per
    episode with ``_episode_seed``, the state a fresh
    ``random.Random(seed)`` starts in.  Draws and sums are those of sampling
    straight from ``pm.dist``.
    """
    import struct

    cache = policy.result.cache
    pm = cache.product
    record = struct.Struct(f"{OUTCOME_WORDS}q")  # one episode's outcome words

    def compile_row(v: int, a: int):
        dist = pm.dist(v, a)
        entries = []
        acc = 0.0
        for t, p in dist:
            acc += p
            entries.append((acc, t, is_improvement(cache, v, t), is_improvement(cache, t, v)))
        return len(dist) == 1 and dist[0][0] == v, tuple(entries)

    table = [None] * pm.n_states()  # v -> {candidate action: compiled row}

    def run(start: int, stop: int, shared) -> None:
        node_of_state, state_pairs, initial = pm.pdfa.node_of_state, pm.state_pairs, pm.initial
        rng = random.Random()
        # The C-level seed: the same state as ``rng.seed``, without its
        # Python-level type checks.
        reseed = super(random.Random, rng).seed
        draw, step, choice, pack, size = rng.random, policy.step, policy.choice, record.pack_into, record.size
        for ep in range(start, stop):
            reseed(_episode_seed(seed, ep))
            v = initial
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
                    rows_at = table[v] = {a: compile_row(v, a) for a in choice(v)[0]}
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
            final_node = node_of_state.get(state_pairs[v][1], -1)
            pack(shared, size * ep, steps, improvements, regressions, final_node, truncated + 2 * unsatisfiable)

    return run


def _processes(episodes: int) -> int:
    """How many processes share a batch of ``episodes`` episodes: at most one
    per CPU this process may run on, each with at least
    MIN_EPISODES_PER_PROCESS episodes.  One where ``fork`` or
    ``sched_getaffinity`` is missing, and where another thread runs, since a
    forked child gets only the forking thread and could inherit a lock
    another one holds."""
    most = episodes // MIN_EPISODES_PER_PROCESS
    if most < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")  # read, not imported
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(most, len(os.sched_getaffinity(0)))


def _forked_rollouts(run, bounds: list, shared) -> None:
    """Write the outcomes of the episode ranges ``bounds[k]`` to
    ``bounds[k + 1]`` into the shared mapping ``shared``: the first range
    run here, each other one in a forked child that writes into the same
    pages.

    A range whose child could not be forked or did not exit 0 is run here
    again, overwriting whatever the child wrote, so a fault of the rollouts
    raises here as it does without children.  Every child is reaped before
    this returns or raises.
    """
    children = []  # (start, stop, pid or None where fork failed), not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append((start, stop, _fork(run, start, stop, shared)))
        run(bounds[0], bounds[1], shared)
        while children:
            start, stop, pid = children[0]
            failed = pid is None or os.waitpid(pid, 0)[1] != 0
            del children[0]
            if failed:
                run(start, stop, shared)
    finally:
        # Empty unless an exception came: what the children compute is dropped.
        for _, _, pid in children:
            if pid is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(run, start: int, stop: int, shared):
    """The pid of a forked child that writes the outcomes of episodes
    ``start`` to ``stop - 1`` into ``shared`` and exits 0; None when
    ``fork`` fails."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            run(start, stop, shared)
            code = 0
        finally:
            # Skip the parent's exit handlers and buffered output.
            os._exit(code)
    return pid


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
_CSV_CHUNK = 512  # episodes per ``write``: as fast as 4096 a chunk, with less memory held


class _CsvTails(dict):
    """An episode's outcome words -> its line after the seed, formatted on first lookup."""

    def __missing__(self, outcome):
        steps, up, down, node, flags = outcome
        self[outcome] = tail = f"{steps},{up},{down},{'' if node < 0 else node},{flags & 1},{flags >> 1}\n"
        return tail


def stats_to_csv(stats: EpisodeStats, write) -> None:
    """Write ``episodes.csv`` through ``write``, _CSV_CHUNK lines at a time.

    Episodes repeat few outcomes, so each distinct one is formatted once per
    chunk; the table is emptied per chunk, so it holds at most a chunk's lines."""
    write(_CSV_HEADER)
    outcomes, base = stats.outcomes, stats.seed * _SEED_MUL  # _episode_seed's seed term
    tails = _CsvTails()
    # Every field is an int or "", which csv.writer would write unquoted.
    for start in range(0, stats.episodes, _CSV_CHUNK):
        words = outcomes[start * OUTCOME_WORDS:(start + _CSV_CHUNK) * OUTCOME_WORDS]
        tails.clear()
        write("".join([
            f"{ep},{(base ^ (ep * _MIX)) & _MASK},{tails[outcome]}"
            for ep, outcome in enumerate(zip(*[iter(words)] * OUTCOME_WORDS), start)
        ]))
