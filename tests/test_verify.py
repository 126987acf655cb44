"""Value iteration, strategy condition checks with negative controls, rollouts."""

import math
import tracemalloc

import pytest

import reference_solvers
from prefplan.mdp import LabeledMdp
from prefplan.prefdfa import build_preference_dfa
from prefplan.preferences import build_spec
from prefplan.scltl import parse
from prefplan.synthesis import (
    CompositePolicy,
    MdpView,
    Strategy,
    build_product,
    is_improvement,
    synthesize,
)
from prefplan.verify import (
    OUTCOME_WORDS,
    ValueIterationError,
    build_induced_chain,
    check_strategy_conditions,
    monte_carlo,
    stats_to_csv,
    stats_to_json,
    value_iteration,
)

from conftest import render, unsatisfiable_product


def test_value_iteration_examples():
    states = (0, 1, 2)

    def enabled(s):
        return [0]

    def dist_coin(s, a):
        if s == 0:
            return ((1, 0.5), (2, 0.5))
        return ((s, 1.0),)

    values = value_iteration(MdpView(states, enabled, dist_coin), {1})
    assert values[0] == pytest.approx(0.5, abs=1e-9)
    assert values[1] == 1.0
    assert values[2] == 0.0

    def dist_retry(s, a):
        if s == 0:
            return ((1, 0.5), (0, 0.5))
        return ((s, 1.0),)

    values = value_iteration(MdpView(states, enabled, dist_retry), {1})
    assert values[0] == pytest.approx(1.0, abs=1e-6)

    # A third of the mass to the target, a third back, a third to a trap.
    def dist_thirds(s, a):
        if s == 0:
            return ((1, 1 / 3), (0, 1 / 3), (2, 1 / 3))
        return ((s, 1.0),)

    values = value_iteration(MdpView(states, enabled, dist_thirds), {1})
    assert values[0] == pytest.approx(0.5, abs=1e-9)
    assert values[2] == 0.0

    # Two actions at states 0 and 3, listed in opposite orders: the max
    # picks the better one wherever it stands.
    moves = {0: (((1, 0.3), (2, 0.7)), ((1, 0.8), (2, 0.2))), 3: (((1, 0.9), (2, 0.1)), ((1, 0.4), (2, 0.6)))}

    def enabled_two(s):
        return [0, 1] if s in moves else [0]

    def dist_two(s, a):
        return moves[s][a] if s in moves else ((s, 1.0),)

    values = value_iteration(MdpView((0, 1, 2, 3), enabled_two, dist_two), {1})
    assert values[0] == 0.8
    assert values[3] == 0.9
    assert values[2] == 0.0


def test_value_iteration_reports_nonconvergence():
    states = (0, 1)

    def enabled(s):
        return [0]

    def dist(s, a):
        if s == 0:
            return ((1, 0.5), (0, 0.5))
        return ((s, 1.0),)

    with pytest.raises(ValueIterationError):
        value_iteration(MdpView(states, enabled, dist), {1}, max_iter=3)


def test_value_iteration_requires_target():
    with pytest.raises(ValueError):
        value_iteration(MdpView((0,), lambda s: [0], lambda s, a: ((0, 1.0),)), set())


# ---------------------------------------------------------------------------
# Strategy condition checks
# ---------------------------------------------------------------------------


def test_synthesized_strategies_pass(po1_b4, po2_b4):
    for atoms, spec, mdp, pdfa, pm in (po1_b4, po2_b4):
        result = synthesize(pm)
        for mode, strategy in (("spi", result.spi), ("sasi", result.sasi)):
            if not strategy.actions:
                continue
            report = check_strategy_conditions(strategy, mode, result.cache)
            assert report.ok, (mode, report)


def test_bottom_based_improvements_flagged(po1_b2):
    atoms, spec, mdp, pdfa, pm = po1_b2
    result = synthesize(pm)
    report = check_strategy_conditions(result.spi, "spi", result.cache)
    assert report.ok
    # The low-battery start guarantees nothing, so its improvements pass
    # through the virtual bottom node and are reported as such.
    assert report.bottom_based_improvements


def vacuous_mutant(pm):
    # Self-looping at a battery-dead state never improves anything.
    dead = next(
        v
        for v in range(pm.n_states())
        if pm.dist(v, pm.enabled(v)[0]) == ((v, 1.0),)
    )
    return Strategy(mode="sasi", actions={dead: frozenset(pm.enabled(dead)[:1])})


def dodging_mutant(pm, result):
    # The sasi strategy at the start plus a non-regressing East move that
    # walks away from every improvement.
    v0 = pm.initial
    east = list(pm.mdp.actions).index("East")
    assert not any(
        is_improvement(result.cache, w, v0) for w, p in pm.dist(v0, east) if p > 0
    )
    return Strategy("sasi", {v0: result.sasi.actions[v0] | {east}})


def test_mutant_vacuous_strategy_fails_condition_a(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    report = check_strategy_conditions(vacuous_mutant(pm), "sasi", result.cache)
    assert not report.ok
    assert not report.condition_a
    assert report.condition_b  # no regressions either, it just achieves nothing


def test_mutant_regressing_strategy_fails_condition_b(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    cache = result.cache
    # Find a product edge that regresses (target strictly worse than source)
    # and build a strategy that takes it.
    found = None
    for v in range(pm.n_states()):
        for a in pm.enabled(v):
            for w, p in pm.dist(v, a):
                if p > 0 and is_improvement(cache, w, v):
                    found = (v, a)
                    break
            if found:
                break
        if found:
            break
    assert found, "expected at least one regressing edge in the product"
    v, a = found
    mutant = Strategy(mode="spi", actions={v: frozenset({a})})
    report = check_strategy_conditions(mutant, "spi", cache)
    assert not report.condition_b
    assert report.regressing_edges


def test_mutant_disabled_action_is_integrity_error(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    v0 = pm.initial
    bogus = max(pm.enabled(v0)) + 1
    mutant = Strategy(mode="spi", actions={v0: frozenset({bogus})})
    report = check_strategy_conditions(mutant, "spi", result.cache)
    assert not report.ok
    assert report.integrity_errors


def test_mutant_dodging_branch_fails_condition_a_only(po1_b4):
    # A permissive candidate may include a non-regressing action that walks
    # away from every improvement.  The induced process takes it with
    # positive probability, so the almost-sure condition fails even though
    # a controller could have avoided the branch.
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    report = check_strategy_conditions(dodging_mutant(pm, result), "sasi", result.cache)
    assert not report.ok
    assert not report.condition_a
    assert report.condition_b  # the dodge never regresses, it just stalls


def test_mutant_sasi_with_stray_branch_fails(po1_b2):
    # The battery-2 West strategy is positively but not almost-surely
    # improving: as a sasi candidate it must fail condition (a).
    atoms, spec, mdp, pdfa, pm = po1_b2
    result = synthesize(pm)
    assert result.spi.actions
    report = check_strategy_conditions(result.spi, "sasi", result.cache)
    assert not report.ok
    assert not report.condition_a
    assert report.stuck_states


def test_empty_strategy_rejected(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    with pytest.raises(ValueError):
        check_strategy_conditions(Strategy("spi", {}), "spi", result.cache)


def test_induced_chain_marks(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    cache = result.cache
    chain = build_induced_chain(result.sasi, cache)
    assert chain.improving  # the West resolution improves
    assert not chain.regressing
    # Every chain row follows the strategy's actions: a domain state's one
    # row lists the successors of its chosen actions, improving ones routed
    # to the target, and every other state stops.
    improved, dist = pm.n_states(), reference_solvers.product_dist(pm)
    assert chain.rows.keys() == chain.states | {improved}
    for v, row in chain.rows.items():
        if v not in result.sasi.actions:
            assert row == {}
            continue
        assert row == {0: tuple(
            improved if is_improvement(cache, v, w) else w
            for a in sorted(result.sasi.actions[v])
            for w, _ in dist(v, a)
        )}


def improving_reach_values(pm, strategy, cache):
    """Probability of crossing an improving edge from each chain state when
    every chosen action is taken with equal probability."""
    return value_iteration(reference_solvers.chain_view(pm, strategy, cache), {pm.n_states()})


def test_condition_a_agrees_with_value_iteration(po1_b2, po1_b4, po2_b4):
    cases = []
    for bundle in (po1_b2, po1_b4, po2_b4):
        pm = bundle[4]
        result = synthesize(pm)
        for strategy in (result.spi, result.sasi):
            if strategy.actions:
                cases += [(pm, result, strategy, "spi"), (pm, result, strategy, "sasi")]
    pm = po1_b4[4]
    result = synthesize(pm)
    cases += [
        (pm, result, vacuous_mutant(pm), "sasi"),
        (pm, result, dodging_mutant(pm, result), "sasi"),
    ]
    failing = 0
    for pm, result, strategy, mode in cases:
        values = improving_reach_values(pm, strategy, result.cache)
        if mode == "spi":
            expected = tuple(v for v in sorted(strategy.actions) if values[v] <= 1e-9)
        else:
            expected = tuple(v for v in sorted(strategy.actions) if values[v] < 1 - 1e-6)
        report = check_strategy_conditions(strategy, mode, result.cache)
        assert report.stuck_states == expected, (strategy.mode, mode)
        failing += bool(expected)
    # Both mutants and the low-battery SPI strategy checked as SASI.
    assert failing >= 3


# ---------------------------------------------------------------------------
# Monte-Carlo rollouts
# ---------------------------------------------------------------------------


def coin_pipeline():
    atoms = ("h", "t")
    spec = build_spec(
        outcomes=[("heads", parse("F h", atoms)), ("tails", parse("F t", atoms))],
        statements=[("strict", "heads", "tails")],
    )
    pdfa = build_preference_dfa(spec, atoms)
    mdp = LabeledMdp(
        atoms=atoms,
        states=("flip", "sh", "st"),
        actions=("toss",),
        labels=(frozenset(), frozenset({"h"}), frozenset({"t"})),
        rows=(
            {0: ((1, 0.5), (2, 0.5))},
            {0: ((1, 1.0),)},
            {0: ((2, 1.0),)},
        ),
        initial=((0, 1.0),),
    )
    pm = build_product(mdp, pdfa)
    return spec, pdfa, pm


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda r: CompositePolicy(r, mode="greedy"), "unknown mode 'greedy'"),
        (lambda r: CompositePolicy(r, tie_break="first"), "unknown tie-break 'first'"),
        (lambda r: check_strategy_conditions(r.sasi, "greedy", r.cache), "unknown mode 'greedy'"),
        (lambda r: monte_carlo(CompositePolicy(r), episodes=0), "need at least one episode"),
        (lambda r: monte_carlo(CompositePolicy(r), episodes=1, horizon=0), "horizon must be positive"),
        (lambda r: value_iteration(MdpView((0,), lambda s: [0], lambda s, a: ((0, 1.0),)), {0}, tol=0.0),
         "tolerance must be positive"),
    ],
    ids=["policy-mode", "policy-tie-break", "check-mode", "no-episodes", "no-horizon", "tolerance"],
)
def test_bad_argument_rejected(call, message):
    result = synthesize(coin_pipeline()[2])
    with pytest.raises(ValueError) as err:
        call(result)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_monte_carlo_binomial_bound():
    spec, pdfa, pm = coin_pipeline()
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="spi")
    n = 10_000
    stats = monte_carlo(policy, episodes=n, seed=31, horizon=10)
    counts = stats.final_node_distribution
    assert set(counts) == {"0", "1"} or len(counts) == 2
    p = 0.5
    sigma = math.sqrt(p * (1 - p) / n)
    for count in counts.values():
        assert abs(count / n - p) <= 3 * sigma


def test_monte_carlo_exact_distribution_matches_chain_analysis(po1_b4):
    # Exact absorption distribution of the composite chain (obtained by
    # propagating the state distribution; the battery bounds the horizon)
    # against empirical frequencies at three sigma.
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi")
    capacity = 4
    dist = {pm.initial: 1.0}
    for _ in range(capacity + 1):
        nxt = {}
        for v, mass in dist.items():
            a, _ = policy.step(v)
            for w, p in pm.dist(v, a):
                nxt[w] = nxt.get(w, 0.0) + mass * p
        dist = nxt
    exact = {}
    for v, mass in dist.items():
        node = pdfa.node_of_state.get(pm.state_pairs[v][1])
        key = "none" if node is None else str(node)
        exact[key] = exact.get(key, 0.0) + mass
    n = 8000
    stats = monte_carlo(policy, episodes=n, seed=77)
    for key, expected in exact.items():
        observed = stats.final_node_distribution.get(key, 0) / n
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
        assert abs(observed - expected) <= max(3 * sigma, 1e-9), (key, expected, observed)


def test_monte_carlo_reproducible(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi")
    a = monte_carlo(policy, episodes=300, seed=5)
    b = monte_carlo(policy, episodes=300, seed=5)
    assert stats_to_json(a) == stats_to_json(b)
    assert render(stats_to_csv, a) == render(stats_to_csv, b)
    c = monte_carlo(policy, episodes=300, seed=6)
    assert render(stats_to_csv, a) != render(stats_to_csv, c)


def test_monte_carlo_improvements_every_episode(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi")
    stats = monte_carlo(policy, episodes=2000, seed=13)
    assert stats.regressions_observed == 0
    assert set(stats.improvements_histogram) == {1} or min(stats.improvements_histogram) >= 1


def test_monte_carlo_flags_unsatisfiable_episodes():
    pm = unsatisfiable_product()
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi")
    stats = monte_carlo(policy, episodes=10, seed=1)
    assert stats.unsatisfiable_episodes == 10
    assert stats.final_node_distribution == {"none": 10}


def test_po2_two_improvements_on_every_path(po2_b4):
    # Exhaustive version of the episode statistic: under the deterministic
    # composite policy the reachable chain is finite (battery-bounded), and
    # every path into an absorbing state crosses at least two improving
    # edges.  Sampling in the acceptance suite can then never disprove it.
    atoms, spec, mdp, pdfa, pm = po2_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi", tie_break="lowest")
    cache = result.cache

    worst = {}  # state -> minimal improvements along any path from the start
    stack = [(pm.initial, 0)]
    absorbed_minimums = []
    while stack:
        v, improvements = stack.pop()
        if worst.get(v, -1) >= 0 and improvements >= worst[v]:
            continue  # already explored with fewer or equal improvements
        worst[v] = improvements if v not in worst else min(worst[v], improvements)
        a, _ = policy.step(v)
        dist = pm.dist(v, a)
        if len(dist) == 1 and dist[0][0] == v:
            absorbed_minimums.append(improvements)
            continue
        for w, p in dist:
            if p > 0:
                gained = 1 if is_improvement(cache, v, w) else 0
                stack.append((w, improvements + gained))
    assert absorbed_minimums
    assert min(absorbed_minimums) >= 2


def test_rollout_memory_per_episode_is_a_few_words(po2_b4):
    # Rollouts and the CSV export keep no object per episode: the outcomes
    # are OUTCOME_WORDS words an episode in a mapping outside the traced
    # Python heap, which grows by no row per episode.
    policy = CompositePolicy(synthesize(po2_b4[4]), mode="sasi")

    def traced_peak(episodes):
        tracemalloc.start()
        try:
            stats_to_csv(monte_carlo(policy, episodes=episodes, seed=4), lambda text: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(100)  # the policy's per-state choices, filled on first visit
    small, large = traced_peak(5000), traced_peak(25000)
    assert (large - small) / 20000 <= 64, (small, large)
    assert monte_carlo(policy, episodes=25000, seed=4).outcomes.nbytes == 25000 * 8 * OUTCOME_WORDS


def test_csv_shape(po1_b4):
    atoms, spec, mdp, pdfa, pm = po1_b4
    result = synthesize(pm)
    policy = CompositePolicy(result, mode="sasi")
    stats = monte_carlo(policy, episodes=5, seed=2)
    lines = render(stats_to_csv, stats).strip().splitlines()
    assert lines[0].split(",") == [
        "episode",
        "seed",
        "steps",
        "improvements",
        "regressions",
        "final_node",
        "truncated",
        "unsatisfiable",
    ]
    assert len(lines) == 6
