"""Differential tests: the compiled rollouts against the reference oracle.

``prefplan.verify.monte_carlo`` looks each step's row up in one table
indexed by product state, filled on first visit from
``CompositePolicy.choice``, and reseeds one generator per episode;
``reference_rollout`` re-derives the improvement relation, the action set
and the cumulative sums at every step, and builds a fresh generator per
episode.  Both must make the
same RNG draws and write the same ``stats.json`` and ``episodes.csv`` bytes,
the latter compared with the ``csv.writer`` version of the writer.

Real draws land within one rounding step of a threshold almost never, so
every rollout also runs with draws that often hit the thresholds exactly,
on distributions whose running sums depend on the summation order.
"""

import json
import math
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefplan.verify as verify
import reference_rollout
from prefplan.synthesis import CompositePolicy, synthesize
from prefplan.verify import monte_carlo, stats_to_csv, stats_to_json

from conftest import DIST_SHAPES, dead_start_product, random_product, unsatisfiable_product

BUNDLES = ["po1_b2", "po1_b4", "po2_b4"]
MODES = [(mode, tie_break) for mode in ("spi", "sasi") for tie_break in ("lowest", "uniform")]
# Running sums that differ from right-to-left and exact summation; the first
# sums to 0.9999999999999999, below one.
DECIMAL_SHAPES = [(0.7, 0.2, 0.1), (0.1, 0.2, 0.7), (0.4, 0.1, 0.2, 0.3), (0.2, 0.1, 0.3, 0.4), (1.0,)]


def boundary_random(pm):
    """A ``random.Random`` whose ``random()`` returns, half of the time, a
    running sum of some distribution of ``pm`` or the float just below it."""
    values = {math.nextafter(1.0, 0.0)}
    for dist in pm.mdp.transitions.values():
        acc = 0.0
        for _, p in dist:
            acc += p
            values.update(x for x in (acc, math.nextafter(acc, 0.0)) if x < 1.0)
    values = sorted(values)

    class BoundaryRandom(random.Random):
        def random(self):
            u = super().random()
            return values[int(2 * u * len(values))] if u < 0.5 else u

    return BoundaryRandom


def assert_same_steps(result, mode, tie_break):
    fast = CompositePolicy(result, mode, tie_break)
    slow = reference_rollout.CompositePolicy(result, mode, tie_break)
    for v in range(result.product.n_states()):
        assert fast.step(v) == slow.step(v)
        # Same action from the same draws, leaving the RNG in the same state.
        rng_fast, rng_slow = random.Random(v), random.Random(v)
        for _ in range(3):
            assert fast.step(v, rng_fast) == slow.step(v, rng_slow)
        assert rng_fast.random() == rng_slow.random()


def counting_pick(seen):
    """The oracle's ``_pick``, counting its uniform picks among several
    actions into ``seen``."""
    pick = reference_rollout.CompositePolicy._pick

    def counted(self, actions, rng=None):
        if self.tie_break == "uniform" and rng is not None and len(actions) > 1:
            seen["uniform picks"] += 1
        return pick(self, actions, rng)

    return counted


def assert_same_rollouts(pm, episodes, seed):
    """Every mode, tie-break, horizon and draw source; returns what the
    oracle met, to show what the inputs exercise: summed improvements and
    regressions, uniform picks among several actions, and episodes that are
    unsatisfiable, stop in an absorbing state, are cut at the horizon or end
    outside every graph node."""
    result = synthesize(pm)
    seen = Counter()
    for mode, tie_break in MODES:
        assert_same_steps(result, mode, tie_break)
        for rng_class in (random.Random, boundary_random(pm)):
            draws = SimpleNamespace(Random=rng_class)
            for horizon in (1, 3, None):
                with mock.patch.object(verify, "random", draws), \
                        mock.patch.object(reference_rollout, "random", draws):
                    fast = monte_carlo(pm, CompositePolicy(result, mode, tie_break), episodes, horizon, seed)
                    with mock.patch.object(reference_rollout.CompositePolicy, "_pick", counting_pick(seen)):
                        slow = reference_rollout.monte_carlo(
                            pm, reference_rollout.CompositePolicy(result, mode, tie_break), episodes, horizon, seed
                        )
                assert json.dumps(stats_to_json(fast)) == json.dumps(stats_to_json(slow))
                assert stats_to_csv(fast) == reference_rollout.stats_to_csv(slow)
                seen["improvements"] += sum(k * n for k, n in slow.improvements_histogram.items())
                seen["regressions"] += slow.regressions_observed
                seen["unsatisfiable"] += slow.unsatisfiable_episodes
                seen["absorbed"] += slow.episodes - slow.truncated_episodes
                seen["truncated"] += slow.truncated_episodes
                seen["no final node"] += sum(row.final_node is None for row in slow.rows)
    return seen


@given(
    seed=st.integers(0, 10**4),
    rollout_seed=st.integers(0, 2**32),
    shapes=st.sampled_from([DIST_SHAPES, DECIMAL_SHAPES]),
)
@settings(derandomize=True, max_examples=30, deadline=None)
def test_random_product_rollouts_match_reference(seed, rollout_seed, shapes):
    assert_same_rollouts(random_product(seed, shapes=shapes)[3], 40, rollout_seed)


@pytest.mark.parametrize("bundle", BUNDLES)
def test_bundle_rollouts_match_reference(bundle, request):
    pm = request.getfixturevalue(bundle)[4]
    seen = assert_same_rollouts(pm, 200, 7)
    # Short horizons cut episodes off; the default one lets them finish.
    assert seen["improvements"] > 0 and seen["truncated"] > 0


def test_dead_start_rollouts_match_reference():
    # Every move from the dead start state regresses.
    assert assert_same_rollouts(dead_start_product(), 50, 3)["regressions"] > 0


def test_rollout_inputs_reach_every_branch_of_the_step_table(po1_b2, po1_b4, po2_b4):
    # The fixed inputs above, plus a product whose every episode is
    # unsatisfiable and ends outside every graph node (compared only here),
    # must meet each kind of table entry, each way an episode ends and each
    # kind of CSV field.
    seen = Counter()
    for bundle in (po1_b2, po1_b4, po2_b4):
        seen += assert_same_rollouts(bundle[4], 200, 7)
    seen += assert_same_rollouts(dead_start_product(), 50, 3)
    seen += assert_same_rollouts(unsatisfiable_product(), 20, 5)
    wanted = ("uniform picks", "unsatisfiable", "absorbed", "truncated", "no final node")
    assert all(seen[k] > 0 for k in wanted), seen
