"""Differential tests: the compiled rollouts against the reference oracle.

``prefplan.verify.monte_carlo`` looks each step's row up in one table
indexed by product state, filled on first visit from
``CompositePolicy.choice``, and reseeds one generator per episode;
``reference_rollout`` re-derives the improvement relation, the action set
and the cumulative sums at every step, builds a fresh generator per
episode and keeps a row per episode.  Both must make the same RNG draws,
write the same ``stats.json`` and ``episodes.csv`` bytes, the latter
compared with the ``csv.writer`` version of the writer, and give the same
rows, which ``prefplan.verify`` rebuilds from its outcome words.

Real draws land within one rounding step of a threshold almost never, so
every rollout also runs with draws that often hit the thresholds exactly,
on distributions whose running sums depend on the summation order.

``monte_carlo`` splits a large batch into episode ranges and runs all but
the first in forked children; every comparison runs on one range, on two
and on three, reached by lowering ``MIN_EPISODES_PER_PROCESS`` and faking
the CPUs ``os.sched_getaffinity`` reports.
"""

import json
import math
import os
import random
import signal
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefplan.verify as verify
import reference_rollout
from prefplan.synthesis import CompositePolicy, synthesize
from prefplan.verify import _episode_seed, monte_carlo, stats_to_csv, stats_to_json

from conftest import DIST_SHAPES, dead_start_product, random_product, render, unsatisfiable_product

BUNDLES = ["po1_b2", "po1_b4", "po2_b4"]
MODES = [(mode, tie_break) for mode in ("spi", "sasi") for tie_break in ("lowest", "uniform")]
# Running sums that differ from right-to-left and exact summation; the first
# sums to 0.9999999999999999, below one.
DECIMAL_SHAPES = [(0.7, 0.2, 0.1), (0.1, 0.2, 0.7), (0.4, 0.1, 0.2, 0.3), (0.2, 0.1, 0.3, 0.4), (1.0,)]


def boundary_random(pm):
    """A ``random.Random`` whose ``random()`` returns, half of the time, a
    running sum of some distribution of ``pm`` or the float just below it."""
    values = {math.nextafter(1.0, 0.0)}
    for dist in (dist for row in pm.mdp.rows for dist in row.values()):
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
    for v in range(result.cache.product.n_states()):
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


@contextmanager
def episode_ranges(processes):
    """``monte_carlo`` cuts every batch of at least ``processes`` episodes
    into ``processes`` ranges, all but the first run in forked children."""
    with mock.patch.object(verify, "MIN_EPISODES_PER_PROCESS", 1), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(processes))):
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
                    with mock.patch.object(reference_rollout.CompositePolicy, "_pick", counting_pick(seen)):
                        slow = reference_rollout.monte_carlo(
                            pm, reference_rollout.CompositePolicy(result, mode, tie_break), episodes, horizon, seed
                        )
                    for processes in (1, 2, 3):
                        with episode_ranges(processes):
                            fast = monte_carlo(CompositePolicy(result, mode, tie_break), episodes, horizon, seed)
                        assert json.dumps(stats_to_json(fast)) == json.dumps(stats_to_json(slow))
                        assert render(stats_to_csv, fast) == reference_rollout.stats_to_csv(slow)
                        assert list(fast.rows) == slow.rows
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


def test_csv_chunks_join_to_the_reference_bytes(po2_b4):
    # stats_to_csv writes _CSV_CHUNK lines per write; with 7, the 30 episodes
    # take five writes after the header, and no chunk edge may show.
    pm = po2_b4[4]
    result = synthesize(pm)
    slow = reference_rollout.monte_carlo(pm, reference_rollout.CompositePolicy(result), 30, None, 5)
    writes = []
    with mock.patch.object(verify, "_CSV_CHUNK", 7):
        stats_to_csv(monte_carlo(CompositePolicy(result), 30, None, 5), writes.append)
    assert len(writes) == 6
    assert "".join(writes) == reference_rollout.stats_to_csv(slow)


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


def po2_rollouts(po2_b4, policy_class=CompositePolicy, episodes=30, processes=3):
    """stats.json and episodes.csv of po2 rollouts on ``processes`` ranges."""
    policy = policy_class(synthesize(po2_b4[4]), "sasi", "uniform")
    with episode_ranges(processes):
        stats = monte_carlo(policy, episodes, None, 11)
    return json.dumps(stats_to_json(stats)), render(stats_to_csv, stats)


def test_split_rollouts_fork_and_leave_no_child(po2_b4):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(os, "fork", counted):
        split = po2_rollouts(po2_b4)
    assert len(forks) == 2
    assert_no_child_left()
    assert split == po2_rollouts(po2_b4, processes=1)


def test_rollouts_without_fork_give_the_same_bytes(po2_b4):
    attempts = []

    def failing():
        attempts.append(1)
        raise OSError("fork unavailable")

    with mock.patch.object(os, "fork", failing):
        split = po2_rollouts(po2_b4)
    assert len(attempts) == 2
    assert split == po2_rollouts(po2_b4, processes=1)


def test_a_range_whose_child_fails_is_rerun_here(po2_b4):
    parent = os.getpid()

    class FailsInChildren(CompositePolicy):
        def step(self, v, rng=None):
            if os.getpid() != parent:
                raise RuntimeError("fault in a child")
            return super().step(v, rng)

    split = po2_rollouts(po2_b4, FailsInChildren)
    assert_no_child_left()
    assert split == po2_rollouts(po2_b4, processes=1)


def test_a_range_whose_child_is_killed_is_rerun_here(po2_b4):
    # Each child marks the episodes it runs unsatisfiable, which none is, and
    # sends itself SIGKILL halfway through its range; the parent's rerun must
    # overwrite what the child wrote before it died.
    parent = os.getpid()
    halfway = {random.Random(_episode_seed(11, ep)).getstate() for ep in (15, 25)}

    class KilledInChildren(CompositePolicy):
        def step(self, v, rng=None):
            if os.getpid() == parent:
                return super().step(v, rng)
            if rng.getstate() in halfway:
                os.kill(os.getpid(), signal.SIGKILL)
            return super().step(v, rng)[0], "unsatisfiable"

    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    with mock.patch.object(os, "waitpid", recorded):
        split = po2_rollouts(po2_b4, KilledInChildren)
    assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL] * 2
    assert_no_child_left()
    assert split == po2_rollouts(po2_b4, processes=1)
    assert json.loads(split[0])["unsatisfiable_episodes"] == 0


@pytest.mark.parametrize("episode", [0, 29], ids=["parent's range", "last child's range"])
def test_a_fault_raises_here_as_without_children(po2_b4, tmp_path, episode):
    # The policy fails at the first step of one episode and notes the pid of
    # each process it fails in.  In the first range the parent fails while
    # its children run; in the last one the child fails first, and the
    # parent, rerunning that range, fails the same way.
    faults = tmp_path / "faults"
    start = random.Random(_episode_seed(11, episode)).getstate()

    class Faulty(CompositePolicy):
        def step(self, v, rng=None):
            if rng.getstate() == start:
                with open(faults, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                raise RuntimeError(f"fault at episode {episode}")
            return super().step(v, rng)

    for processes in (1, 3):
        faults.unlink(missing_ok=True)
        with pytest.raises(RuntimeError, match=f"fault at episode {episode}"):
            po2_rollouts(po2_b4, Faulty, processes=processes)
        assert_no_child_left()
        pids = [int(line) for line in faults.read_text(encoding="utf-8").split()]
        if processes == 3 and episode:
            assert len(pids) == 2 and pids[0] != os.getpid() == pids[1]
        else:
            assert pids == [os.getpid()]
