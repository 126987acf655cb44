"""Committed code mutants: each oracle comparison must still be able to fail.

Each case replaces one src function with a hand-written faulty twin (pytest's
``monkeypatch`` restores it) and runs a named oracle comparison on a small
fixed input, which must report a difference.  A later edit that blinds an
oracle or its test generator then fails here, not silently.
"""

import pytest

import prefplan.synthesis as synthesis
from prefplan.synthesis import ImprovementMdp, ProductMdp, WinningRegion

from conftest import recurrent_product
from test_solver_differential import check_synthesize


def decided_with_initial_q(pm):
    """``ProductMdp.decided`` that also marks every state at the initial
    product state's DFA state."""
    q0 = pm.state_pairs[pm.initial][1]
    decided = pm.pdfa.decided
    return frozenset(v for v, (_, q) in enumerate(pm.state_pairs) if q in decided or q == q0)


def one_pass_component_region(rows, win, group):
    """``_component_region`` stopped after its first drop pass."""
    region = {s for s in group if s not in win}
    allowed = {s: set() for s in region}
    preds = {s: [] for s in region}
    for s in region:
        for a, succ in rows[s].items():
            if all(t in region or t in win for t in succ):
                allowed[s].add(a)
                for t in succ:
                    preds.setdefault(t, []).append((s, a))
    return region.intersection(synthesis._layers(preds, preds.keys() - region, allowed))


def preds_without_last_action(rows, allowed, preds=synthesis._preds):
    """``_preds`` that leaves out each state's last handed action."""
    return preds(rows, ((s, list(actions)[:-1]) for s, actions in allowed))


def region_with_one_state_further(target, region, rows, dist=None):
    """``WinningRegion`` whose ``pwin`` distances put the lowest state at
    distance one a step further out."""
    if dist is not None:
        dist = dict(dist)
        dist[min(s for s, d in dist.items() if d == 1)] += 1
    return WinningRegion(target, region, rows, dist)


def unguarded_improvement_mdp(cache):
    """``build_improvement_mdp`` without the regression guard: every product
    action is kept, its improving successors routed to the target."""
    cls, improves, improved = cache.mp_class, cache.improves, cache.improved
    rows = {improved: {}}
    for v, row in cache.product.rows.items():
        up = improves[cls[v]]
        rows[v] = {a: tuple(improved if up[cls[w]] else w for w in succ) for a, succ in row.items()}
    return ImprovementMdp(cache=cache, rows=rows, dead=frozenset(v for v in range(improved) if not rows[v]))


def test_marking_the_initial_dfa_state_decided_fails_check_synthesize(monkeypatch, po2_b4):
    monkeypatch.setattr(ProductMdp, "decided", property(decided_with_initial_q))
    with pytest.raises(AssertionError):
        check_synthesize(po2_b4[4])


def test_one_pass_component_fixpoint_fails_check_synthesize(monkeypatch):
    monkeypatch.setattr(synthesis, "_component_region", one_pass_component_region)
    with pytest.raises(AssertionError):
        check_synthesize(recurrent_product())


def test_improvement_mdp_without_regression_guard_fails_check_synthesize(monkeypatch, po2_b4):
    monkeypatch.setattr(synthesis, "build_improvement_mdp", unguarded_improvement_mdp)
    with pytest.raises(AssertionError):
        check_synthesize(po2_b4[4])


def test_preds_without_last_action_fails_check_synthesize(monkeypatch, po2_b4):
    monkeypatch.setattr(synthesis, "_preds", preds_without_last_action)
    with pytest.raises(AssertionError):
        check_synthesize(po2_b4[4])


def test_pwin_distance_one_step_further_fails_check_synthesize(monkeypatch, po2_b4):
    monkeypatch.setattr(synthesis, "WinningRegion", region_with_one_state_further)
    with pytest.raises(AssertionError):
        check_synthesize(po2_b4[4])
