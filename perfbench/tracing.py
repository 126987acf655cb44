"""Spans and counters recorded from outside the program.

The traced run replaces public prefplan functions, in every prefplan module
that binds them, with wrappers that record a span (name, start, end, parent)
around each call and read sizes off the results.  Spans and counts stay in
memory; ``per_layer_metrics`` turns them into the benchmark's per-layer
figures.  Nothing here runs in the untraced run.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    sizes: dict = field(default_factory=dict)
    gc_s: float = 0.0
    _stack: list = field(default_factory=list)
    _gc_start: float = 0.0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def current(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    def on_gc(self, phase, info) -> None:
        if not self._stack:
            return  # between commands: the benchmark's own collection
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["py.gc_collections"] += 1


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Per span name, the summed duration minus the time its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict = {}
    for i, s in enumerate(spans):
        own = (s.end - s.start) - covered(children.get(i, ()))
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def share_under(spans, root: str, names) -> float:
    """Share of the ``root`` spans' time covered by spans named in ``names``
    (outermost ones only) that descend from them."""
    names = frozenset(names)
    root_total, part = 0.0, 0.0
    for s in spans:
        if s.name == root:
            root_total += s.end - s.start
            continue
        if s.name not in names:
            continue
        ancestor, under_root = s.parent, False
        while ancestor >= 0:
            a = spans[ancestor].name
            if a in names:
                break
            if a == root:
                under_root = True
                break
            ancestor = spans[ancestor].parent
        if under_root:
            part += s.end - s.start
    return part / root_total if root_total else 0.0


# ---------------------------------------------------------------------------
# Wrapping prefplan
# ---------------------------------------------------------------------------


class Hook(NamedTuple):
    """One wrapped prefplan function or method (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: str | None = None  # None: count only, for functions called per rollout step
    sizes: Callable | None = None  # result -> {metric: size}; the last call's value is kept
    counts: Callable | None = None  # result -> {metric: count}; summed over calls
    calls: str | None = None  # metric that counts the calls
    merge_into: str | None = None  # called directly inside this span: open no span of its own


HOOKS = (
    Hook("prefplan.mdp", "load_mdp", "mdp.load",
         sizes=lambda m: {"mdp.states": m.n_states(), "mdp.transitions": len(m.transitions)}),
    Hook("prefplan.preferences", "load_preference_document", "preferences.load"),
    Hook("prefplan.scltl", "to_dfa", "scltl.to_dfa"),
    Hook("prefplan.prefdfa", "build_preference_dfa", "prefdfa.build", sizes=lambda pdfa: {
        "prefdfa.states": len(pdfa.states),
        "prefdfa.graph_nodes": len(pdfa.graph.nodes),
        "scltl.symbols": len(pdfa.symbols),
        "scltl.dfa_states": sum(len(d.states) for d in pdfa.component_dfas),
    }),
    Hook("prefplan.synthesis", "build_product", "synthesis.product", sizes=lambda pm: {
        "synthesis.product_states": pm.n_states(),
        "synthesis.product_rows": len(pm.transitions),
    }),
    Hook("prefplan.synthesis", "aswin_by_node", "synthesis.aswin_by_node", sizes=lambda cache: {
        "synthesis.region_states": sum(len(r.region) for r in cache.aswin_by_node.values()),
    }),
    # The per-node solves stay in the aswin_by_node span, so its self time is
    # the whole per-node solve and aswin's is every other solve.
    Hook("prefplan.synthesis", "aswin", "synthesis.aswin",
         calls="synthesis.aswin_calls", merge_into="synthesis.aswin_by_node"),
    Hook("prefplan.synthesis", "pwin", "synthesis.pwin"),
    Hook("prefplan.synthesis", "build_improvement_mdp", "synthesis.improvement_mdp", sizes=lambda im: {
        "synthesis.improving_pairs": len(im._improving_pairs),
        "synthesis.dead_states": len(im.dead),
    }),
    Hook("prefplan.synthesis", "synthesize", "synthesis.synthesize", sizes=lambda r: {
        "synthesis.spi_domain": len(r.spi.actions),
        "synthesis.sasi_domain": len(r.sasi.actions),
    }),
    Hook("prefplan.synthesis", "strategy_to_json", "synthesis.export"),
    Hook("prefplan.synthesis", "regions_to_json", "synthesis.export"),
    Hook("prefplan.synthesis", "improvement_mdp_to_dot", "synthesis.export"),
    Hook("prefplan.verify", "check_strategy_conditions", "verify.check"),
    Hook("prefplan.verify", "build_induced_chain",
         counts=lambda chain: {"verify.induced_chain_states": len(chain.states)}),
    Hook("prefplan.verify", "monte_carlo", "verify.monte_carlo",
         counts=lambda stats: {"verify.rollout_steps": sum(row.steps for row in stats.rows)}),
    Hook("prefplan.verify", "stats_to_json", "verify.export"),
    Hook("prefplan.verify", "stats_to_csv", "verify.export"),
    Hook("prefplan.synthesis", "is_improvement", calls="synthesis.is_improvement_calls"),
    Hook("prefplan.synthesis", "CompositePolicy.step", calls="synthesis.policy_step_calls"),
)


def _wrap(tracer: Tracer, fn, hook: Hook):
    def record(result):
        if hook.sizes:
            tracer.sizes.update(hook.sizes(result))
        if hook.counts:
            tracer.counts.update(hook.counts(result))
        return result

    if hook.span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if hook.calls:
                tracer.counts[hook.calls] += 1
            return record(fn(*args, **kwargs))
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook.calls:
            tracer.counts[hook.calls] += 1
        if hook.merge_into is not None and tracer.current() == hook.merge_into:
            return fn(*args, **kwargs)
        index = tracer.open(hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        return record(result)
    return traced


def install(tracer: Tracer):
    """Wrap every hooked function wherever prefplan binds it, and hooked
    methods on their class; returns a callable that restores the originals."""
    restore = []
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("prefplan")]
    for hook in HOOKS:
        class_name, _, name = hook.attr.rpartition(".")
        owner = sys.modules[hook.module]
        if class_name:
            owner = getattr(owner, class_name)
        original = getattr(owner, name)
        wrapper = _wrap(tracer, original, hook)
        owners = [owner] if class_name else [m for m in modules if getattr(m, name, None) is original]
        for o in owners:
            setattr(o, name, wrapper)
            restore.append((o, name, original))
    gc.callbacks.append(tracer.on_gc)

    def uninstall():
        gc.callbacks.remove(tracer.on_gc)
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)
    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Which end-to-end metric each layer should move, and on which workload:
#   mdp.*, preferences.load_s            -> setup_s, most on ladder-po2
#   scltl.*, prefdfa.*                   -> all three command times on alphabet-wide,
#                                           none on ladder-po2
#   synthesis.product_*, aswin*, pwin_s,
#   improvement_mdp_s, improving_pairs,
#   dead_states, region_states, *_domain -> all three command times and peak_rss_mb
#                                           on ladder-po2, next to nothing on rollout-po2
#   is_improvement_calls, policy_step_calls,
#   verify.monte_carlo_s, rollout_steps* -> simulate_s on rollout-po2
#   verify.check_s, induced_chain_states -> verify_s
#   synthesis.export_s, verify.export_s,
#   cli.artifact_bytes                   -> synth_s on ladder-po2, simulate_s on rollout-po2
#   py.gc_*                              -> every timing, most on ladder-po2
#   py.traced_peak_mb                    -> peak_rss_mb

# Time metric -> the span whose self time it reports, per round of synth +
# verify + simulate.  The aswin_by_node span holds the per-node aswin calls
# (see the aswin hook).
SPAN_METRICS = {
    "mdp.load_s": "mdp.load",
    "preferences.load_s": "preferences.load",
    "scltl.to_dfa_s": "scltl.to_dfa",
    "prefdfa.build_s": "prefdfa.build",
    "synthesis.product_s": "synthesis.product",
    "synthesis.aswin_by_node_s": "synthesis.aswin_by_node",
    "synthesis.improvement_mdp_s": "synthesis.improvement_mdp",
    "synthesis.pwin_s": "synthesis.pwin",
    "synthesis.aswin_s": "synthesis.aswin",
    "verify.check_s": "verify.check",
    "verify.monte_carlo_s": "verify.monte_carlo",
    "synthesis.export_s": "synthesis.export",
    "verify.export_s": "verify.export",
}
COUNT_METRICS = (
    "synthesis.aswin_calls",
    "synthesis.is_improvement_calls",
    "synthesis.policy_step_calls",
    "verify.rollout_steps",
    "verify.induced_chain_states",
    "py.gc_collections",
)
SIZE_METRICS = (
    "mdp.states",
    "mdp.transitions",
    "scltl.symbols",
    "scltl.dfa_states",
    "prefdfa.states",
    "prefdfa.graph_nodes",
    "synthesis.product_states",
    "synthesis.product_rows",
    "synthesis.region_states",
    "synthesis.improving_pairs",
    "synthesis.dead_states",
    "synthesis.spi_domain",
    "synthesis.sasi_domain",
)
SOLVER_SPANS = ("synthesis.aswin_by_node", "synthesis.improvement_mdp",
                "synthesis.pwin", "synthesis.aswin")
AUTOMATA_SPANS = ("prefdfa.build", "scltl.to_dfa")


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures, per round, from one traced run of ``rounds`` rounds."""
    own = self_times(tracer.spans)
    out = {}
    for metric, span in SPAN_METRICS.items():
        out[metric] = (own.get(span, 0.0) / rounds, "s")
    for metric in COUNT_METRICS:
        out[metric] = (tracer.counts[metric] / rounds, "count")
    for metric in SIZE_METRICS:
        out[metric] = (tracer.sizes.get(metric, 0), "count")
    mc_s = sum(s.end - s.start for s in tracer.spans if s.name == "verify.monte_carlo")
    steps = tracer.counts["verify.rollout_steps"]
    out["verify.rollout_steps_per_s"] = (steps / mc_s if mc_s else 0.0, "1/s")
    out["py.gc_s"] = (tracer.gc_s / rounds, "s")
    out["share.synth_solvers"] = (share_under(tracer.spans, "cli.synth", SOLVER_SPANS), "ratio")
    out["share.synth_automata"] = (share_under(tracer.spans, "cli.synth", AUTOMATA_SPANS), "ratio")
    out["share.simulate_monte_carlo"] = (
        share_under(tracer.spans, "cli.simulate", ("verify.monte_carlo",)), "ratio")
    return out
