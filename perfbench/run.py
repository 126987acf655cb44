"""End-to-end benchmark of the prefplan CLI.

    python3 perfbench/run.py --workload ladder-po2 --seed 1 --seconds 40 --trace 0

Run from the root of a prefplan checkout; the program is imported from its
``src/``.  The run generates the workload's inputs from the seed, then
repeats rounds of ``synth``, ``verify`` and ``simulate`` through
``prefplan.cli.main`` in this process for ``--seconds``: a closed loop with
one client, each command starting when the previous one has ended.  Between
rounds it times the ingestion a fresh process pays before any subcommand
(``setup_s``).  Every round's artifacts must repeat the first round's byte
for byte; the first round's must match the digests recorded for the seed and
pass the checks in ``check_semantics``.  The last line of stdout is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end timings are medians of wall times, each rescaled
by host-speed probes taken around it (see PROBE_NOMINAL_S); per-layer times
are raw wall seconds per round, to be compared within one run.  The exit
code is 1 when any check fails and 2 when the checkout holds no prefplan
sources.

With ``--trace 1`` the first half of the time runs untraced and the second
half with every public pipeline function wrapped (see ``tracing.py``) and
garbage-collector callbacks on; the difference between the two halves'
median rounds, in probe-scaled seconds, is the tracing overhead.  One last round runs under
tracemalloc alone.  Spans are written to
``.perfbench_work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("synth", "verify", "simulate")
# Artifacts whose bytes are pinned per workload and seed (the byte-
# reproducibility invariant); every other artifact must only repeat across
# the rounds of one run.
PINNED = {
    "synth": ("strategy_spi.json", "strategy_sasi.json", "winning_regions.json"),
    "simulate": ("stats.json", "episodes.csv"),
}
SETUP_MIN_SAMPLES = 10
# The host's speed drifts by tens of percent within minutes (the same
# alphabet-wide synth took 1.4 s and 1.8 s four minutes apart, in CPU time as
# in wall time), which puts the spread between runs above any useful bound.
# So a fixed piece of pure-Python work (``probe``) runs just before and just
# after every timed command and set-up sample, and each sample is reported in
# seconds at the host speed where the probe takes PROBE_NOMINAL_S: its wall
# time times PROBE_NOMINAL_S over the mean of its two probes.  A metric is the
# median of these samples.  Scaling each sample by its own probes follows the
# drift within a run too; on eight alphabet-wide runs (2-vCPU shared VM,
# Xeon) it cut the spread between runs of synth_s from 0.23 raw and 0.11
# with one scale per run to 0.04.  The probe is benchmark code, so a change
# to prefplan moves the timings and not the scale.  The raw medians are
# printed on the line before the result.
PROBE_NOMINAL_S = 0.025
SURE = 1.0 - 1e-12

# Runs in a fresh interpreter: import the CLI and ingest the workload's files.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import prefplan.cli
from prefplan.mdp import load_mdp
from prefplan.preferences import load_preference_document
with open(sys.argv[2], encoding="utf-8") as fh:
    load_mdp(json.load(fh))
with open(sys.argv[3], encoding="utf-8") as fh:
    load_preference_document(json.load(fh))
print(repr(time.perf_counter() - t0))
"""


def file_digests(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def digest_mismatches(actual: dict, expected: dict) -> list:
    """Names of pinned artifacts whose digest differs from the recorded one."""
    return sorted(name for name, digest in expected.items() if actual.get(name) != digest)


def recorded_digests(workload: str, seed: int):
    """{command: {artifact: sha256}} recorded for this workload and seed, or
    None when the seed was never recorded."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


class Workload:
    """A workload's generated inputs and one output directory per command."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed = name, seed
        inputs = workloads.generate(name, seed, work / "inputs", SRC / "prefplan" / "bundles")
        self.pref = str(inputs["preferences"])
        self.mdp = str(work / "inputs" / "mdp.json")
        self.out = {cmd: work / cmd for cmd in COMMANDS}
        self.argv = {
            "synth": ["synth", self.mdp, self.pref],
            "verify": ["verify", self.mdp, self.pref],
            "simulate": ["simulate", self.mdp, self.pref, *inputs["simulate"]],
        }
        self.gridworld = ["--out", str(work / "inputs"), "gridworld", str(inputs["config"])]


def run_cli(cli, argv) -> tuple:
    """(exit code, wall seconds, captured stderr) of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


def time_setup(wl: Workload) -> float:
    """One fresh-process sample of ``setup_s``."""
    child = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), wl.mdp, wl.pref],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the host speed where the probe takes PROBE_NOMINAL_S,
    given the probe times just before and just after the sample."""
    return seconds * PROBE_NOMINAL_S / ((before + after) / 2)


def probe() -> float:
    """Wall time of a fixed piece of dict, tuple and frozenset work, the kind
    of work prefplan does."""
    t0 = time.perf_counter()
    table = {}
    for i in range(12000):
        table[(i % 97, i)] = (i, frozenset((i % 13, i % 7)))
    groups = {}
    for (g, _), (j, fs) in sorted(table.items()):
        groups.setdefault(g, []).append(j if 3 in fs else -j)
    return time.perf_counter() - t0


class Rounds:
    """Timed rounds of synth, verify and simulate, with the per-round checks."""

    def __init__(self, cli, wl: Workload):
        self.cli, self.wl = cli, wl
        self.times = {cmd: [] for cmd in COMMANDS}  # raw wall seconds
        self.scaled = {cmd: [] for cmd in COMMANDS}  # probe-scaled seconds
        self.round_s = []  # probe-scaled seconds of each round's commands
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # command -> artifact digests of the first round
        self.artifact_bytes = 0

    def run(self, budget: float, tracer=None, between=None) -> None:
        """Run rounds until another would overrun ``budget`` seconds (at least
        one), calling ``between`` before each round."""
        start = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            if between:
                between()
            self.one_round(tracer)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(durations) > budget:
                break

    def one_round(self, tracer) -> None:
        round_s = 0.0
        size = 0
        for cmd in COMMANDS:
            argv = ["--out", str(self.wl.out[cmd]), *self.wl.argv[cmd]]
            before = probe()
            # Users run each subcommand in a fresh process: collect what the
            # previous command left so its garbage is not charged to this one.
            gc.collect()
            span = tracer.open(f"cli.{cmd}") if tracer else None
            code, elapsed, err = run_cli(self.cli, argv)
            if tracer:
                tracer.close(span)
            scaled = rescale(elapsed, before, probe())
            round_s += scaled
            self.attempted += 1
            self.times[cmd].append(elapsed)
            self.scaled[cmd].append(scaled)
            if code != 0:
                self.failed += 1
                self.problems.append(f"{cmd} exited {code}: {err.strip()[-500:]}")
                continue
            digests = file_digests(self.wl.out[cmd])
            size += sum(p.stat().st_size for p in self.wl.out[cmd].iterdir())
            first = self.first.setdefault(cmd, digests)
            if first != digests:
                self.failed += 1
                differ = sorted(n for n in first.keys() | digests.keys() if first.get(n) != digests.get(n))
                self.problems.append(f"{cmd} artifacts differ from the first round: {', '.join(differ)}")
        self.round_s.append(round_s)
        self.artifact_bytes = size


def state_id(pm, v) -> str:
    s, q = pm.state_pairs[v]
    return f"{pm.mdp.states[s]}#q{q}"


def check_semantics(wl: Workload, first: dict) -> list:
    """Checks on the first round's artifacts, outside every timed region."""
    problems = []
    expected = recorded_digests(wl.name, wl.seed)
    if expected is None:
        print(f"note: no recorded digests for {wl.name} seed {wl.seed}; "
              "only round-to-round reproducibility is checked", file=sys.stderr)
    else:
        for cmd, pinned in expected.items():
            bad = digest_mismatches(first.get(cmd, {}), pinned)
            if bad:
                problems.append(f"{cmd} artifacts differ from the recorded digests: {', '.join(bad)}")

    if "synth" not in first:
        return problems  # synth never succeeded: already counted as failed

    # Per-node almost-sure regions must be the states value iteration sends
    # to 1.  Whether a state wins almost surely depends only on the supports,
    # so the oracle spreads each action uniformly over its successors: every
    # losing state then fails with probability at least 3^-battery, far above
    # rounding error, whatever the seed's stay probability.
    from prefplan.mdp import load_mdp
    from prefplan.prefdfa import build_preference_dfa
    from prefplan.preferences import load_preference_document
    from prefplan.synthesis import MdpView, build_product
    from prefplan.verify import value_iteration

    mdp = load_mdp(json.loads(Path(wl.mdp).read_text(encoding="utf-8")))
    atoms, spec = load_preference_document(json.loads(Path(wl.pref).read_text(encoding="utf-8")))
    pm = build_product(mdp, build_preference_dfa(spec, atoms))

    def uniform(v, a):
        support = [w for w, p in pm.dist(v, a) if p > 0]
        return tuple((w, 1.0 / len(support)) for w in support)

    view = MdpView(states=tuple(range(pm.n_states())), enabled=pm.enabled, dist=uniform)
    ids = [state_id(pm, v) for v in range(pm.n_states())]
    nodes = json.loads((wl.out["synth"] / "winning_regions.json").read_text(encoding="utf-8"))["nodes"]
    if sorted(nodes) != sorted(str(n) for n in pm.node_members):
        problems.append("winning_regions.json lists other nodes than the product has")
    for node_id, members in sorted(pm.node_members.items()):
        values = value_iteration(view, members)
        sure = sorted(ids[v] for v, p in values.items() if p >= SURE)
        if sure != nodes.get(str(node_id), {}).get("almost_sure_region"):
            problems.append(f"node {node_id}: almost-sure region differs from value iteration")

    if wl.name == "rollout-po2" and "simulate" in first:
        lines = (wl.out["simulate"] / "episodes.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        imp, reg = header.index("improvements"), header.index("regressions")
        bad = [row for row in lines[1:] if int(row.split(",")[imp]) < 2 or int(row.split(",")[reg]) != 0]
        if bad:
            problems.append(f"{len(bad)} episodes with fewer than 2 improvements or a regression")
    return problems


def traced_metrics(rounds: Rounds, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics: untraced rounds for half the time, traced rounds for
    the other half, then one round under tracemalloc alone for the Python
    heap peak (tracemalloc slows allocation several-fold, so it would distort
    the spans)."""
    rounds.run(seconds / 2)
    untraced = list(rounds.round_s)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        rounds.run(seconds / 2, tracer)
    finally:
        uninstall()
    traced = rounds.round_s[len(untraced):]
    tracemalloc.start()
    try:
        rounds.one_round(None)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    metrics = tracing.per_layer_metrics(tracer, len(traced))
    metrics["py.traced_peak_mb"] = (traced_peak / 2**20, "MB")
    metrics["cli.artifact_bytes"] = (rounds.artifact_bytes, "bytes")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(untraced), "ratio")
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({
        "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
        "counts": dict(sorted(tracer.counts.items())),
        "sizes": dict(sorted(tracer.sizes.items())),
    }) + "\n", encoding="utf-8")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prefplan" / "cli.py").is_file():
        print(f"error: no prefplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prefplan.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "prefplan":
        print(f"error: imported prefplan from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = Workload(args.workload, args.seed, work)
        code, _, err = run_cli(cli, wl.gridworld)
        if code != 0:
            print(f"error: gridworld expansion failed: {err}", file=sys.stderr)
            return 1
        rounds = Rounds(cli, wl)
        if args.trace:
            metrics = traced_metrics(rounds, args.seconds, WORK / f"trace-{args.workload}-{args.seed}.json")
        else:
            # Set-up samples are spread over the run like the commands are.
            setup, setup_scaled = [], []

            def sample_setup():
                before = probe()
                setup.append(time_setup(wl))
                setup_scaled.append(rescale(setup[-1], before, probe()))

            rounds.run(args.seconds, between=lambda: [sample_setup() for _ in range(2)])
            while len(setup) < SETUP_MIN_SAMPLES:
                sample_setup()
            raw = {f"{cmd}_s": statistics.median(rounds.times[cmd]) for cmd in COMMANDS}
            raw["setup_s"] = statistics.median(setup)
            metrics = {f"{cmd}_s": (statistics.median(rounds.scaled[cmd]), "s") for cmd in COMMANDS}
            metrics["setup_s"] = (statistics.median(setup_scaled), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        semantic = check_semantics(wl, rounds.first)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A failed semantic check fails the command whose artifact it read.
    failed = min(rounds.attempted, rounds.failed + len(semantic))
    problems = rounds.problems + semantic
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    samples = {cmd: len(t) for cmd, t in rounds.times.items()}
    line = f"{args.workload} seed {args.seed}: {len(rounds.round_s)} rounds"
    if not args.trace:
        samples["setup"] = len(setup)
        line += f"; raw medians {json.dumps({k: round(v, 4) for k, v in raw.items()})}"
    print(f"{line}; samples {samples}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
