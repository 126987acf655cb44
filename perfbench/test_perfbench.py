"""Tests of the benchmark's own pieces: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import prefplan.cli as cli  # noqa: E402
import prefplan.synthesis as synthesis  # noqa: E402

BUNDLES = run.SRC / "prefplan" / "bundles"


def _inputs(tmp_path: Path, workload: str, seed: int, name: str) -> dict:
    wl = run.Workload(workload, seed, tmp_path / name)
    code, _, err = run.run_cli(cli, wl.gridworld)
    assert code == 0, err
    return {p.name: p.read_bytes() for p in sorted((tmp_path / name / "inputs").iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = _inputs(tmp_path, workload, 7, "a")
    assert set(first) == {"gridworld.json", "preferences.json", "mdp.json"}
    assert _inputs(tmp_path, workload, 7, "b") == first


@pytest.mark.parametrize("workload", ["ladder-po2", "alphabet-wide"])
def test_other_seed_gives_other_inputs(tmp_path, workload):
    assert _inputs(tmp_path, workload, 7, "a") != _inputs(tmp_path, workload, 8, "b")


def test_alphabet_seeds_give_equal_product_sizes(tmp_path):
    from prefplan.mdp import load_mdp
    from prefplan.prefdfa import build_preference_dfa
    from prefplan.preferences import load_preference_document

    sizes = set()
    for seed in (0, 1):  # different role permutations and grid symmetries
        _inputs(tmp_path, "alphabet-wide", seed, str(seed))
        inputs = tmp_path / str(seed) / "inputs"
        atoms, spec = load_preference_document(cli._read_json(inputs / "preferences.json"))
        mdp = load_mdp(cli._read_json(inputs / "mdp.json"))
        sizes.add(synthesis.build_product(mdp, build_preference_dfa(spec, atoms)).n_states())
    assert len(sizes) == 1


def test_rescale_divides_by_the_mean_of_the_two_probes():
    nominal = run.PROBE_NOMINAL_S
    assert run.rescale(2.0, nominal, nominal) == pytest.approx(2.0)
    assert run.rescale(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    assert run.rescale(3.0, nominal, 2 * nominal) == pytest.approx(2.0)


def test_symmetries_move_cells_and_directions_together():
    n = 5
    seen = set()
    for k in range(8):
        cell, direction = workloads._symmetry(k, n)
        image = tuple(cell(c) for c in itertools.product(range(n), repeat=2))
        assert sorted(image) == sorted(itertools.product(range(n), repeat=2))
        seen.add(image)
        for (x, y), d in itertools.product(itertools.product(range(1, n - 1), repeat=2), workloads.DIRECTIONS):
            dx, dy = workloads._DELTAS[d]
            tx, ty = cell((x, y))
            ex, ey = workloads._DELTAS[direction(d)]
            assert cell((x + dx, y + dy)) == (tx + ex, ty + ey)
    assert len(seen) == 8


def test_digest_check_rejects_one_perturbed_byte(tmp_path):
    (tmp_path / "strategy_spi.json").write_text('{"mode": "spi"}\n')
    (tmp_path / "episodes.csv").write_text("episode,seed\n0,1\n")
    recorded = run.file_digests(tmp_path)
    assert run.digest_mismatches(run.file_digests(tmp_path), recorded) == []
    data = bytearray((tmp_path / "episodes.csv").read_bytes())
    data[-2] ^= 1
    (tmp_path / "episodes.csv").write_bytes(bytes(data))
    assert run.digest_mismatches(run.file_digests(tmp_path), recorded) == ["episodes.csv"]
    (tmp_path / "episodes.csv").unlink()
    assert run.digest_mismatches(run.file_digests(tmp_path), recorded) == ["episodes.csv"]


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the shared second counts once
        _span("c", 2.0, 3.0, 1),
        _span("a", 7.0, 8.0, 0),
    ]
    own = tracing.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 6.0)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(1.0)
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4), (3.5, 3.8)]) == pytest.approx(3.0)


def test_share_counts_only_outermost_spans_under_the_root():
    spans = [
        _span("cli.synth", 0.0, 10.0),
        _span("x", 1.0, 5.0, 0),
        _span("x", 2.0, 3.0, 1),  # nested in another x: already covered
        _span("other", 6.0, 9.0, 0),
        _span("x", 7.0, 8.0, 3),
        _span("cli.simulate", 10.0, 20.0),
        _span("x", 11.0, 19.0, 5),  # not under cli.synth
    ]
    assert tracing.share_under(spans, "cli.synth", ("x",)) == pytest.approx(0.5)


def _po2_mdp_and_pdfa(mdp_path: Path):
    from prefplan.mdp import load_mdp
    from prefplan.prefdfa import build_preference_dfa
    from prefplan.preferences import load_preference_document

    atoms, spec = load_preference_document(cli._read_json(BUNDLES / "po2" / "preferences.json"))
    return load_mdp(cli._read_json(mdp_path)), build_preference_dfa(spec, atoms)


def test_tracer_records_layers_and_restores_the_program(tmp_path):
    originals = (synthesis.aswin, cli.synthesize, synthesis.CompositePolicy.step)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        mdp_dir = tmp_path / "mdp"
        assert cli.main(["--out", str(mdp_dir), "gridworld", str(BUNDLES / "po2" / "gridworld_battery4.json")]) == 0
        args = [str(mdp_dir / "mdp.json"), str(BUNDLES / "po2" / "preferences.json")]
        root = tracer.open("cli.simulate")
        assert cli.main(["--out", str(tmp_path / "sim"), "simulate", *args, "--episodes", "20"]) == 0
        tracer.close(root)
    finally:
        uninstall()
    assert (synthesis.aswin, cli.synthesize, synthesis.CompositePolicy.step) == originals
    metrics = tracing.per_layer_metrics(tracer, 1)
    pm = synthesis.build_product(*_po2_mdp_and_pdfa(mdp_dir / "mdp.json"))
    assert metrics["synthesis.product_states"][0] == pm.n_states() == 107
    # One solve per nonempty node, one on the improvement MDP.
    assert metrics["synthesis.aswin_calls"][0] == len(pm.node_members) + 1
    assert metrics["synthesis.policy_step_calls"][0] >= metrics["verify.rollout_steps"][0] > 0
    names = {s.name for s in tracer.spans}
    assert {"mdp.load", "prefdfa.build", "synthesis.aswin_by_node", "verify.monte_carlo"} <= names
    # Per-node aswin calls are merged into the aswin_by_node span.
    assert all(tracer.spans[s.parent].name != "synthesis.aswin_by_node"
               for s in tracer.spans if s.name == "synthesis.aswin")
    assert 0 < metrics["share.simulate_monte_carlo"][0] < 1


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_workloads_and_tracer():
    doc = _benchmark_json()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    units = {m["name"]: m["unit"] for m in doc["per_layer"]}
    spans = tracing.per_layer_metrics(tracing.Tracer(), 1)
    extra = {"py.traced_peak_mb", "cli.artifact_bytes", "trace.overhead_s", "trace.overhead_share"}
    assert set(units) == set(spans) | extra
    assert {name: units[name] for name in spans} == {name: unit for name, (_, unit) in spans.items()}


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    child = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "rollout-po2", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_prefplan_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout-po2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert child.returncode != 0
    assert child.stdout == ""


def test_semantic_checks_reject_a_wrong_region_and_a_regressing_episode(tmp_path):
    wl = run.Workload("rollout-po2", 5, tmp_path)
    rounds = run.Rounds(cli, wl)
    assert run.run_cli(cli, wl.gridworld)[0] == 0
    wl.argv["simulate"][wl.argv["simulate"].index("--episodes") + 1] = "50"
    rounds.one_round(None)
    assert rounds.failed == 0, rounds.problems
    # 50 episodes instead of the workload's count: only the simulate digests differ.
    assert [p for p in run.check_semantics(wl, rounds.first) if "recorded digests" not in p] == []

    regions_path = wl.out["synth"] / "winning_regions.json"
    doc = json.loads(regions_path.read_text())
    node = next(n for n in doc["nodes"].values() if n["almost_sure_region"])
    node["almost_sure_region"] = node["almost_sure_region"][1:]
    regions_path.write_text(json.dumps(doc))
    csv_path = wl.out["simulate"] / "episodes.csv"
    lines = csv_path.read_text().splitlines()
    row = lines[1].split(",")
    row[4] = "1"  # regressions column
    csv_path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    problems = run.check_semantics(wl, rounds.first)
    assert any("almost-sure region differs" in p for p in problems)
    assert any("episodes with fewer than 2 improvements or a regression" in p for p in problems)
