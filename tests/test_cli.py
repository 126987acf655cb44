"""CLI subcommands: wiring, exit codes, artifact round-trips, determinism."""

import errno
import hashlib
import json
import mmap
import os
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefplan import cli
from prefplan.cli import main
from prefplan.mdp import load_mdp, mdp_to_json

from conftest import (
    BUNDLES,
    RECURRENT_PREF_DOC,
    THREE_STATE_PREF_DOC,
    WIDE_PREF_DOC,
    random_mdp,
    recurrent_mdp,
    three_state_mdp_doc,
)

PO1_PREF = str(BUNDLES / "po1" / "preferences.json")
PO1_GRID4 = str(BUNDLES / "po1" / "gridworld_battery4.json")
PO2_PREF = str(BUNDLES / "po2" / "preferences.json")
PO2_GRID4 = str(BUNDLES / "po2" / "gridworld_battery4.json")
PO1_PREF_DOC = json.loads((BUNDLES / "po1" / "preferences.json").read_text())
PO1_GRID4_DOC = json.loads((BUNDLES / "po1" / "gridworld_battery4.json").read_text())


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_compile_writes_dfa(workdir):
    formula = workdir / "formula.json"
    formula.write_text(json.dumps({"atoms": ["A"], "formula": "F A"}))
    assert run("--out", "art", "compile", str(formula)) == 0
    doc = json.loads((workdir / "art" / "dfa.json").read_text())
    assert len(doc["states"]) == 2
    assert (workdir / "art" / "dfa.dot").exists()


def test_compile_rejects_bad_formula(workdir):
    formula = workdir / "formula.json"
    formula.write_text(json.dumps({"atoms": ["A"], "formula": "!(X A)"}))
    assert run("--out", "art", "compile", str(formula)) == 1


@pytest.mark.parametrize(
    "formula",
    ["X " * 2000 + "A", "! " * 2000 + "A", "(" * 2000 + "A" + ")" * 2000],
    ids=["X", "not", "parens"],
)
def test_compile_rejects_deep_formula_in_one_line(workdir, capsys, formula):
    path = workdir / "formula.json"
    path.write_text(json.dumps({"atoms": ["A"], "formula": formula}))
    assert run("--out", "art", "compile", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: formula nested deeper than")
    assert err.count("\n") == 1


def _replace(doc, key, index, **fields):
    """``doc`` with entry ``index`` of list ``key`` updated by ``fields``;
    a field given as None is dropped."""
    entries = list(doc[key])
    merged = {**entries[index], **fields}
    entries[index] = {k: v for k, v in merged.items() if v is not None}
    return {**doc, key: entries}


def _mdp_doc(atoms=(), prob=1.0, initial=(("s", 1.0),)):
    """A one-action MDP over states s and t, each stepping to s."""
    return {
        "atoms": list(atoms),
        "states": [{"id": "s", "label": []}, {"id": "t", "label": []}],
        "actions": ["a"],
        "transitions": [
            {"from": sid, "action": "a", "to": [{"state": "s", "prob": prob}]} for sid in ("s", "t")
        ],
        "initial": [{"state": sid, "prob": p} for sid, p in initial],
    }


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("compile", [{"atoms": ["A"], "formula": "F A"}], "formula file must be a JSON object"),
        ("compile", {"atoms": ["A"]}, "formula file has no 'formula' field"),
        ("compile", {"atoms": ["A"], "formula": 7}, "formula file: 'formula' must be a string, got 7"),
        ("prefdfa", [PO1_PREF_DOC], "preference document must be a JSON object"),
        ("prefdfa", {**PO1_PREF_DOC, "preferences": [1]}, "preference entry must be a JSON object, got 1"),
        (
            "prefdfa",
            _replace(PO1_PREF_DOC, "preferences", 0, better=None),
            "strict preference has no 'better' field",
        ),
        (
            "prefdfa",
            _replace(PO1_PREF_DOC, "outcomes", 0, formula=7),
            "outcome entry: 'formula' must be a string, got 7",
        ),
        ("synth", {"atoms": [], "states": [{"label": []}], "actions": [], "transitions": [],
                   "initial": []}, "state entry has no 'id' field"),
        ("synth", {"atoms": [], "states": [1], "actions": [], "transitions": [], "initial": []},
         "state entry must be a JSON object, got 1"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": [1]}, "malformed gridworld config"),
        ("gridworld", [PO1_GRID4_DOC], "malformed gridworld config must be a JSON object"),
        *[
            ("gridworld", {k: v for k, v in PO1_GRID4_DOC.items() if k != field},
             f"malformed gridworld config has no '{field}' field")
            for field in ("width", "height", "start", "battery_capacity")
        ],
        ("gridworld", {**PO1_GRID4_DOC, "width": "7"},
         "malformed gridworld config: 'width' must be a number, got '7'"),
        ("gridworld", {**PO1_GRID4_DOC, "drift": [1]},
         "malformed gridworld config: drift entry must be a JSON object, got 1"),
        ("gridworld", {**PO1_GRID4_DOC, "start": [1, 2, 3]},
         "malformed gridworld config: 'start' must be a list of two numbers, got [1, 2, 3]"),
        *[
            ("gridworld", {**PO1_GRID4_DOC, field: float("inf")},
             "malformed gridworld config: cannot convert float infinity to integer")
            for field in ("width", "height", "battery_capacity")
        ],
        ("gridworld", {**PO1_GRID4_DOC, "start": [1.5, 1]},
         "malformed gridworld config: start at (1.5, 1) is not a grid cell"),
        ("gridworld", {**PO1_GRID4_DOC, "start": [2, 1.5]},
         "malformed gridworld config: start at (2, 1.5) is not a grid cell"),
        ("synth", _mdp_doc(prob="half"), "successor of ('s','a'): 'prob' must be a number, got 'half'"),
        ("synth", _mdp_doc(atoms=["Z"]), "MDP atoms ['Z'] not covered by preference alphabet"),
        ("synth", _mdp_doc(initial=(("s", 0.5), ("t", 0.5))),
         "product construction expects a single initial state"),
        ("synth", _mdp_doc(prob=float("nan")), "probability nan at ('s','a') is not a finite number"),
        ("synth", _mdp_doc(initial=(("s", float("nan")),)), "initial probability nan is not a finite number"),
        ("synth", _mdp_doc(initial=(("s", 1.5), ("t", -0.5))), "negative initial probability -0.5"),
        ("gridworld", {**PO1_GRID4_DOC, "battery_capacity": True},
         "malformed gridworld config: 'battery_capacity' must be a number, got True"),
        ("synth", _mdp_doc(prob=True), "successor of ('s','a'): 'prob' must be a number, got True"),
        ("synth", _mdp_doc(initial=(("s", True),)), "initial entry: 'prob' must be a number, got True"),
        ("prefdfa", {"atoms": ["a", "b"], "outcomes": [
            {"name": "A", "formula": "F a"}, {"name": "B", "formula": "F b"}, {"name": "A|B", "formula": "F (a & b)"},
        ], "preferences": [{"kind": "indifferent", "left": "A", "right": "B"}]},
         "two outcomes are named 'A|B' once indifference classes are merged"),
        ("synth", _mdp_doc(prob="1"), "successor of ('s','a'): 'prob' must be a number, got '1'"),
        ("synth", _mdp_doc(initial=(("s", "1"),)), "initial entry: 'prob' must be a number, got '1'"),
        ("synth", {"atoms": [], "states": [{"id": 0, "label": []}], "actions": ["a"],
                   "transitions": [{"from": 0, "action": "a", "to": [{"state": 0, "prob": 1.0}]}],
                   "initial": [{"state": 0, "prob": 1.0}]},
         "state entry: 'id' must be a string, got 0"),
        ("synth", _replace(_mdp_doc(atoms=("A", "B")), "states", 0, label="AB"),
         "state entry: 'label' must be a list of strings, got 'AB'"),
        *[
            ("synth", _replace(_mdp_doc(atoms=("A",)), "states", 0, label=label),
             f"state entry: 'label' must be a list of strings, got {label!r}")
            for label in ([["A"]], [{}], [1, "zz"])
        ],
        ("synth", _mdp_doc(prob=10**400), "successor of ('s','a'): 'prob' is too large for a float, got 1000"),
        ("synth", json.dumps(_mdp_doc(prob="many")).replace('"many"', "1" + "0" * 5000),
         "input.json: Exceeds the limit (4300 digits) for integer string conversion"),
        ("synth", "[" * 100_000 + "]" * 100_000,
         "input.json: nested deeper than the JSON parser's recursion limit"),
        ("gridworld", {**PO1_GRID4_DOC, "width": 3.7},
         "malformed gridworld config: 'width' must be a whole number, got 3.7"),
        ("gridworld", {**PO1_GRID4_DOC, "height": 2.5},
         "malformed gridworld config: 'height' must be a whole number, got 2.5"),
        ("gridworld", {**PO1_GRID4_DOC, "battery_capacity": 2.9},
         "malformed gridworld config: 'battery_capacity' must be a whole number, got 2.9"),
        ("gridworld", {**PO1_GRID4_DOC, "start": [True, 0]},
         "malformed gridworld config: 'start' must be a list of two numbers, got [True, 0]"),
        ("gridworld", {**PO1_GRID4_DOC, "start": ["a", "b"]},
         "malformed gridworld config: 'start' must be a list of two numbers, got ['a', 'b']"),
        ("gridworld", {**PO1_GRID4_DOC, "obstacles": [[1]]},
         "malformed gridworld config: 'obstacles' must be a list of cells, each a list of two numbers, got [[1]]"),
        ("gridworld", {**PO1_GRID4_DOC, "drift": [{"cell": [0, False], "directions": ["N"]}]},
         "malformed gridworld config: drift entry: 'cell' must be a list of two numbers, got [0, False]"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": {"A": 5}},
         "malformed gridworld config: regions: 'A' must be a list of cells, each a list of two numbers, got 5"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": {"A": [[0, 0, 0]]}},
         "malformed gridworld config: regions: 'A' must be a list of cells, each a list of two numbers, got [[0, 0, 0]]"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": {'A"b': [[1, 0]]}},
         "malformed gridworld config: invalid proposition name: 'A\"b'"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": {"true": [[1, 0]]}},
         "malformed gridworld config: proposition name collides with keyword: 'true'"),
        ("synth", _replace(_mdp_doc(), "states", 1, id="s"), "duplicate state ids: 's'\n"),
        ("synth", _replace(_mdp_doc(), "transitions", 0, action="b"), "reference to undeclared action 'b'"),
        ("synth", _replace(_mdp_doc(), "transitions", 1, **{"from": "s"}), "duplicate transition for ('s','a')"),
        ("synth", {**_mdp_doc(), "actions": ["a", "a"]}, "duplicate actions: 'a'\n"),
        ("synth", _mdp_doc(atoms=("A", "B", "A")), "duplicate atoms: 'A'\n"),
        ("synth", _mdp_doc(initial=(("s", 0.5), ("s", 0.5))), "duplicate initial states: 's'\n"),
        ("gridworld", {**PO1_GRID4_DOC, "width": 0}, "malformed gridworld config: grid dimensions must be positive"),
        ("gridworld", {**PO1_GRID4_DOC, "drift": [{"cell": [1, 3], "directions": ["North"]}]},
         "malformed gridworld config: drift cell (1, 3) is an obstacle"),
        ("gridworld", {**PO1_GRID4_DOC, "drift": [{"cell": [0, 1], "directions": []}]},
         "malformed gridworld config: drift cell (0, 1) has no directions"),
        ("prefdfa", {**PO1_PREF_DOC, "outcomes": PO1_PREF_DOC["outcomes"][:1] * 2, "preferences": []},
         "outcome names must be unique"),
        # load_mdp checks a document in one pass, in reading order: these pin
        # which of two checks names a fault first and where each sum starts.
        # A message that ends in a newline is the whole line.
        ("synth", _mdp_doc(initial=(("s", float("inf")),)), "initial distribution sums to inf\n"),
        ("synth", _mdp_doc(initial=()), "initial distribution sums to 0\n"),
        ("synth", _replace(_mdp_doc(), "transitions", 0, to=[]), "distribution at ('s','a') sums to 0.0\n"),
        ("synth", _mdp_doc(prob=0.5), "distribution at ('s','a') sums to 0.5\n"),
        ("synth", _replace(_mdp_doc(), "transitions", 0, to=[{"state": "s", "prob": 1.5}, {"state": "t", "prob": -0.5}]),
         "negative probability -0.5 at ('s','a')\n"),
        ("synth", _mdp_doc(prob=float("inf")), "probability inf at ('s','a') is not a finite number\n"),
        ("synth", _replace(_mdp_doc(), "states", 0, label=["zz"]), "state 's' labeled with undeclared atoms ['zz']\n"),
        ("synth", {**_mdp_doc(), "transitions": _mdp_doc()["transitions"][:1]}, "state 't' has no defined action\n"),
        ("gridworld", {**PO1_GRID4_DOC, "obstacles": [[5, 0]]},
         "malformed gridworld config: obstacle at (5, 0) is outside the 5x5 grid\n"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": {"A": [[1, 3]]}},
         "malformed gridworld config: region A overlaps obstacle at (1, 3)\n"),
        ("gridworld", {**PO1_GRID4_DOC, "start": [1, 3]}, "malformed gridworld config: start cell is an obstacle\n"),
        ("gridworld", {**PO1_GRID4_DOC, "drift": [{"cell": [0, 1], "directions": ["North", "Up"]}]},
         "malformed gridworld config: invalid drift direction 'Up' at (0, 1)\n"),
        ("gridworld", {**PO1_GRID4_DOC, "battery_capacity": 0},
         "malformed gridworld config: battery capacity must be at least 1\n"),
        ("gridworld", {**PO1_GRID4_DOC, "stay_probability": 1.0},
         "malformed gridworld config: stay probability must lie strictly between 0 and 1\n"),
        ("gridworld", {**PO1_GRID4_DOC, "drift": PO1_GRID4_DOC["drift"] + [{"cell": [2, 2], "directions": ["South"]}]},
         "malformed gridworld config: drift cell (2, 2) is listed twice\n"),
        # ``false`` is a keyword: it labels the rejecting sink.
        ("compile", {"atoms": ["false"], "formula": "false"},
         "proposition name collides with keyword: 'false'\n"),
        ("prefdfa", {**PO1_PREF_DOC, "atoms": PO1_PREF_DOC["atoms"] + ["false"]},
         "proposition name collides with keyword: 'false'\n"),
        ("gridworld", {**PO1_GRID4_DOC, "regions": {"false": [[1, 0]]}},
         "malformed gridworld config: proposition name collides with keyword: 'false'\n"),
    ],
    ids=[
        "compile-list", "compile-no-formula", "compile-formula-int", "pref-list",
        "pref-entry-int", "pref-strict-no-better", "pref-formula-int", "mdp-state-no-id",
        "mdp-state-int", "grid-regions-list", "grid-list", "grid-no-width", "grid-no-height",
        "grid-no-start", "grid-no-battery", "grid-width-string", "grid-drift-int",
        "grid-start-3d", "grid-width-inf", "grid-height-inf", "grid-battery-inf",
        "grid-start-col-half", "grid-start-row-half", "mdp-prob-string", "mdp-atom-uncovered", "mdp-two-initial",
        "mdp-prob-nan", "mdp-initial-nan", "mdp-initial-negative", "grid-battery-bool", "mdp-prob-bool", "mdp-initial-bool",
        "pref-class-name-taken", "mdp-prob-numeric-string", "mdp-initial-numeric-string", "mdp-id-int",
        "mdp-label-string", "mdp-label-nested", "mdp-label-object", "mdp-label-mixed", "mdp-prob-overflow", "mdp-prob-digits", "mdp-nested-deep",
        "grid-width-fraction", "grid-height-fraction", "grid-battery-fraction",
        "grid-start-bool", "grid-start-strings", "grid-obstacle-short", "grid-drift-cell-bool",
        "grid-region-int", "grid-region-cell-3d", "grid-region-not-atom", "grid-region-keyword",
        "mdp-duplicate-state", "mdp-undeclared-action", "mdp-duplicate-transition",
        "mdp-duplicate-action", "mdp-duplicate-atom", "mdp-initial-twice", "grid-width-zero",
        "grid-drift-on-obstacle", "grid-drift-no-directions", "pref-duplicate-outcome",
        "mdp-initial-inf", "mdp-initial-empty", "mdp-to-empty", "mdp-sum-half", "mdp-prob-negative",
        "mdp-prob-inf", "mdp-label-undeclared", "mdp-state-no-action",
        "grid-obstacle-outside", "grid-region-on-obstacle", "grid-start-on-obstacle", "grid-drift-direction-unknown",
        "grid-battery-zero", "grid-stay-one", "grid-drift-cell-twice",
        "compile-atom-false", "pref-atom-false", "grid-region-false",
    ],
)
def test_rejects_malformed_document_in_one_line(workdir, capsys, command, doc, message):
    (workdir / "input.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    extra = [PO1_PREF] if command == "synth" else []
    assert run("--out", "art", command, "input.json", *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_compile_capacity_exit_code(workdir):
    formula = workdir / "formula.json"
    formula.write_text(json.dumps({"atoms": ["A", "B"], "formula": "F (A & X (B & X A))"}))
    assert run("--out", "art", "--state-cap", "2", "compile", str(formula)) == 3


def test_product_over_state_cap_writes_nothing(workdir, capsys):
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    capsys.readouterr()
    assert run("--out", "art", "--state-cap", "50", "synth", "g/mdp.json", PO1_PREF) == 3
    assert capsys.readouterr().err == "error: product exceeded 50 states\n"
    assert not (workdir / "art").exists()


@pytest.mark.parametrize(
    "episodes, mmap_error",
    [(10**18, None), (100, OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)))],
    ids=["beyond-ssize_t", "no-memory"],
)
def test_simulate_beyond_memory_writes_nothing(workdir, capsys, monkeypatch, episodes, mmap_error):
    # Never a count whose mapping is made: every one of its episodes would run.
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    capsys.readouterr()
    if mmap_error is not None:
        def refuse(*args):
            raise mmap_error

        monkeypatch.setattr(mmap, "mmap", refuse)
    assert run("--out", "art", "simulate", "g/mdp.json", PO1_PREF, "--episodes", str(episodes)) == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot map {40 * episodes} bytes for the outcomes of {episodes} episodes\n"
    assert not (workdir / "art").exists()


def _small_grid(**fields):
    """A 4x4 battery-2 gridworld config: 48 states."""
    return {"width": 4, "height": 4, "start": [0, 0], "battery_capacity": 2, **fields}


@pytest.mark.parametrize(
    "config, cap, states",
    [
        (_small_grid(), "10", 48),
        (_small_grid(), "47", 48),
        (_small_grid(obstacles=[[1, 1], [2, 2]]), "41", 42),
        # 3e10 states: refused from the config alone, none enumerated.
        (_small_grid(width=10**5, height=10**5), None, 3 * 10**10),
    ],
    ids=["cap-10", "cap-one-short", "obstacles", "huge-width"],
)
def test_gridworld_over_state_cap_writes_nothing(workdir, capsys, config, cap, states):
    (workdir / "grid.json").write_text(json.dumps(config))
    cap_args = ["--state-cap", cap] if cap else []
    assert run("--out", "art", *cap_args, "gridworld", "grid.json") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: gridworld has {states} states, more than the cap of ")
    assert err.count("\n") == 1
    assert not (workdir / "art").exists()


@pytest.mark.parametrize("config, states", [(_small_grid(), 48), (_small_grid(width=4.0), 48),
                                            (_small_grid(obstacles=[[1, 1], [2, 2]]), 42)])
def test_gridworld_at_state_cap_is_built(workdir, config, states):
    (workdir / "grid.json").write_text(json.dumps(config))
    assert run("--out", "art", "--state-cap", str(states), "gridworld", "grid.json") == 0
    assert load_mdp(json.loads((workdir / "art" / "mdp.json").read_text())).n_states() == states


def test_verify_mode_without_strategy_is_an_input_error(workdir, capsys):
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    capsys.readouterr()
    assert run("--out", "v", "verify", str(workdir / "g" / "mdp.json"), PO1_PREF, "--mode", "sasi") == 1
    assert capsys.readouterr().err == "error: --mode applies only to --strategy\n"
    assert not (workdir / "v").exists()


def test_prefdfa_artifacts(workdir):
    assert run("--out", "art", "prefdfa", PO1_PREF) == 0
    doc = json.loads((workdir / "art" / "preference_dfa.json").read_text())
    assert len(doc["states"]) == 8
    assert len(doc["graph"]["nodes"]) == 4
    spec_doc = json.loads((workdir / "art" / "preference_spec.json").read_text())
    assert ["visit_B", "visit_A"] in spec_doc["strict"]


# sha256 of the ``prefdfa`` exports, recorded before the preference graph
# was derived from ``PreferenceSpec.compare``; a change here changes bytes.
PREFDFA_SHA256 = {
    "po1": {
        "preference_dfa.dot": "f4d6b8ba1d554000e1f22743eacfb95ce56e678475bb850499d8e1c2e663400c",
        "preference_dfa.json": "a754373dac1e15e16d329bd2bebefafe66ba18df8a5a11c3732406877e5e32e0",
        "preference_spec.json": "c73c78b6db143befff089e2238160cfa491fa3e6b4029a2cfbf95379d94e691a",
    },
    "po2": {
        "preference_dfa.dot": "6fb3594f7405ec7ad769e3b7a91b3c6d2c33b49c827a5b29b258f798a79e7e5b",
        "preference_dfa.json": "8b9b4ab603deb75b6dd58ee512e22089dea7b9d2010c17b788fc756c4715774d",
        "preference_spec.json": "df8e346414371edb7fa6eb92b6a25d3c5241212329666785a9ed784edcfc047d",
    },
}


# sha256 of the exports over the ten-atom ``WIDE_PREF_DOC`` (189 x 1024
# transitions), recorded before the automata were built by letter class.
WIDE_SHA256 = {
    "prefdfa": {
        "preference_dfa.dot": "102eb7388fdb765e7a4a964fbad2931a3bf93a76b552d937f6ff715a67b11abf",
        "preference_dfa.json": "9a6da1a82e997ba7fe43ca73407bfdc26f4a46cffdbaee750e64c3018c4826b8",
        "preference_spec.json": "ccf5c5f4b91f9a7faa09bb7c70bb4b9aafa0a17b186923a9842d517533a691f1",
    },
    "compile": {
        "dfa.dot": "cd68e917050083193f3e18e40ea292980159dbb3966b0871c8dbfe0c3999a9fc",
        "dfa.json": "40008a254555e25a0122acec337aac87df31bbf07adb9669c457cffc66decb9e",
    },
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("bundle", sorted(PREFDFA_SHA256))
def test_prefdfa_exports_pinned(workdir, bundle):
    assert run("--out", "art", "prefdfa", str(BUNDLES / bundle / "preferences.json")) == 0
    assert _digests(workdir / "art", PREFDFA_SHA256[bundle]) == PREFDFA_SHA256[bundle]


def test_wide_alphabet_exports_pinned(workdir):
    pref, formula = workdir / "wide.json", workdir / "formula.json"
    pref.write_text(json.dumps(WIDE_PREF_DOC))
    formula.write_text(json.dumps({"atoms": WIDE_PREF_DOC["atoms"], "formula": "F (a & X F b)"}))
    assert run("--out", "art", "prefdfa", str(pref)) == 0
    assert run("--out", "art", "compile", str(formula)) == 0
    for command, pinned in WIDE_SHA256.items():
        assert _digests(workdir / "art", pinned) == pinned, command


@pytest.mark.parametrize("command", ["synth", "verify", "simulate"])
def test_planning_leaves_wide_rows_unbuilt(workdir, monkeypatch, command):
    # The product steps the preference DFA only on the letters the MDP
    # emits, so no planning command builds its 189 x 1024 successor rows.
    built, cli_build = [], cli.build_preference_dfa

    def build(*args, **kwargs):
        built.append(cli_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_preference_dfa", build)
    mdp = random_mdp(3, atoms=WIDE_PREF_DOC["atoms"], label_density=0.3)
    (workdir / "mdp.json").write_text(json.dumps(mdp_to_json(mdp)))
    (workdir / "wide.json").write_text(json.dumps(WIDE_PREF_DOC))
    extra = ["--episodes", "20"] if command == "simulate" else []
    assert run("--out", "art", command, "mdp.json", "wide.json", *extra) == 0
    (pdfa,) = built
    assert len(pdfa.symbols) == 1024
    assert "rows" not in pdfa.__dict__


# sha256 of the synth, verify and simulate (300 episodes, default seed) exports
# on the bundled gridworlds, recorded before each model handed the solvers its
# own support rows; a change here changes bytes.
PIPELINE_SHA256 = {
    "po1/gridworld_battery2.json": {
        "episodes.csv": "1b47e78c701129346abe9ca0a6fbc29c04463fa6b2d0c1f8a0e9c9cd3ebd3247",
        "improvement_mdp.dot": "5a5fa70fd84af9655d20de4909c1e81d41059efa9a31ea7242649c2a47d8ca3e",
        "stats.json": "81d8f052ebdd9e268dd764e6327c6a4064de28e36127dcbe9f61a1f798326689",
        "strategy_sasi.json": "867356d949c722a85589071fbe1d20c1c841693549d4ced970f081e19c309ac2",
        "strategy_spi.json": "bdbce6938afb5e3cf5354abfe3f45faee670d96295206dc1daf0a0f7ab581413",
        "verify_report.json": "2b0bdcedd8e53b2cd4e821aeed4c0fd7696a19b42ac3404db9acca7dffd0e356",
        "winning_regions.json": "9587edb7b33d386d31b7a28ec9f1f30f60e82e259ed45cb37bfda57a3d411301",
    },
    "po1/gridworld_battery4.json": {
        "episodes.csv": "f5b3f86e81cc90b4e08fd13ba596aeefb9b1f15e03fff2a71716e9ffddb7911b",
        "improvement_mdp.dot": "2f528be52fd2794a164f43f054306e3d9cda13a6e5206b90f15bfcef1b622a3e",
        "stats.json": "21884fb91b58a4159affcafa3f96a88af06d744b9199c07f1bcf214cc394953f",
        "strategy_sasi.json": "8ed08285fc827fbd64455233a30b5b75a49ca56afe3b9ef147cedd62984a2e21",
        "strategy_spi.json": "0ea16ac626ad353ea30807c3028d508e05ff0465280b9ee06bbb9c2ff8c991c0",
        "verify_report.json": "6b3e058d22ae2ff1a4e29cbfccfd26b72f57dcea766ab760d244833213366ad0",
        "winning_regions.json": "d91b438546e192bd5c1b374181d98b261c5f2ed000345bf679146a515358da79",
    },
    "po2/gridworld_battery4.json": {
        "episodes.csv": "81320c52415cd803eb655a4ebf9bf2dafde6a2677416f712917361bac4db4cf8",
        "improvement_mdp.dot": "52e7ba0670149ea2d6256de948f6cd4440ec51640efaa81252f5b78a6e806670",
        "stats.json": "217d0878d2bb1a4dc566919419ff015f2eb5cbcedc0d71c7b41a67e07821b0a3",
        "strategy_sasi.json": "9e9c7335df4de0b56f14b2cf7cb08f4680d8a078de4d2f75b9fb2f89f6094b54",
        "strategy_spi.json": "07c38a597c8ae23313a6c7c236ecb0ca8ecbca885a0d74eb243911b34a685ec9",
        "verify_report.json": "88ed922863847e296c18ba5973bb96fcee9f1cf574800088d18f785e3dab599b",
        "winning_regions.json": "97da909bd1a265b90daaf73540113147379e237eb3ac162be52eebb2e19628b3",
    },
}


@pytest.mark.parametrize("grid", sorted(PIPELINE_SHA256))
def test_pipeline_exports_pinned(workdir, grid):
    pref = str(BUNDLES / grid.split("/")[0] / "preferences.json")
    assert run("--out", "g", "gridworld", str(BUNDLES / grid)) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "art", "synth", mdp_path, pref) == 0
    assert run("--out", "art", "verify", mdp_path, pref) == 0
    assert run("--out", "art", "simulate", mdp_path, pref, "--episodes", "300") == 0
    assert _digests(workdir / "art", PIPELINE_SHA256[grid]) == PIPELINE_SHA256[grid]


def _recurrent_inputs(workdir):
    (workdir / "recurrent.json").write_text(json.dumps(mdp_to_json(recurrent_mdp())))
    (workdir / "pq.json").write_text(json.dumps(RECURRENT_PREF_DOC))
    return "recurrent.json", "pq.json"


# sha256 of the synth, verify and simulate (300 episodes, default seed)
# exports on ``conftest.recurrent_mdp`` under ``RECURRENT_PREF_DOC``, recorded
# while each multi-state component was solved on a copy of its rows; a change
# here changes bytes.
RECURRENT_SHA256 = {
    "episodes.csv": "88128e7f1c1f06c92900c355f805dbb3d0a4481f23d9d2bdd5dfa865c8646972",
    "improvement_mdp.dot": "879876991efa22c75e2adaace45211066f4f1cd1c106215265dddaee62e33a59",
    "stats.json": "1bacff1c7508f0ccb78684b1c4006dfc0afea5d97af094d82485869ed1fa072b",
    "strategy_sasi.json": "6a9869b755ab14bb6fb78474c69a74f4c4098cce283dcbc6020ccf9287dde20d",
    "strategy_spi.json": "54ba3b14209eafd881f1ed5ac409688cbbebe3222dfd947cfa628139f2fef03b",
    "verify_report.json": "a12d978f042b9bf11364d9853f01eb7d24d2e6001061d296765b67c3a0b65cc9",
    "winning_regions.json": "7a04673662d79af55bad18ae95e5687ae9203a2d23f34d6576642cc3fafcb9c6",
}


def test_recurrent_pipeline_exports_pinned(workdir):
    inputs = _recurrent_inputs(workdir)
    assert run("--out", "art", "synth", *inputs) == 0
    assert run("--out", "art", "verify", *inputs) == 0
    assert run("--out", "art", "simulate", *inputs, "--episodes", "300") == 0
    assert _digests(workdir / "art", RECURRENT_SHA256) == RECURRENT_SHA256


# sha256 of ``gridworld --dot`` on the bundled configs, recorded while the
# MDP kept one (state, action)-keyed distribution map; a change here changes bytes.
GRIDWORLD_SHA256 = {
    "po1/gridworld_battery2.json": {
        "mdp.dot": "f57754782b4e52f0110022f0751d2b4025f14236117cebc8ef3dc2fc6f37e648",
        "mdp.json": "3473ccfb9c79a08bfc087bfb4d792800c228b3f34ef4e875930db566e7daa404",
    },
    "po1/gridworld_battery4.json": {
        "mdp.dot": "25833b0fd3cd10c5257a7d34d3b991ad300bd79f4b24c5a294706cb19d1cc012",
        "mdp.json": "4a1f26d2636970a0f90f3c0cbe53dbcba86071c7cb00ddd09a85dbdd2bea1449",
    },
    "po2/gridworld_battery4.json": {
        "mdp.dot": "70c054ef07772a1a47c40048e3ca453beb4e8f2cc7a4af6150da12b7c8462747",
        "mdp.json": "2ba15ecb9d30a453a53653a040f27381a5442968207d2197c4c693af219e2366",
    },
}


@pytest.mark.parametrize("grid", sorted(GRIDWORLD_SHA256))
def test_gridworld_exports_pinned(workdir, grid):
    assert run("--out", "g", "gridworld", "--dot", str(BUNDLES / grid)) == 0
    assert _digests(workdir / "g", GRIDWORLD_SHA256[grid]) == GRIDWORLD_SHA256[grid]


def test_transitions_listed_in_reverse_give_the_same_artifacts(workdir):
    # A document may list its transitions in any order: each state's row
    # holds its actions ascending, so nothing downstream sees the order.
    assert run("--out", "g", "gridworld", PO2_GRID4) == 0
    doc = json.loads((workdir / "g" / "mdp.json").read_text())
    reverse = {**doc, "transitions": doc["transitions"][::-1]}
    (workdir / "reverse.json").write_text(json.dumps(reverse))
    mdp = load_mdp(reverse)
    assert mdp.rows == load_mdp(doc).rows
    assert all(list(row) == sorted(row) for row in mdp.rows)
    assert run("--out", "a", "synth", "g/mdp.json", PO2_PREF) == 0
    assert run("--out", "b", "synth", "reverse.json", PO2_PREF) == 0
    names = sorted(path.name for path in (workdir / "a").iterdir())
    assert names == ["improvement_mdp.dot", "strategy_sasi.json", "strategy_spi.json", "winning_regions.json"]
    assert _digests(workdir / "b", names) == _digests(workdir / "a", names)


def _shuffled(doc, seed):
    """The MDP document with its states, its transitions and each ``to`` list
    in a seeded random order."""
    rng = random.Random(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    transitions = [{**t, "to": shuffled(t["to"])} for t in doc["transitions"]]
    return {**doc, "states": shuffled(doc["states"]), "transitions": shuffled(transitions)}


def _strategy_content(path):
    """A strategy file's mode, entry map and undefined states, without their order."""
    doc = json.loads(path.read_text())
    entries = {entry["state"]: entry["actions"] for entry in doc["entries"]}
    assert len(entries) == len(doc["entries"])
    return doc["mode"], entries, set(doc["undefined_states"])


def _redrawn(doc, seed):
    """The MDP document with the probabilities of each ``to`` list drawn
    anew: every positive one stays positive, every zero stays zero, and
    each list still sums to one."""
    rng = random.Random(seed)
    transitions = []
    for t in doc["transitions"]:
        weights = [rng.uniform(0.05, 1.0) if successor["prob"] > 0 else 0.0 for successor in t["to"]]
        total = sum(weights)
        to = [{**successor, "prob": w / total} for successor, w in zip(t["to"], weights)]
        transitions.append({**t, "to": to})
    return {**doc, "transitions": transitions}


def _supports(rows):
    """Per MDP state, each action's successors, without their probabilities."""
    return [{a: [t for t, _ in dist] for a, dist in row.items()} for row in rows]


def _model_inputs(workdir, model):
    """(MDP path, preference path) of a pipeline bundle or the recurrent model."""
    if model == "recurrent":
        return _recurrent_inputs(workdir)
    assert run("--out", "g", "gridworld", str(BUNDLES / model)) == 0
    return "g/mdp.json", str(BUNDLES / model.split("/")[0] / "preferences.json")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("model", [*sorted(PIPELINE_SHA256), "recurrent"])
def test_solutions_do_not_depend_on_document_order(workdir, model, seed):
    # The document order fixes the state numbering, so the SCC order and
    # each component's member order, but no region or strategy content.
    # Strategy entries follow the product numbering, so only their order
    # may change.
    mdp_path, pref = _model_inputs(workdir, model)
    doc = json.loads((workdir / mdp_path).read_text())
    (workdir / "shuffled.json").write_text(json.dumps(_shuffled(doc, seed)))
    assert run("--out", "a", "synth", mdp_path, pref) == 0
    assert run("--out", "b", "synth", "shuffled.json", pref) == 0
    names = ["winning_regions.json"]
    assert _digests(workdir / "b", names) == _digests(workdir / "a", names)
    for name in ("strategy_spi.json", "strategy_sasi.json"):
        assert _strategy_content(workdir / "b" / name) == _strategy_content(workdir / "a" / name), name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("model", [*sorted(PIPELINE_SHA256), "recurrent"])
def test_solutions_depend_only_on_supports(workdir, model, seed):
    # Qualitative reachability reads only which successors have positive
    # probability: redrawn probabilities over the same supports must give
    # the pinned regions, strategies and verify report byte for byte.
    mdp_path, pref = _model_inputs(workdir, model)
    doc = json.loads((workdir / mdp_path).read_text())
    redrawn = _redrawn(doc, seed)
    original, drawn = load_mdp(doc).rows, load_mdp(redrawn).rows
    assert drawn != original and _supports(drawn) == _supports(original)
    (workdir / "redrawn.json").write_text(json.dumps(redrawn))
    assert run("--out", "b", "synth", "redrawn.json", pref) == 0
    assert run("--out", "b", "verify", "redrawn.json", pref) == 0
    names = ["strategy_sasi.json", "strategy_spi.json", "verify_report.json", "winning_regions.json"]
    pinned = RECURRENT_SHA256 if model == "recurrent" else PIPELINE_SHA256[model]
    assert _digests(workdir / "b", names) == {name: pinned[name] for name in names}


# sha256 of the simulate exports (300 episodes, default seed) in the modes
# the pipeline pins above leave out, recorded while every rollout step still
# called ``CompositePolicy.step``; keyed by the extra simulate arguments.  No
# state of po1 battery 4 has two candidate actions, so its uniform runs
# repeat the default bytes.
SIMULATE_VARIANT_SHA256 = {
    "po1/gridworld_battery2.json": {
        ("--mode", "spi", "--tie-break", "uniform"): {
            "episodes.csv": "6bf075ce4b95f662f4a6f395e1c7aee83095282196713e7123acba61e09ff5c5",
            "stats.json": "86553d6b8fceaf56a1e132f45922d4246dde03883c492821a3cbf26758c174b1",
        },
        ("--mode", "sasi", "--tie-break", "uniform"): {
            "episodes.csv": "4d4df5d1bf438828e8d81de93726365a70610eec3f7f03f793f4b0a33cbdfe60",
            "stats.json": "ffaa2099b3efda1c9809ee0f37d75f2d5d63a307a8d57330adc5057f98df5d45",
        },
        ("--horizon", "3"): {
            "episodes.csv": "1b47e78c701129346abe9ca0a6fbc29c04463fa6b2d0c1f8a0e9c9cd3ebd3247",
            "stats.json": "289e0bcdaa0dfad60396220b48b98f303ae54822a9627b27ea5b8c489b1be128",
        },
    },
    "po1/gridworld_battery4.json": {
        ("--mode", "spi", "--tie-break", "uniform"): {
            "episodes.csv": "f5b3f86e81cc90b4e08fd13ba596aeefb9b1f15e03fff2a71716e9ffddb7911b",
            "stats.json": "21884fb91b58a4159affcafa3f96a88af06d744b9199c07f1bcf214cc394953f",
        },
        ("--mode", "sasi", "--tie-break", "uniform"): {
            "episodes.csv": "f5b3f86e81cc90b4e08fd13ba596aeefb9b1f15e03fff2a71716e9ffddb7911b",
            "stats.json": "21884fb91b58a4159affcafa3f96a88af06d744b9199c07f1bcf214cc394953f",
        },
        ("--horizon", "3"): {
            "episodes.csv": "0376e39d9e474feb5b5547eaa59dd9ebf0ee2edf805ba4e9f80f388a342fa7ed",
            "stats.json": "ff077daf0679e4715bb50ba99f323087d6cec737bc33b5dd09ad18f460f855af",
        },
    },
    "po2/gridworld_battery4.json": {
        ("--mode", "spi", "--tie-break", "uniform"): {
            "episodes.csv": "63e78b643d56894ec066e85edd77f654236e79e5ac2837a1268eebde23e81e7e",
            "stats.json": "0725381a2c964a4115c1446a977d02e8ea0933d41ffeb6beea1ca3a49d3dbe07",
        },
        ("--mode", "sasi", "--tie-break", "uniform"): {
            "episodes.csv": "81320c52415cd803eb655a4ebf9bf2dafde6a2677416f712917361bac4db4cf8",
            "stats.json": "217d0878d2bb1a4dc566919419ff015f2eb5cbcedc0d71c7b41a67e07821b0a3",
        },
        ("--horizon", "3"): {
            "episodes.csv": "7b975a017115edc853b2a0304ecf9c3a71c0d65af828a18a7be1ab88f929a636",
            "stats.json": "2298f1bdcb00489592947b90609055004622f842714828e560f9bf8c2a678a09",
        },
    },
}


@pytest.mark.parametrize("grid", sorted(SIMULATE_VARIANT_SHA256))
def test_simulate_variant_exports_pinned(workdir, grid):
    pref = str(BUNDLES / grid.split("/")[0] / "preferences.json")
    assert run("--out", "g", "gridworld", str(BUNDLES / grid)) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    for extra, pinned in SIMULATE_VARIANT_SHA256[grid].items():
        out = workdir / "_".join(extra)
        assert run("--out", str(out), "simulate", mdp_path, pref, "--episodes", "300", *extra) == 0
        assert _digests(out, pinned) == pinned, extra


# sha256 of verify_report.json for ``verify --strategy FILE --mode MODE`` on
# each bundle's exported (FILE, MODE) strategies, recorded while ``verify``
# still ran the whole synthesis.  An SPI strategy fails the SASI conditions
# on every bundle.
VERIFY_STRATEGY_SHA256 = {
    "po1/gridworld_battery2.json": {
        ("spi", "spi"): "eb5a7618aaa605de5e64e29ceccbe460ae44b1398d047d0543aafee2902276fc",
        ("spi", "sasi"): "0c37b386365f8f6bf7115bad67700c96d6da6fd0eccbb49e4f2e735c6d79de2b",
        ("sasi", "spi"): "29c14928da6562fb177f8a0a0ba9e9ef6b789ecff3601337c912710157f643ec",
        ("sasi", "sasi"): "da2a73ef02a26195d2705ec3de535ab256814142fdf5948d070cc06f12e2b75f",
    },
    "po1/gridworld_battery4.json": {
        ("spi", "spi"): "8ec518b51d209ad2e3f96fff094f45d0e9e8ec2d4ded314b99ddc25fe079ef2c",
        ("spi", "sasi"): "bfa2a2b08bd5fbf044ab58f2a140a959c34105a4e9b076d81b7089f2b49e1e67",
        ("sasi", "spi"): "500b87a6a9c510e9a0140ae1d016695b31e9b31eb61c90ea849142eac5169c4a",
        ("sasi", "sasi"): "b885a5e6afef73b3e89510bdaed116d67f0d45367b6fefb5a2510e2327227900",
    },
    "po2/gridworld_battery4.json": {
        ("spi", "spi"): "e3ffe2b244140686fc6a3d450ba08cbfb6f44f2dbf05a91fc39da27071c867da",
        ("spi", "sasi"): "47265be515d09ab5835b36506fdb5c7a8b528e2d49a2de088170c1c795e2c104",
        ("sasi", "spi"): "426383ef386305d90505eec144e27398b7f34a7992e1a5499e4a911f738926d1",
        ("sasi", "sasi"): "e9ed3a24750296f9cf80593bbd1b1f70760c8404e3f0988afed34ac3d6aecdef",
    },
}


@pytest.mark.parametrize("grid", sorted(VERIFY_STRATEGY_SHA256))
def test_verify_given_strategy_needs_no_synthesis(workdir, grid):
    pref = str(BUNDLES / grid.split("/")[0] / "preferences.json")
    assert run("--out", "g", "gridworld", str(BUNDLES / grid)) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "art", "synth", mdp_path, pref) == 0
    with mock.patch.object(cli, "synthesize", side_effect=AssertionError("synthesize ran")) as synth:
        for (exported, mode), digest in VERIFY_STRATEGY_SHA256[grid].items():
            out = workdir / f"v_{exported}_{mode}"
            strategy = str(workdir / "art" / f"strategy_{exported}.json")
            code = run("--out", str(out), "verify", mdp_path, pref, "--strategy", strategy, "--mode", mode)
            assert code == (2 if (exported, mode) == ("spi", "sasi") else 0)
            assert _digests(out, ["verify_report.json"]) == {"verify_report.json": digest}
            if exported == mode:
                # Without --mode the file's own mode is checked.
                out = workdir / f"v_{exported}"
                assert run("--out", str(out), "verify", mdp_path, pref, "--strategy", strategy) == 0
                assert _digests(out, ["verify_report.json"]) == {"verify_report.json": digest}
    assert not synth.called


# sha256 of verify_report.json for the po2 bundle's SPI and SASI files with
# the decided state c0r2b2#q2 (action East) added to the domain, recorded
# while every solve still visited the decided states.  That state reaches
# only its own DFA state, so it never improves and is stuck in both modes.
DECIDED_STUCK_SHA256 = {
    "spi": "89cc5a68afab59a48b30fbc23b1643f3ad0cffddb0745af2db3ff9bf43a0fcb6",
    "sasi": "5bf70cba206d3c0493f88d55ff2af6d70738051f38966adb6995209b34172d0a",
}


@pytest.mark.parametrize("mode", sorted(DECIDED_STUCK_SHA256))
def test_verify_given_strategy_with_a_decided_state(workdir, mode, po2_b4):
    pm = po2_b4[4]
    assert pm.state_ids.index("c0r2b2#q2") in pm.decided
    assert run("--out", "g", "gridworld", PO2_GRID4) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "s", "synth", mdp_path, PO2_PREF) == 0
    doc = json.loads((workdir / "s" / f"strategy_{mode}.json").read_text())
    doc["entries"].append({"state": "c0r2b2#q2", "actions": ["East"]})
    strategy = workdir / "with_decided.json"
    strategy.write_text(json.dumps(doc))
    assert run("--out", "v", "verify", mdp_path, PO2_PREF, "--strategy", str(strategy)) == 2
    report = json.loads((workdir / "v" / "verify_report.json").read_text())[mode]
    assert report["stuck_states"] == ["c0r2b2#q2"]
    assert _digests(workdir / "v", ["verify_report.json"]) == {"verify_report.json": DECIDED_STUCK_SHA256[mode]}


def test_gridworld_roundtrip(workdir):
    assert run("--out", "art", "gridworld", PO1_GRID4) == 0
    doc = json.loads((workdir / "art" / "mdp.json").read_text())
    mdp = load_mdp(doc)
    assert mdp.n_states() == 24 * 5


def test_synth_verify_simulate_pipeline(workdir):
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "s", "synth", mdp_path, PO1_PREF) == 0
    strategy = json.loads((workdir / "s" / "strategy_sasi.json").read_text())
    assert strategy["mode"] == "sasi"
    start_entries = [e for e in strategy["entries"] if e["state"].startswith("c2r1b4")]
    assert start_entries and start_entries[0]["actions"] == ["West"]
    regions = json.loads((workdir / "s" / "winning_regions.json").read_text())
    assert regions["nodes"]

    assert run("--out", "v", "verify", mdp_path, PO1_PREF) == 0
    report = json.loads((workdir / "v" / "verify_report.json").read_text())
    assert report["sasi"]["ok"] and report["spi"]["ok"]

    assert run(
        "--out", "m", "simulate", mdp_path, PO1_PREF, "--episodes", "50", "--seed", "3"
    ) == 0
    stats = json.loads((workdir / "m" / "stats.json").read_text())
    assert stats["episodes"] == 50
    assert stats["regressions_observed"] == 0
    assert (workdir / "m" / "episodes.csv").exists()


def test_verify_failure_exit_code(workdir):
    # Checking a positively-improving strategy against the almost-sure
    # conditions must fail and exit 2.
    assert run("--out", "g", "gridworld", str(BUNDLES / "po1" / "gridworld_battery2.json")) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "s", "synth", mdp_path, PO1_PREF) == 0
    spi_path = str(workdir / "s" / "strategy_spi.json")
    assert run("--out", "v", "verify", mdp_path, PO1_PREF, "--strategy", spi_path, "--mode", "sasi") == 2
    report = json.loads((workdir / "v" / "verify_report.json").read_text())
    assert report["sasi"]["condition_a"] is False


def test_verify_reports_regressing_edges(workdir):
    # The po2 SPI strategy widened to every action still improves with
    # positive probability but takes regressing edges: condition (b) fails.
    # The digest was recorded while the induced chain was built by a search
    # that traced a path to each regressing edge.
    assert run("--out", "g", "gridworld", PO2_GRID4) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "s", "synth", mdp_path, PO2_PREF) == 0
    doc = json.loads((workdir / "s" / "strategy_spi.json").read_text())
    for entry in doc["entries"]:
        entry["actions"] = ["East", "North", "South", "West"]
    wide = workdir / "wide_spi.json"
    wide.write_text(json.dumps(doc))
    assert run("--out", "v", "verify", mdp_path, PO2_PREF, "--strategy", str(wide), "--mode", "spi") == 2
    report = json.loads((workdir / "v" / "verify_report.json").read_text())["spi"]
    assert report["condition_a"] and not report["condition_b"]
    assert len(report["regressing_edges"]) == 6
    assert all(edge["path"] == [edge["from"]] for edge in report["regressing_edges"])
    assert _digests(workdir / "v", ["verify_report.json"]) == {
        "verify_report.json": "579abd3e640897bcd24dbc6f6c8880f7af55225c10de7031e0863bfeff85882c"
    }


def test_verify_external_strategy_pass(workdir):
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "s", "synth", mdp_path, PO1_PREF) == 0
    sasi_path = str(workdir / "s" / "strategy_sasi.json")
    assert run("--out", "v", "verify", mdp_path, PO1_PREF, "--strategy", sasi_path, "--mode", "sasi") == 0


@pytest.mark.parametrize(
    "damage, message",
    [
        (
            lambda doc: _replace(doc, "entries", 0, actions=["Fly"]),
            "strategy entry for {state!r} names unknown action 'Fly'",
        ),
        (
            lambda doc: _replace(doc, "entries", 0, actions=None),
            "strategy entry for {state!r} has no 'actions' field",
        ),
        (
            lambda doc: _replace(doc, "entries", 0, actions="West"),
            "strategy entry for {state!r}: 'actions' must be a list of strings, got 'West'",
        ),
        (lambda doc: _replace(doc, "entries", 0, state=None), "strategy entry has no 'state' field"),
        (lambda doc: {"mode": doc["mode"]}, "strategy file has no 'entries' field"),
        (lambda doc: {"entries": doc["entries"]}, "strategy file has no 'mode' field"),
        (lambda doc: [doc], "strategy file must be a JSON object, got ["),
        (lambda doc: {**doc, "mode": "foo"}, "strategy file: unknown mode 'foo'"),
        (lambda doc: {**doc, "entries": doc["entries"] + doc["entries"][:1]},
         "strategy lists product state {state!r} twice"),
        (lambda doc: _replace(doc, "entries", 0, state="nowhere#q0"),
         "strategy references unknown product state 'nowhere#q0'"),
        (lambda doc: _replace(doc, "entries", 0, actions=[]), "empty action set at {state!r}"),
    ],
    ids=[
        "unknown-action", "missing-actions", "string-actions", "missing-state",
        "missing-entries", "missing-mode", "list", "unknown-mode", "duplicate-state",
        "unknown-state", "empty-actions",
    ],
)
def test_verify_rejects_malformed_strategy_in_one_line(workdir, capsys, damage, message):
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run("--out", "s", "synth", mdp_path, PO1_PREF) == 0
    doc = json.loads((workdir / "s" / "strategy_sasi.json").read_text())
    bad = workdir / "bad_strategy.json"
    bad.write_text(json.dumps(damage(doc)))
    capsys.readouterr()
    assert run("--out", "v", "verify", mdp_path, PO1_PREF, "--strategy", str(bad), "--mode", "sasi") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(state=doc["entries"][0]["state"]))
    assert err.count("\n") == 1


def _three_state_inputs(workdir, zero_successor=False, zero_initial=False):
    mdp, pref = workdir / f"mdp_{zero_successor}_{zero_initial}.json", workdir / "pref.json"
    mdp.write_text(json.dumps(three_state_mdp_doc(zero_successor, zero_initial)))
    pref.write_text(json.dumps(THREE_STATE_PREF_DOC))
    return str(mdp), str(pref)


def test_verify_rejects_disabled_strategy_action_in_one_line(workdir, capsys):
    # Action b exists but s0 does not enable it.
    mdp, pref = _three_state_inputs(workdir)
    assert run("--out", "s", "synth", mdp, pref) == 0
    doc = json.loads((workdir / "s" / "strategy_spi.json").read_text())
    assert doc["entries"] == [{"state": "s0#q0", "actions": ["a"]}]
    doc["entries"][0]["actions"] = ["b"]
    bad = workdir / "bad_strategy.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("--out", "v", "verify", mdp, pref, "--strategy", str(bad)) == 1
    err = capsys.readouterr().err
    assert err == "error: strategy entry for 's0#q0' names action 'b', not enabled there\n"


def test_zero_probability_successor_changes_nothing(workdir):
    # The plain MDP, then with a zero-probability successor, then with a
    # zero-probability initial entry.
    outs = []
    for zeros in ((False, False), (True, False), (False, True)):
        mdp, pref = _three_state_inputs(workdir, *zeros)
        outs.append(workdir / f"art_{zeros[0]}_{zeros[1]}")
        assert run("--out", str(outs[-1]), "synth", mdp, pref) == 0
        assert run("--out", str(outs[-1]), "simulate", mdp, pref, "--episodes", "4", "--horizon", "5") == 0
    names = sorted(p.name for p in outs[0].iterdir())
    for out in outs[1:]:
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (out.name, name)


# A DOT quoted string: any character but `"` and `\`, or `\` and the one it escapes.
DOT_LABEL = re.compile(r'label="((?:[^"\\]|\\.)*)"(?=[ \];])')


def _dot_labels(path) -> set:
    """Every ``label="..."`` of a DOT file, unescaped (``\\n`` is a line
    break); a label that is no valid quoted string fails the test."""
    labels = set()
    for line in path.read_text().splitlines():
        if 'label="' in line:
            match = DOT_LABEL.search(line)
            assert match, line
            labels.add(re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], match[1]))
    return labels


def test_dot_labels_quote_user_names(workdir):
    # The three-state inputs with state, action and outcome names that hold
    # the two characters a DOT string must escape.  A gridworld region name
    # is an atom, which holds neither, so such a name cannot enter.
    rename = {"s0": 's"0', "s2": "s\\2", "a": 'go"x', "b": "back\\y", "visit_A": 'reach"A', "visit_B": "b\\B"}
    for name, doc in (("mdp.json", three_state_mdp_doc()), ("pref.json", THREE_STATE_PREF_DOC)):
        text = json.dumps(doc)
        for old, new in rename.items():
            text = text.replace(json.dumps(old), json.dumps(new))
        (workdir / name).write_text(text)
    assert run("--out", "art", "synth", "mdp.json", "pref.json") == 0
    assert run("--out", "art", "prefdfa", "pref.json") == 0
    art = workdir / "art"

    spi = json.loads((art / "strategy_spi.json").read_text())
    sids = [entry["state"] for entry in spi["entries"]] + spi["undefined_states"]
    assert 's"0#q0' in sids and "s\\2#q2" in sids
    labels = _dot_labels(art / "improvement_mdp.dot")
    assert {f"{sid} {copy}" for sid in sids for copy in ("bot", "top")} <= labels
    assert {'go"x', "back\\y"} <= {label.rpartition(":")[0] for label in labels}

    pdfa = json.loads((art / "preference_dfa.json").read_text())
    tags = pdfa["tags"]
    assert 'x(b\\B,reach"A)' in {tag for node_tags in tags.values() for tag in node_tags}
    states = {
        s["label"] + ("\n{" + ",".join(tags[str(s["id"])]) + "}" if str(s["id"]) in tags else "")
        for s in pdfa["states"]
    }
    nodes = {f"X{n['id']} {{{','.join(n['tags'])}}}" for n in pdfa["graph"]["nodes"]}
    assert states | nodes <= _dot_labels(art / "preference_dfa.dot")

    grid = {"width": 2, "height": 1, "start": [0, 0], "battery_capacity": 1, "regions": {'A"\\': [[1, 0]]}}
    (workdir / "grid.json").write_text(json.dumps(grid))
    assert run("--out", "grid", "gridworld", "grid.json", "--dot") == 1
    assert not (workdir / "grid").exists()


def test_undecodable_input_in_one_line(workdir, capsys):
    path = workdir / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run("--out", "art", "prefdfa", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value",
    [("--episodes", "0"), ("--episodes", "-3"), ("--horizon", "0"), ("--horizon", "x"),
     ("--state-cap", "0"), ("--state-cap", "-1")],
)
def test_simulate_rejects_nonpositive_counts_as_usage_errors(workdir, capsys, flag, value):
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    capsys.readouterr()
    # --state-cap is an option of the program, the others of simulate.
    top, sub = ([flag, value], []) if flag == "--state-cap" else ([], [flag, value])
    assert run("--out", "m", *top, "simulate", str(workdir / "g" / "mdp.json"), PO1_PREF, *sub) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]
    assert not (workdir / "m").exists()


def test_internal_value_error_is_not_an_input_error(workdir, monkeypatch):
    # A ValueError from inside the pipeline is a bug, not bad input: it must
    # surface as a traceback rather than as "error: ..." with exit 1.
    def broken(product):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "synthesize", broken)
    assert run("--out", "g", "gridworld", PO1_GRID4) == 0
    with pytest.raises(ValueError, match="internal fault"):
        run("--out", "s", "synth", str(workdir / "g" / "mdp.json"), PO1_PREF)


def test_usage_error_exit_code():
    assert main(["definitely-not-a-command"]) == 1


def test_missing_input_exit_code(workdir):
    assert run("--out", "art", "synth", "missing.json", "nope.json") == 1


def test_gridworld_stay_probability_override(workdir, capsys):
    assert run("--out", "a", "gridworld", PO1_GRID4, "--stay-probability", "0.8") == 0
    doc = json.loads((workdir / "a" / "mdp.json").read_text())
    mdp = load_mdp(doc)
    probs = {p for row in mdp.rows for dist in row.values() for _, p in dist}
    assert 0.8 in probs and 0.5 not in probs
    # The override replaces the config's value before the range check: it
    # stands in for an out-of-range value, and is itself checked.
    (workdir / "stay.json").write_text(json.dumps({**PO1_GRID4_DOC, "stay_probability": 1.5}))
    assert run("--out", "c", "gridworld", "stay.json", "--stay-probability", "0.8") == 0
    assert (workdir / "c" / "mdp.json").read_bytes() == (workdir / "a" / "mdp.json").read_bytes()
    capsys.readouterr()
    assert run("--out", "b", "gridworld", PO1_GRID4, "--stay-probability", "1.5") == 1
    assert capsys.readouterr().err == (
        "error: malformed gridworld config: stay probability must lie strictly between 0 and 1\n"
    )
    assert not (workdir / "b").exists()


def test_simulate_spi_mode(workdir):
    assert run("--out", "g", "gridworld", str(BUNDLES / "po1" / "gridworld_battery2.json")) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    assert run(
        "--out", "m", "simulate", mdp_path, PO1_PREF,
        "--episodes", "200", "--seed", "4", "--mode", "spi", "--tie-break", "uniform",
    ) == 0
    stats = json.loads((workdir / "m" / "stats.json").read_text())
    # Positive improvement only: some episodes improve, none regress.
    assert stats["regressions_observed"] == 0
    histogram = {int(k): v for k, v in stats["improvements_histogram"].items()}
    assert any(k >= 1 for k in histogram)


def test_pipeline_byte_determinism(workdir):
    assert run("--out", "g", "gridworld", PO2_GRID4) == 0
    mdp_path = str(workdir / "g" / "mdp.json")
    for out in ("r1", "r2"):
        assert run("--out", out, "synth", mdp_path, PO2_PREF) == 0
        assert run(
            "--out", out, "simulate", mdp_path, PO2_PREF, "--episodes", "40", "--seed", "11"
        ) == 0
    for name in ("strategy_spi.json", "strategy_sasi.json", "winning_regions.json", "stats.json", "episodes.csv"):
        a = (workdir / "r1" / name).read_bytes()
        b = (workdir / "r2" / name).read_bytes()
        assert a == b, name


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.text()
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-300, 0.1, 2**63]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@given(doc=JSON_DOCS)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_write_json_streams_the_dumps_text(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # The same text, written without joining it into one string first.
    with mock.patch.object(json, "dumps", side_effect=AssertionError("document joined whole")):
        cli._write_json(path, doc)
    assert path.read_text(encoding="utf-8") == expected


def test_every_artifact_streams_to_its_file(workdir, monkeypatch):
    """No command builds an artifact as one string and then writes it."""
    (workdir / "formula.json").write_text(json.dumps({"atoms": ["A", "B"], "formula": "F A & (!A U B)"}))
    whole = mock.Mock(side_effect=AssertionError("artifact written whole"))
    monkeypatch.setattr(json, "dumps", whole)
    monkeypatch.setattr(Path, "write_text", whole)
    assert run("--out", "art", "compile", "formula.json") == 0
    assert run("--out", "art", "prefdfa", PO2_PREF) == 0
    assert run("--out", "art", "gridworld", "--dot", PO2_GRID4) == 0
    mdp_path = str(workdir / "art" / "mdp.json")
    for command in (["synth"], ["verify"], ["simulate", "--episodes", "50"]):
        assert run("--out", "art", command[0], mdp_path, PO2_PREF, *command[1:]) == 0
    assert sorted(p.name for p in (workdir / "art").iterdir()) == [
        "dfa.dot", "dfa.json", "episodes.csv", "improvement_mdp.dot", "mdp.dot", "mdp.json",
        "preference_dfa.dot", "preference_dfa.json", "preference_spec.json", "stats.json",
        "strategy_sasi.json", "strategy_spi.json", "verify_report.json", "winning_regions.json",
    ]
