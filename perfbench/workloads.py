"""Seeded input generators for the three benchmark workloads.

Each generator writes a gridworld config and a preference document into a
directory and expands the config into ``mdp.json`` through the ``prefplan
gridworld`` subcommand, so the program under test only ever sees JSON files.
The same seed gives byte-identical files.

A seed never changes how much work the solvers do.  On eight random
layouts with equal product size (3.5k states), the best of three
``synthesize`` runs ranged from 0.63 to 1.19 s, which would swamp every
effect the benchmark is meant to show.  So a seed picks among inputs the qualitative solvers cannot tell
apart: one of the eight symmetries of the square grid (it moves every
obstacle, region and drift cell and turns the drift directions with them),
the drift stay probability (it changes probabilities, never supports), and
for ``alphabet-wide`` which atom plays which role, in the formulas and on the
grid alike, so the product has the same size for every seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DIRECTIONS = ("North", "East", "South", "West")
_DELTAS = {"North": (0, 1), "East": (1, 0), "South": (0, -1), "West": (-1, 0)}

# Why each workload exists: which layer it loads and which it leaves idle.
WHY = {
    "ladder-po2": (
        "solver-heavy: 11x11 battery-16 gridworld under po2, 3.2k product states; "
        "per-node aswin and the improvement-MDP solves dominate synth, automata work is negligible"
    ),
    "alphabet-wide": (
        "automata-heavy: 10 atoms and 5 outcomes give a 189-state preference DFA over 1024 "
        "symbols that dominates synth, while the product solve stays small"
    ),
    "rollout-po2": (
        "the paper's po2 case study: 50k SASI composite-policy episodes on 107 product states, "
        "so per-step improvement lookups dominate, not the bulk solve"
    ),
}


def _symmetry(k: int, n: int):
    """The k-th of the eight symmetries of an n x n grid, as maps on cells and
    on compass directions."""
    def cell(c):
        x, y = c
        for _ in range(k % 4):
            x, y = y, n - 1 - x
        if k >= 4:
            x = n - 1 - x
        return (x, y)

    def direction(d):
        dx, dy = _DELTAS[d]
        for _ in range(k % 4):
            dx, dy = dy, -dx
        if k >= 4:
            dx = -dx
        return next(name for name, delta in _DELTAS.items() if delta == (dx, dy))

    return cell, direction


def transform_config(cfg: dict, k: int, stay_probability: float) -> dict:
    """Apply grid symmetry ``k`` to a square gridworld config and set its
    stay probability."""
    n = cfg["width"]
    if cfg["height"] != n:
        raise ValueError("grid symmetries need a square grid")
    cell, direction = _symmetry(k, n)
    return {
        "width": n,
        "height": n,
        "start": list(cell(tuple(cfg["start"]))),
        "battery_capacity": cfg["battery_capacity"],
        "stay_probability": stay_probability,
        "obstacles": sorted(list(cell(tuple(c))) for c in cfg["obstacles"]),
        "drift": sorted(
            (
                {
                    "cell": list(cell(tuple(d["cell"]))),
                    "directions": sorted(direction(x) for x in d["directions"]),
                }
                for d in cfg["drift"]
            ),
            key=lambda d: d["cell"],
        ),
        "regions": {
            atom: sorted(list(cell(tuple(c))) for c in cells)
            for atom, cells in sorted(cfg["regions"].items())
        },
    }


def random_layout(n: int, battery: int, atoms, layout_seed: int,
                  obstacle_share: float = 0.10, drift_share: float = 0.30) -> dict:
    """A random square gridworld: one region cell per atom, a share of the
    cells blocked and a share of the rest drifting in one or two directions."""
    rng = random.Random(layout_seed)
    start = (n // 2, 0)
    free = [(c, r) for r in range(n) for c in range(n) if (c, r) != start]
    rng.shuffle(free)
    n_obstacles = int(obstacle_share * n * n)
    obstacles, rest = free[:n_obstacles], free[n_obstacles:]
    regions = {atom: [list(rest[i])] for i, atom in enumerate(atoms)}
    rest = rest[len(atoms):]
    drift = [
        {"cell": list(c), "directions": sorted(rng.sample(DIRECTIONS, rng.choice((1, 2))))}
        for c in sorted(rest[: int(drift_share * len(rest))])
    ]
    return {
        "width": n,
        "height": n,
        "start": list(start),
        "battery_capacity": battery,
        "stay_probability": 0.5,
        "obstacles": sorted(list(c) for c in obstacles),
        "drift": drift,
        "regions": regions,
    }


def _stay_probability(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 0.7), 3)


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Ladder: a fixed 11x11 layout, battery 16, under the po2 preferences.  The
# layout seed gives a 3.2k-state product on which SPI and SASI are both
# defined somewhere, so the strategy checks in verify have work to do.
# Battery 20 (5.3k states) doubles every command and leaves four or five
# samples of each in a run, too few for a steady median.
LADDER_SIZE = 11
LADDER_BATTERY = 16
LADDER_LAYOUT_SEED = 1

# Wide alphabet: ten atoms, five outcomes that mix sequenced-eventually and
# guarded-until goals, and strict pairs between them.  A sixth outcome
# (342 instead of 189 preference-DFA states) doubles every command and
# leaves too few samples in a run for a steady median.  Role names are
# placeholders that a seeded permutation maps onto the atoms.
ALPHABET_ATOMS = tuple("abcdefghij")
ALPHABET_SIZE = 6
ALPHABET_BATTERY = 8
ALPHABET_LAYOUT_SEED = 8
ALPHABET_OUTCOMES = (
    ("seq_r0_r1", "F (r0 & X F r1)"),
    ("seq_r2_r3", "F (r2 & X F r3)"),
    ("seq_r4_r5", "F (r4 & X F r5)"),
    ("guard_r6", "!(r7 | r8) U r6"),
    ("guard_r7", "!(r6 | r9) U r7"),
)
ALPHABET_PREFERENCES = (
    ("seq_r2_r3", "seq_r0_r1"),
    ("seq_r4_r5", "seq_r2_r3"),
    ("guard_r7", "guard_r6"),
)

# Episodes per simulate: few where rollouts are not the point, many on the
# paper's case study, where they are.  100k episodes there take 4.6 s per
# simulate and leave seven samples in a run; 50k leave twice as many.
EPISODES = {"ladder-po2": 2000, "alphabet-wide": 2000, "rollout-po2": 50_000}


def generate(workload: str, seed: int, out_dir: Path, bundles: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``out_dir``.

    Returns the gridworld config path, the preference path and the extra
    arguments ``simulate`` takes.  ``bundles`` is the checkout's
    ``src/prefplan/bundles`` directory.  ``mdp.json`` is not written here:
    the caller expands the config with the ``gridworld`` subcommand.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    config_path, pref_path = out_dir / "gridworld.json", out_dir / "preferences.json"
    if workload == "ladder-po2":
        pref = json.loads((bundles / "po2" / "preferences.json").read_text(encoding="utf-8"))
        base = random_layout(LADDER_SIZE, LADDER_BATTERY, pref["atoms"], LADDER_LAYOUT_SEED)
        config = transform_config(base, rng.randrange(8), _stay_probability(rng))
    elif workload == "alphabet-wide":
        roles = list(ALPHABET_ATOMS)
        rng.shuffle(roles)
        pref = alphabet_preferences(roles)
        base = random_layout(ALPHABET_SIZE, ALPHABET_BATTERY, ALPHABET_ATOMS, ALPHABET_LAYOUT_SEED,
                             obstacle_share=0.0)
        # Role rK keeps the cell the layout gave the K-th atom, whichever
        # atom now plays it: renaming atoms in the formulas alone would move
        # the goals around the grid and change the product size by seed.
        base["regions"] = {roles[k]: base["regions"][atom] for k, atom in enumerate(ALPHABET_ATOMS)}
        config = transform_config(base, rng.randrange(8), _stay_probability(rng))
    elif workload == "rollout-po2":
        pref = json.loads((bundles / "po2" / "preferences.json").read_text(encoding="utf-8"))
        config = json.loads((bundles / "po2" / "gridworld_battery4.json").read_text(encoding="utf-8"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _dump(config_path, config)
    _dump(pref_path, pref)
    simulate = ["--episodes", str(EPISODES[workload]), "--seed", str(seed)]
    return {"config": config_path, "preferences": pref_path, "simulate": simulate}


def alphabet_preferences(roles) -> dict:
    """Preference document for the wide-alphabet workload, with role ``rK``
    played by atom ``roles[K]``."""
    def bind(text):
        for k in reversed(range(len(roles))):
            text = text.replace(f"r{k}", roles[k])
        return text

    return {
        "atoms": list(ALPHABET_ATOMS),
        "outcomes": [{"name": bind(name), "formula": bind(f)} for name, f in ALPHABET_OUTCOMES],
        "preferences": [
            {"kind": "strict", "better": bind(b), "worse": bind(w)}
            for b, w in ALPHABET_PREFERENCES
        ],
    }
