"""Command-line front end for the planning pipeline.

Subcommands compile formulas, build preference DFAs, generate gridworlds,
synthesize and verify improving strategies, and simulate composite policies.
Artifacts are written as JSON/DOT files with stable key order so identical
inputs and seeds produce identical bytes.  Exit codes: 0 success, 1 usage or
input error, 2 verification failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .mdp import (
    MdpError,
    build_gridworld,
    gridworld_config_from_json,
    load_mdp,
    mdp_to_dot,
    mdp_to_json,
)
from .prefdfa import build_preference_dfa, pdfa_to_dot, pdfa_to_json
from .preferences import PreferenceError, load_preference_document, spec_to_json
from .schema import STRINGS, json_fields
from .scltl import (
    DEFAULT_STATE_CAP,
    AlphabetError,
    CapacityError,
    ParseError,
    dfa_to_dot,
    dfa_to_json,
    parse,
    to_dfa,
)
from .synthesis import (
    MODES,
    TIE_BREAKS,
    CompositePolicy,
    StrategyError,
    aswin_by_node,
    build_product,
    improvement_mdp_to_dot,
    regions_to_json,
    strategy_from_json,
    strategy_to_json,
    synthesize,
)
from .verify import check_strategy_conditions, monte_carlo, stats_to_csv, stats_to_json

DEFAULT_SEED = 20240

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAP = 3


class InputError(ValueError):
    """Raised for a formula file that is not an ``{"atoms", "formula"}``
    object, for a combination of options that means nothing, and for a JSON
    file whose syntax parses but whose values Python cannot hold (such as an
    integer of more digits than it converts) or whose nesting is deeper than
    the parser recurses."""


# Errors that name a fault of the input.  A bare ValueError is not one: it
# would report a bug in the program as bad input.
INPUT_ERRORS = (
    ParseError,
    AlphabetError,
    PreferenceError,
    MdpError,
    InputError,
    StrategyError,
    OSError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError as e:
            raise InputError(f"{path}: {e}") from None
        except RecursionError:
            raise InputError(f"{path}: nested deeper than the JSON parser's recursion limit") from None


def _write_json(path: Path, doc) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_export(path: Path, export, model) -> None:
    """Stream ``export(model, write)``, a DOT or CSV writer, into ``path``."""
    with path.open("w", encoding="utf-8") as fh:
        export(model, fh.write)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pipeline(mdp_path: str, pref_path: str, state_cap: int):
    mdp = load_mdp(_read_json(mdp_path))
    atoms, spec = load_preference_document(_read_json(pref_path))
    pdfa = build_preference_dfa(spec, atoms, state_cap=state_cap)
    return build_product(mdp, pdfa, state_cap=state_cap)


def cmd_compile(args) -> int:
    text, atoms = json_fields(
        _read_json(args.formula_file), "formula file", InputError,
        {"formula": str, "atoms": STRINGS},
    )
    dfa = to_dfa(parse(text, atoms), atoms, state_cap=args.state_cap)
    out = _out_dir(args)
    _write_json(out / "dfa.json", dfa_to_json(dfa))
    _write_export(out / "dfa.dot", dfa_to_dot, dfa)
    print(f"dfa: {len(dfa.states)} states, {len(dfa.accepting)} accepting", file=sys.stderr)
    return EXIT_OK


def cmd_prefdfa(args) -> int:
    atoms, spec = load_preference_document(_read_json(args.pref_file))
    pdfa = build_preference_dfa(spec, atoms, state_cap=args.state_cap)
    out = _out_dir(args)
    _write_json(out / "preference_spec.json", spec_to_json(atoms, spec))
    _write_json(out / "preference_dfa.json", pdfa_to_json(pdfa))
    _write_export(out / "preference_dfa.dot", pdfa_to_dot, pdfa)
    print(
        f"preference dfa: {len(pdfa.states)} states, {len(pdfa.final)} final, "
        f"{len(pdfa.graph.nodes)} graph nodes",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_gridworld(args) -> int:
    cfg = gridworld_config_from_json(_read_json(args.config), args.stay_probability)
    mdp = build_gridworld(cfg, state_cap=args.state_cap)
    out = _out_dir(args)
    _write_json(out / "mdp.json", mdp_to_json(mdp))
    if args.dot:
        _write_export(out / "mdp.dot", mdp_to_dot, mdp)
    print(f"gridworld mdp: {mdp.n_states()} states", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    product = _load_pipeline(args.mdp, args.pref_file, args.state_cap)
    result = synthesize(product)
    out = _out_dir(args)
    _write_json(out / "strategy_spi.json", strategy_to_json(product, result.spi))
    _write_json(out / "strategy_sasi.json", strategy_to_json(product, result.sasi))
    _write_json(out / "winning_regions.json", regions_to_json(result.cache))
    _write_export(out / "improvement_mdp.dot", improvement_mdp_to_dot, result.improvement_mdp)
    print(
        f"product: {product.n_states()} states; spi defined on {len(result.spi.actions)}, "
        f"sasi defined on {len(result.sasi.actions)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.mode and not args.strategy:
        raise InputError("--mode applies only to --strategy")
    product = _load_pipeline(args.mdp, args.pref_file, args.state_cap)
    if args.strategy:
        # A given strategy needs only the improvement relation, not synthesis.
        strategy = strategy_from_json(product, _read_json(args.strategy))
        to_check = [(args.mode or strategy.mode, strategy)]
        cache = aswin_by_node(product)
    else:
        result = synthesize(product)
        to_check = [("spi", result.spi), ("sasi", result.sasi)]
        cache = result.cache
    report_doc = {}
    all_ok = True
    ids = product.state_ids
    for mode, strategy in to_check:
        if not strategy.actions:
            report_doc[mode] = {"defined": False}
            continue
        report = check_strategy_conditions(strategy, mode, cache)
        all_ok = all_ok and report.ok
        report_doc[mode] = {
            "defined": True,
            "ok": report.ok,
            "condition_a": report.condition_a,
            "condition_b": report.condition_b,
            "domain_size": len(strategy.actions),
            "stuck_states": [ids[v] for v in report.stuck_states],
            "regressing_edges": [
                {
                    # Every chain edge starts in the strategy's domain, so the
                    # path to it is its source alone; kept for the format.
                    "path": [ids[v]],
                    "from": ids[v],
                    "to": ids[w],
                }
                for v, w in report.regressing_edges
            ],
            "bottom_based_improvements": [
                [ids[v], ids[w]]
                for v, w in report.bottom_based_improvements
            ],
        }
    out = _out_dir(args)
    _write_json(out / "verify_report.json", report_doc)
    for mode, entry in report_doc.items():
        if not entry.get("defined"):
            print(f"{mode}: undefined everywhere (nothing to check)", file=sys.stderr)
        else:
            print(
                f"{mode}: condition (a) {'pass' if entry['condition_a'] else 'FAIL'}, "
                f"condition (b) {'pass' if entry['condition_b'] else 'FAIL'}",
                file=sys.stderr,
            )
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_simulate(args) -> int:
    product = _load_pipeline(args.mdp, args.pref_file, args.state_cap)
    result = synthesize(product)
    policy = CompositePolicy(result, mode=args.mode, tie_break=args.tie_break)
    stats = monte_carlo(policy, episodes=args.episodes, horizon=args.horizon, seed=args.seed)
    out = _out_dir(args)
    _write_json(out / "stats.json", stats_to_json(stats))
    _write_export(out / "episodes.csv", stats_to_csv, stats)
    print(
        f"{args.episodes} episodes: improvements histogram "
        f"{dict(sorted(stats.improvements_histogram.items()))}, "
        f"regressions {stats.regressions_observed}",
        file=sys.stderr,
    )
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefplan",
        description="Opportunistic qualitative planning under incomplete preferences "
        "over co-safe temporal goals.",
    )
    parser.add_argument("--out", default="out", help="output directory for artifacts")
    parser.add_argument(
        "--state-cap",
        type=_positive_int,
        default=DEFAULT_STATE_CAP,
        help="abort constructions that exceed this many states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="translate a formula file to a DFA (JSON + DOT)")
    p.add_argument("formula_file", help='JSON file {"atoms": [...], "formula": "..."}')
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("prefdfa", help="build the preference DFA and graph from a preference file")
    p.add_argument("pref_file", help="preference declaration JSON")
    p.set_defaults(func=cmd_prefdfa)

    p = sub.add_parser("gridworld", help="expand a gridworld config into an MDP JSON")
    p.add_argument("config", help="gridworld config JSON")
    p.add_argument("--dot", action="store_true", help="also write a DOT rendering")
    p.add_argument(
        "--stay-probability",
        type=float,
        default=None,
        help="override the config's drift stay probability",
    )
    p.set_defaults(func=cmd_gridworld)

    p = sub.add_parser("synth", help="synthesize SPI/SASI strategies for an MDP and preference file")
    p.add_argument("mdp", help="MDP JSON")
    p.add_argument("pref_file", help="preference declaration JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check the strategy conditions of the synthesized strategies")
    p.add_argument("mdp", help="MDP JSON")
    p.add_argument("pref_file", help="preference declaration JSON")
    p.add_argument(
        "--strategy",
        default=None,
        help="check this exported strategy JSON instead of the synthesized ones",
    )
    p.add_argument("--mode", choices=MODES, default=None,
                   help="conditions to hold for --strategy (default: the file's mode)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="roll out the composite policy and collect statistics")
    p.add_argument("mdp", help="MDP JSON")
    p.add_argument("pref_file", help="preference declaration JSON")
    p.add_argument("--episodes", type=_positive_int, default=1000)
    p.add_argument("--horizon", type=_positive_int, default=None,
                   help="step cap per episode (default 10x product size)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", choices=MODES, default="sasi")
    p.add_argument("--tie-break", choices=TIE_BREAKS, default="lowest")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; map to the input-error code.
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
