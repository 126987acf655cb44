"""Preference structures over temporal goals.

An outcome set carries a strict-preference relation P; incomparability J is
derived as the distinct pairs P orders in neither direction.  Indifference
between outcomes is eliminated up front by replacing each indifference class
with the disjunction of its members, so the runtime structure never stores an
indifference relation.  Declarations are checked once, by ``build_spec``, the
one function that builds a ``PreferenceSpec``.
"""

from __future__ import annotations

import enum

from .record import Record
from .schema import STRINGS, json_fields
from .scltl import Formula, Or, fmt, parse

__all__ = [
    "Comparison",
    "Outcome",
    "PreferenceSpec",
    "PreferenceError",
    "build_spec",
    "load_preference_document",
    "spec_to_json",
]


class PreferenceError(ValueError):
    """Raised for malformed or inconsistent preference declarations."""


class Comparison(enum.Enum):
    STRICTLY_BETTER = "strictly_better"
    STRICTLY_WORSE = "strictly_worse"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


class Outcome(Record):
    name: str
    formula: Formula

    def __repr__(self):
        return f"Outcome({self.name}: {fmt(self.formula)})"


class PreferenceSpec(Record):
    """Outcome set with strict relation P, as ``build_spec`` builds it.

    ``strict`` holds (better, worse) index pairs and is irreflexive,
    asymmetric and transitively closed.
    """

    outcomes: tuple[Outcome, ...]
    strict: frozenset

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def incomparable(self) -> frozenset:
        """J: the distinct pairs that P orders in neither direction."""
        ordered = self.strict | {(j, i) for i, j in self.strict}
        idx = range(self.n)
        return frozenset((i, j) for i in idx for j in idx if i != j and (i, j) not in ordered)

    def mp(self, psi) -> frozenset:
        """Most-preferred (maximal under P) outcomes among ``psi`` (indices)."""
        members = frozenset(psi)
        return frozenset(
            i for i in members
            if not any((j, i) in self.strict for j in members)
        )

    def compare(self, psi1, psi2) -> Comparison:
        """Compare two outcome sets; both are MP-closed internally first."""
        mp1 = self.mp(psi1)
        mp2 = self.mp(psi2)
        if mp1 == mp2:
            return Comparison.INDIFFERENT
        if self._dominates(mp1, mp2):
            return Comparison.STRICTLY_BETTER
        if self._dominates(mp2, mp1):
            return Comparison.STRICTLY_WORSE
        return Comparison.INCOMPARABLE

    def _dominates(self, mp1, mp2) -> bool:
        witness = any((i, j) in self.strict for i in mp1 for j in mp2)
        unopposed = all((j, i) not in self.strict for i in mp1 for j in mp2)
        return witness and unopposed


def build_spec(outcomes, statements=()) -> PreferenceSpec:
    """Check declarations and close them into a preference structure.

    ``outcomes`` lists (name, Formula) pairs and ``statements`` holds
    ("strict", better, worse) and ("indifferent", a, b) triples.  Names must
    be unique, and each statement of a known kind over two distinct declared
    names.  Indifference classes are merged into disjunctions first, strict
    statements are retargeted to the merged outcomes and transitively
    closed; every remaining distinct pair is incomparable.  This is the only
    constructor of ``PreferenceSpec``: its relation is irreflexive,
    asymmetric and closed.
    """
    names = [name for name, _ in outcomes]
    if len(set(names)) != len(names):
        raise PreferenceError("outcome names must be unique")
    # name -> the member that stands for its indifference class; classes are
    # listed, and their members joined, in declaration order.
    rep = dict(zip(names, names))
    for kind, a, b in statements:
        if kind not in ("strict", "indifferent"):
            raise PreferenceError(f"unknown statement kind {kind!r}")
        for name in (a, b):
            if name not in rep:
                raise PreferenceError(f"statement references unknown outcome {name!r}")
        if a == b:
            raise PreferenceError(f"self-comparison on outcome {a!r}")
        if kind == "indifferent":
            keep, drop = rep[a], rep[b]
            rep = {name: keep if r == drop else r for name, r in rep.items()}

    formulas = dict(outcomes)
    classes: dict = {}
    for name in names:
        classes.setdefault(rep[name], []).append(name)

    merged: list[Outcome] = []
    taken: set = set()
    rep_index: dict = {}
    for key, members in classes.items():
        f = formulas[members[0]]
        for m in members[1:]:
            f = Or(f, formulas[m])
        name = "|".join(members)
        if name in taken:
            raise PreferenceError(f"two outcomes are named {name!r} once indifference classes are merged")
        taken.add(name)
        rep_index[key] = len(merged)
        merged.append(Outcome(name, f))

    strict = set()
    for kind, better, worse in statements:
        if kind != "strict":
            continue
        i, j = rep_index[rep[better]], rep_index[rep[worse]]
        if i == j:
            raise PreferenceError(
                f"contradictory statements: {better!r} strictly preferred to {worse!r} "
                "but they are indifferent"
            )
        strict.add((i, j))

    # Transitive closure: rescan every pair until none is added.  Self-
    # comparisons and indifferent pairs are rejected above, so a cycle leaves
    # two distinct outcomes each preferred to the other.
    changed = True
    while changed:
        changed = False
        for (i, j) in list(strict):
            for (j2, k) in list(strict):
                if j2 == j and (i, k) not in strict:
                    strict.add((i, k))
                    changed = True
    for i, j in strict:
        if i != j and (j, i) in strict:
            a, b = merged[i].name, merged[j].name
            raise PreferenceError(f"cycle in strict preferences involving {a!r} and {b!r}")

    return PreferenceSpec(outcomes=tuple(merged), strict=frozenset(strict))


def load_preference_document(doc: dict) -> tuple[tuple[str, ...], PreferenceSpec]:
    """Load the preference declaration JSON schema.

    Schema: {"atoms": [...], "outcomes": [{"name", "formula"}],
    "preferences": [{"kind": "strict", "better", "worse"} |
    {"kind": "indifferent", "left", "right"}]}.
    """
    atoms, outcome_entries, pref_entries = json_fields(
        doc, "preference document", PreferenceError,
        {"atoms": STRINGS, "outcomes": list, "preferences": list}, defaults={"preferences": []},
    )

    outcomes = []
    for entry in outcome_entries:
        name, text = json_fields(
            entry, "outcome entry", PreferenceError, {"name": str, "formula": str}
        )
        outcomes.append((name, parse(text, atoms)))

    statements = []
    for entry in pref_entries:
        (kind,) = json_fields(entry, "preference entry", PreferenceError, {"kind": str})
        if kind == "strict":
            a, b = json_fields(
                entry, "strict preference", PreferenceError, {"better": str, "worse": str}
            )
        elif kind == "indifferent":
            a, b = json_fields(
                entry, "indifference", PreferenceError, {"left": str, "right": str}
            )
        else:
            raise PreferenceError(f"unknown preference kind {kind!r}")
        statements.append((kind, a, b))

    return tuple(atoms), build_spec(outcomes, statements)


def spec_to_json(atoms, spec: PreferenceSpec) -> dict:
    """Echo the closed structure as a re-loadable preference document.

    The "preferences" entries carry the transitively closed strict relation;
    "incomparable" is informational and ignored on reload.
    """
    return {
        "atoms": list(atoms),
        "outcomes": [{"name": o.name, "formula": fmt(o.formula)} for o in spec.outcomes],
        "preferences": [
            {"kind": "strict", "better": spec.outcomes[i].name, "worse": spec.outcomes[j].name}
            for i, j in sorted(spec.strict)
        ],
        "strict": sorted([spec.outcomes[i].name, spec.outcomes[j].name] for i, j in spec.strict),
        "incomparable": sorted(
            [spec.outcomes[i].name, spec.outcomes[j].name] for i, j in spec.incomparable if i < j
        ),
    }
