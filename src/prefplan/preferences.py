"""Preference structures over temporal goals.

An outcome set carries a strict-preference relation P; incomparability J is
derived as the distinct pairs P orders in neither direction.  Indifference
between outcomes is eliminated up front by replacing each indifference class
with the disjunction of its members, so the runtime structure never stores an
indifference relation.
"""

from __future__ import annotations

import enum

from .record import Record, field
from .schema import STRINGS, json_fields
from .scltl import Formula, Or, fmt, parse

__all__ = [
    "Comparison",
    "Outcome",
    "PreferenceSpec",
    "PreferenceDeclarations",
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
    """Validated outcome set with strict relation P.

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

    def validate(self):
        idx = range(self.n)
        for i, j in self.strict:
            if i not in idx or j not in idx:
                raise PreferenceError(f"relation references unknown outcome index ({i},{j})")
            if i == j:
                raise PreferenceError(f"strict preference is irreflexive, got ({i},{i})")
            if (j, i) in self.strict:
                raise PreferenceError(f"strict preference cycle between {i} and {j}")
        for i, j in self.strict:
            for j2, k in self.strict:
                if j2 == j and (i, k) not in self.strict and i != k:
                    raise PreferenceError(f"strict preference not transitively closed at ({i},{k})")

    __post_init__ = validate

    def mp(self, psi) -> frozenset:
        """Most-preferred (maximal under P) outcomes among ``psi`` (indices)."""
        members = frozenset(psi)
        for i in members:
            if not 0 <= i < self.n:
                raise PreferenceError(f"outcome index {i} out of range")
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


class PreferenceDeclarations(Record, frozen=False):
    """Raw declaration: named outcomes plus strict/indifference statements."""

    atoms: tuple[str, ...]
    outcomes: list  # list of (name, Formula)
    statements: list = field(default_factory=list)  # ("strict", better, worse) | ("indifferent", a, b)

    def __post_init__(self):
        names = [name for name, _ in self.outcomes]
        if len(set(names)) != len(names):
            raise PreferenceError("outcome names must be unique")
        known = set(names)
        for stmt in self.statements:
            kind, a, b = stmt
            if kind not in ("strict", "indifferent"):
                raise PreferenceError(f"unknown statement kind {kind!r}")
            for name in (a, b):
                if name not in known:
                    raise PreferenceError(f"statement references unknown outcome {name!r}")
            if a == b:
                raise PreferenceError(f"self-comparison on outcome {a!r}")


def _merge_indifference_classes(decl: PreferenceDeclarations):
    """Union-find over indifference statements; classes keep first-member order."""
    names = [name for name, _ in decl.outcomes]
    parent = {name: name for name in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # Keep the representative that appears first in declaration order.
            if names.index(ra) > names.index(rb):
                ra, rb = rb, ra
            parent[rb] = ra

    for kind, a, b in decl.statements:
        if kind == "indifferent":
            union(a, b)

    classes: dict = {}
    for name in names:
        classes.setdefault(find(name), []).append(name)
    return classes, find


def build_spec(decl: PreferenceDeclarations) -> PreferenceSpec:
    """Close declarations into a validated preference structure.

    Indifference classes are merged into disjunctions first, strict
    statements are retargeted to class representatives and transitively
    closed; every remaining distinct pair is incomparable.
    """
    formulas = dict(decl.outcomes)
    classes, find = _merge_indifference_classes(decl)

    merged: list[Outcome] = []
    names: set = set()
    rep_index: dict = {}
    for rep, members in classes.items():
        f = formulas[members[0]]
        for m in members[1:]:
            f = Or(f, formulas[m])
        name = "|".join(members)
        if name in names:
            raise PreferenceError(f"two outcomes are named {name!r} once indifference classes are merged")
        names.add(name)
        rep_index[rep] = len(merged)
        merged.append(Outcome(name, f))

    strict = set()
    for kind, better, worse in decl.statements:
        if kind != "strict":
            continue
        i, j = rep_index[find(better)], rep_index[find(worse)]
        if i == j:
            raise PreferenceError(
                f"contradictory statements: {better!r} strictly preferred to {worse!r} "
                "but they are indifferent"
            )
        strict.add((i, j))

    # Transitive closure (Warshall); a self-pair afterwards is a cycle.
    changed = True
    while changed:
        changed = False
        for (i, j) in list(strict):
            for (j2, k) in list(strict):
                if j2 == j and (i, k) not in strict:
                    strict.add((i, k))
                    changed = True
    for i, j in strict:
        if i == j or (j, i) in strict:
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

    decl = PreferenceDeclarations(atoms=tuple(atoms), outcomes=outcomes, statements=statements)
    return decl.atoms, build_spec(decl)


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
