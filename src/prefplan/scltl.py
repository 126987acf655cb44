"""Syntactically co-safe LTL: formulas, finite-trace semantics, and DFA translation.

Formulas are kept in negation normal form (negation at atoms only) and are
compiled to complete deterministic automata whose accepting states are
absorbing.  Translation works by formula progression: the states of the
automaton are canonical forms of progressed formulas, the accepting state is
the constant ``true`` and the completion sink is ``false``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from types import MappingProxyType

from .record import Record

__all__ = [
    "Formula",
    "TrueF",
    "FalseF",
    "Atom",
    "NegAtom",
    "And",
    "Or",
    "Next",
    "Until",
    "MAX_FORMULA_DEPTH",
    "ParseError",
    "AlphabetError",
    "CapacityError",
    "Dfa",
    "declare_alphabet",
    "all_symbols",
    "symbol_index",
    "parse",
    "fmt",
    "progress",
    "canonicalize",
    "to_dfa",
    "transitions_to_json",
    "dfa_to_json",
    "dfa_to_dot",
    "dot_escape",
    "symbol_labels",
]

MAX_ALPHABET_ATOMS = 16
# Bound on formula nesting: the parser rejects more than this many open
# parentheses, prefix operators and `U` operands around any point, and a
# formula tree taller than this, so that parsing and the recursive
# progression/canonicalization stay well inside Python's recursion limit.
MAX_FORMULA_DEPTH = 100
DEFAULT_STATE_CAP = 10**6

# Names the parser can never read as atoms; ``false`` is the rejecting
# sink's label, so no atom may print like it.  X and F are permitted as
# proposition names: they act as prefix operators only when an operand
# follows, so region names like F stay expressible.
RESERVED_WORDS = frozenset({"true", "false", "U"})


class ParseError(ValueError):
    """Raised for malformed formula text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AlphabetError(ValueError):
    """Raised when an alphabet declaration or a symbol is invalid."""


class CapacityError(RuntimeError):
    """Raised when a construction exceeds its configured size cap."""


class Formula(Record):
    pass


class TrueF(Formula):
    pass


class FalseF(Formula):
    pass


class Atom(Formula):
    name: str


class NegAtom(Formula):
    name: str


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Next(Formula):
    child: Formula


class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueF()
FALSE = FalseF()


def fmt(f: Formula) -> str:
    """Serialize a formula in the concrete syntax accepted by :func:`parse`.

    The text also fixes the order of temporal atoms in :func:`canonicalize`,
    so a change here relabels DFA states.  It parenthesizes every operator,
    and no atom is named like a constant, so distinct formulas print apart.
    """
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NegAtom):
        return f"!{f.name}"
    if isinstance(f, And):
        return f"({fmt(f.left)} & {fmt(f.right)})"
    if isinstance(f, Or):
        return f"({fmt(f.left)} | {fmt(f.right)})"
    if isinstance(f, Next):
        return f"X ({fmt(f.child)})"
    if isinstance(f, Until):
        if isinstance(f.left, TrueF):
            return f"F ({fmt(f.right)})"
        return f"({fmt(f.left)} U {fmt(f.right)})"
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, (Atom, NegAtom)):
        return frozenset({f.name})
    if isinstance(f, (And, Or, Until)):
        return atoms_of(f.left) | atoms_of(f.right)
    if isinstance(f, Next):
        return atoms_of(f.child)
    return frozenset()


def declare_alphabet(names) -> tuple[str, ...]:
    """Validate and order an atomic-proposition declaration.

    Names must be nonempty identifiers (letters, digits, underscore, not
    starting with a digit), unique, and distinct from operator keywords.
    """
    seen = []
    for name in names:
        if not isinstance(name, str) or not name:
            raise AlphabetError(f"invalid proposition name: {name!r}")
        if not (name[0].isalpha() or name[0] == "_"):
            raise AlphabetError(f"invalid proposition name: {name!r}")
        if not all(c.isalnum() or c == "_" for c in name):
            raise AlphabetError(f"invalid proposition name: {name!r}")
        if name in RESERVED_WORDS:
            raise AlphabetError(f"proposition name collides with keyword: {name!r}")
        if name in seen:
            raise AlphabetError(f"duplicate proposition name: {name!r}")
        seen.append(name)
    return tuple(sorted(seen))


def all_symbols(alphabet: tuple[str, ...]) -> list[frozenset[str]]:
    """Enumerate the full alphabet 2^AP in a deterministic order."""
    if len(alphabet) > MAX_ALPHABET_ATOMS:
        raise AlphabetError(
            f"alphabet too large: {len(alphabet)} atoms (limit {MAX_ALPHABET_ATOMS})"
        )
    ordered = sorted(alphabet)
    syms = []
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            syms.append(frozenset(combo))
    return syms


@functools.lru_cache(maxsize=4)
def symbol_index(alphabet: tuple[str, ...]) -> tuple[tuple[frozenset, ...], Mapping]:
    """The symbols of a declared alphabet in :func:`all_symbols` order, and a
    read-only map from each symbol to its position among them.  Cached, so
    the automata of one preference build enumerate 2^AP once and share both."""
    syms = tuple(all_symbols(alphabet))
    return syms, MappingProxyType({sigma: k for k, sigma in enumerate(syms)})


# ---------------------------------------------------------------------------
# Parser
#
# Grammar (loosest binding last):  disj := conj ('|' conj)*
#                                  conj := until ('&' until)*
#                                  until := unary ('U' until)?      right-assoc
#                                  unary := ('!'|'X'|'F') unary | primary
#                                  primary := 'true' | IDENT | '(' disj ')'
#
# The tokens X and F double as proposition names (region names in the bundled
# examples include F).  They are read as prefix operators exactly when the
# next token can start a formula, otherwise as atoms.
# ---------------------------------------------------------------------------

_PUNCT = "!&|()"


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, alphabet):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = frozenset(alphabet)
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _starts_formula(self, tok):
        return tok[0] in ("(", "!", "ident")

    def _is_prefix_op(self, tok):
        # X / F act as operators only if an operand follows.
        kind, value, _ = tok
        if kind != "ident" or value not in ("X", "F"):
            return False
        return self._starts_formula(self.tokens[self.pos + 1])

    # Each parse_* method returns (formula, height of its tree).

    def _bounded(self, depth, tok):
        if depth > MAX_FORMULA_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", tok[2])
        return depth

    def _nested(self, tok, parse):
        self.nesting = self._bounded(self.nesting + 1, tok)
        result = parse()
        self.nesting -= 1
        return result

    def _chain(self, op, make, parse_operand):
        """A left-associative chain of ``parse_operand`` joined by ``op``."""
        f, h = parse_operand()
        while self.peek()[0] == op:
            tok = self.advance()
            g, k = parse_operand()
            f, h = make(f, g), self._bounded(max(h, k) + 1, tok)
        return f, h

    def parse_disj(self):
        return self._chain("|", Or, self.parse_conj)

    def parse_conj(self):
        return self._chain("&", And, self.parse_until)

    def parse_until(self):
        f, h = self.parse_unary()
        tok = self.peek()
        if tok[0] == "ident" and tok[1] == "U" and self._starts_formula(self.tokens[self.pos + 1]):
            self.advance()
            g, k = self._nested(tok, self.parse_until)
            return Until(f, g), self._bounded(max(h, k) + 1, tok)
        return f, h

    def parse_unary(self):
        tok = self.peek()
        if tok[0] == "!":
            self.advance()
            operand, h = self._nested(tok, self.parse_unary)
            return _negate(operand, tok[2]), h
        if self._is_prefix_op(tok):
            self.advance()
            child, h = self._nested(tok, self.parse_unary)
            if tok[1] == "F" and isinstance(child, Until) and isinstance(child.left, TrueF):
                return child, h  # F F g is equivalent to F g
            f = Next(child) if tok[1] == "X" else Until(TRUE, child)
            return f, self._bounded(h + 1, tok)
        return self.parse_primary()

    def parse_primary(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "(":
            inner = self._nested(tok, self.parse_disj)
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return inner
        if kind == "ident":
            if value == "true":
                return TRUE, 0
            if value == "U":
                raise ParseError("'U' is not a proposition", pos)
            if value not in self.alphabet:
                raise ParseError(f"undeclared proposition {value!r}", pos)
            return Atom(value), 0
        raise ParseError(f"unexpected token {value!r}", pos)


def _negate(f: Formula, pos: int) -> Formula:
    """Push one negation to the literals, De Morgan style."""
    if isinstance(f, Atom):
        return NegAtom(f.name)
    if isinstance(f, NegAtom):
        return Atom(f.name)
    if isinstance(f, And):
        return Or(_negate(f.left, pos), _negate(f.right, pos))
    if isinstance(f, Or):
        return And(_negate(f.left, pos), _negate(f.right, pos))
    if isinstance(f, (Next, Until)):
        raise ParseError("negation over a temporal operator is outside the fragment", pos)
    if isinstance(f, TrueF):
        raise ParseError("cannot negate 'true'", pos)
    raise ParseError("cannot negate this subformula", pos)


def parse(text: str, alphabet) -> Formula:
    """Parse concrete formula syntax over a declared alphabet.

    Raises :class:`ParseError` on syntax errors, undeclared propositions,
    negation applied over a temporal operator, and nesting deeper than
    ``MAX_FORMULA_DEPTH``.  ``F g`` is read as ``true U g``, and a chain of
    ``F`` operators as one (``F F g`` is equivalent to ``F g``), so a deep
    chain compiles as fast as a single ``F``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty formula", 0)
    declared = declare_alphabet(alphabet)
    parser = _Parser(_tokenize(text), declared)
    f, _ = parser.parse_disj()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected trailing token {tok[1]!r}", tok[2])
    return f


# ---------------------------------------------------------------------------
# Progression and canonical forms
# ---------------------------------------------------------------------------


def _mk_and(a: Formula, b: Formula) -> Formula:
    if isinstance(a, FalseF) or isinstance(b, FalseF):
        return FALSE
    if isinstance(a, TrueF):
        return b
    if isinstance(b, TrueF):
        return a
    if a == b:
        return a
    return And(a, b)


def _mk_or(a: Formula, b: Formula) -> Formula:
    if isinstance(a, TrueF) or isinstance(b, TrueF):
        return TRUE
    if isinstance(a, FalseF):
        return b
    if isinstance(b, FalseF):
        return a
    if a == b:
        return a
    return Or(a, b)


def progress(f: Formula, sigma: frozenset) -> Formula:
    """One step of formula progression over the symbol ``sigma``.

    Total on NNF formulas; constants absorb per the Boolean laws, so the
    result is the constant-folded residual obligation after reading sigma.
    """
    if isinstance(f, TrueF) or isinstance(f, FalseF):
        return f
    if isinstance(f, Atom):
        return TRUE if f.name in sigma else FALSE
    if isinstance(f, NegAtom):
        return FALSE if f.name in sigma else TRUE
    if isinstance(f, And):
        return _mk_and(progress(f.left, sigma), progress(f.right, sigma))
    if isinstance(f, Or):
        return _mk_or(progress(f.left, sigma), progress(f.right, sigma))
    if isinstance(f, Next):
        return f.child
    if isinstance(f, Until):
        return _mk_or(progress(f.right, sigma), _mk_and(progress(f.left, sigma), f))
    raise TypeError(f"not a formula: {f!r}")


def _temporal_atoms(f: Formula) -> frozenset:
    """The maximal subformulas rooted at a literal, Next or Until."""
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (Atom, NegAtom, Next, Until)):
        return frozenset({f})
    if isinstance(f, (And, Or)):
        return _temporal_atoms(f.left) | _temporal_atoms(f.right)
    raise TypeError(f"not a formula: {f!r}")


def _subst(f: Formula, target: Formula, value: Formula) -> Formula:
    """Replace every occurrence of the temporal atom ``target`` by a constant."""
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, (Atom, NegAtom, Next, Until)):
        return value if f == target else f
    if isinstance(f, And):
        return _mk_and(_subst(f.left, target, value), _subst(f.right, target, value))
    if isinstance(f, Or):
        return _mk_or(_subst(f.left, target, value), _subst(f.right, target, value))
    raise TypeError(f"not a formula: {f!r}")


def _fold(f: Formula) -> Formula:
    """Constant-fold the Boolean skeleton (temporal atoms stay opaque)."""
    if isinstance(f, And):
        return _mk_and(_fold(f.left), _fold(f.right))
    if isinstance(f, Or):
        return _mk_or(_fold(f.left), _fold(f.right))
    return f


def canonicalize(f: Formula, keys: dict | None = None) -> Formula:
    """Reduced ordered Shannon normal form over temporal atoms.

    Temporal atoms are ordered by their :func:`fmt` text, so a change to
    ``fmt`` relabels DFA states; two formulas denote the same DFA state iff
    their canonical forms are structurally identical.  The Boolean skeleton
    above the temporal atoms is negation-free, so the expansion
    (t & hi) | lo stays inside NNF.  ``keys`` (temporal atom -> its text)
    lets the calls of one construction print each atom once.
    """
    if keys is None:
        keys = {}

    def key(atom: Formula) -> str:
        k = keys.get(atom)
        if k is None:
            k = keys[atom] = fmt(atom)
        return k

    f = _fold(f)
    order = sorted(_temporal_atoms(f), key=key)
    memo: dict = {}  # (formula, idx) -> its canonical form over order[idx:]

    def build(g: Formula, idx: int) -> Formula:
        if isinstance(g, (TrueF, FalseF)) or idx == len(order):
            return g
        done = memo.get((g, idx))
        if done is None:
            var = order[idx]
            hi = build(_subst(g, var, TRUE), idx + 1)
            lo = build(_subst(g, var, FALSE), idx + 1)
            memo[(g, idx)] = done = hi if hi == lo else _mk_or(_mk_and(var, hi), lo)
        return done

    return build(f, 0)


# ---------------------------------------------------------------------------
# DFA
# ---------------------------------------------------------------------------


class Dfa(Record):
    """Complete DFA over 2^AP with absorbing accepting states.

    ``states`` holds display labels.  The transition function is total on
    states x alphabet: ``rows[q][k]`` is the successor of state ``q`` on
    ``symbols[k]``.  From :func:`to_dfa`, states are numbered in the order the
    per-letter construction first reaches them, reading letters in
    ``all_symbols`` order.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    symbols: tuple[frozenset, ...]
    rows: tuple  # per state, the successor on each symbol, in symbols order
    initial: int
    accepting: frozenset


def to_dfa(f: Formula, alphabet, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Translate an NNF formula to a complete DFA accepting its good prefixes.

    States are canonical progressed formulas; ``true`` is the accepting
    absorbing state and ``false`` the completion sink.  Progression reads
    only the atoms of ``f``, so letters with the same projection onto them
    form a class, and each state is progressed once per class.  The result
    is the automaton of progressing every letter: the same states, numbered
    in the order a depth-first search that reads letters in ``all_symbols``
    order first reaches them, and the same successor for every letter.
    """
    declared = declare_alphabet(alphabet)
    atoms = atoms_of(f)
    undeclared = atoms - set(declared)
    if undeclared:
        raise AlphabetError(f"formula uses undeclared propositions: {sorted(undeclared)}")
    syms = symbol_index(declared)[0]
    # Classes in the order their first letter comes, so stepping the classes
    # in turn meets new states in the same order as stepping the letters.
    classes: dict = {}
    class_of = [classes.setdefault(sigma & atoms, len(classes)) for sigma in syms]

    keys: dict = {}  # temporal atom -> fmt, for this construction's canonicalize calls
    init = canonicalize(f, keys)
    index = {init: 0}  # canonical formula -> state, in state order
    rows = [None]
    frontier = [(0, init)]
    while frontier:
        i, rep = frontier.pop()
        succ = []
        for proj in classes:
            nxt = canonicalize(progress(rep, proj), keys)
            j = index.get(nxt)
            if j is None:
                j = len(index)
                if j >= state_cap:
                    raise CapacityError(f"DFA construction exceeded {state_cap} states")
                index[nxt] = j
                rows.append(None)
                frontier.append((j, nxt))
            succ.append(j)
        rows[i] = tuple(map(succ.__getitem__, class_of))
    accepting = frozenset(i for i, rep in enumerate(index) if isinstance(rep, TrueF))
    return Dfa(
        alphabet=declared,
        states=tuple(map(fmt, index)),
        symbols=syms,
        rows=tuple(rows),
        initial=0,
        accepting=accepting,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def transitions_to_json(symbols, rows) -> list:
    """The ``transitions`` list of the automaton exports: one entry per
    state and symbol, the symbol as its sorted atoms."""
    names = [sorted(sigma) for sigma in symbols]
    return [
        {"from": i, "symbol": name, "to": j}
        for i, row in enumerate(rows)
        for name, j in zip(names, row)
    ]


def dfa_to_json(dfa: Dfa) -> dict:
    return {
        "alphabet": list(dfa.alphabet),
        "states": [{"id": i, "label": label} for i, label in enumerate(dfa.states)],
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "transitions": transitions_to_json(dfa.symbols, dfa.rows),
    }


def symbol_labels(symbols) -> list[str]:
    """Each symbol written as ``{a,b}`` for the DOT exports."""
    return ["{%s}" % ",".join(sorted(sigma)) for sigma in symbols]


def dot_escape(s: str) -> str:
    """``s`` with ``\\`` and ``"`` escaped, to stand inside a quoted DOT string."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def dfa_to_dot(dfa: Dfa, write) -> None:
    """Write the DFA in DOT through ``write``, a state's lines at a time."""
    write("digraph dfa {\n  rankdir=LR;\n")
    for i, label in enumerate(dfa.states):
        shape = "doublecircle" if i in dfa.accepting else "circle"
        write(f'  q{i} [shape={shape} label="{dot_escape(label)}"];\n')
    write(f"  init [shape=point]; init -> q{dfa.initial};\n")
    # Group parallel edges by target to keep the output readable.
    texts = symbol_labels(dfa.symbols)
    for i, row in enumerate(dfa.rows):
        by_target: dict = {}
        for text, j in zip(texts, row):
            by_target.setdefault(j, []).append(text)
        write("".join(
            f'  q{i} -> q{j} [label="{dot_escape(" ".join(labels))}"];\n'
            for j, labels in sorted(by_target.items())
        ))
    write("}\n")
