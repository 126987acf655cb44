"""Shape checks for the JSON documents prefplan reads."""

from __future__ import annotations

STRINGS = "a list of strings"  # field kinds beyond JSON types name themselves
CELL = "a list of two numbers"  # a gridworld cell (column, row)
CELLS = "a list of cells, each a list of two numbers"
_MISSING = object()
_KIND_NAMES = {list: "a list", dict: "a JSON object", str: "a string", (int, float): "a number"}


def _matches(value, kind) -> bool:
    if kind is STRINGS:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if kind is CELL:
        return isinstance(value, list) and len(value) == 2 and all(_matches(v, (int, float)) for v in value)
    if kind is CELLS:
        return isinstance(value, list) and all(_matches(v, CELL) for v in value)
    # bool subclasses int, but a JSON true or false is not a number.
    return isinstance(value, kind) and not isinstance(value, bool)


def json_fields(doc, where: str, error: type, kinds: dict, defaults=None) -> list:
    """Values of the fields of the JSON object ``doc`` named by ``kinds``, in
    its order.  ``kinds`` maps each field to the type its value must have (or
    one of the kinds above); fields in ``defaults`` are optional.  Raises ``error``
    naming ``where`` and the offending field otherwise."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {doc!r:.60}")
    defaults, values = defaults or {}, []
    for key, kind in kinds.items():
        value = doc.get(key, defaults.get(key, _MISSING))
        if value is _MISSING:
            raise error(f"{where} has no {key!r} field")
        if not _matches(value, kind):
            raise error(f"{where}: {key!r} must be {_KIND_NAMES.get(kind, kind)}, got {value!r:.60}")
        values.append(value)
    return values
