"""Serialized document formats used by the command line front end.

Both documents are JSON objects carrying an explicit schema version so
future revisions can stay backward compatible.  Reading a document checks
only its JSON shape and its keys; its numbers are checked once, by the
library: a square's labels by validate, a prescription's counts, under the
names of oracle.Prescription's fields, by check_prescription.
The grid rendering is a display aid only; nothing parses it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any

from . import builder
from .core import PartialLatinSquare, validate
from .errors import BudgetExceeded, DocumentError
from .oracle import FAMILIES, Prescription

SCHEMA_VERSION = "1"


def _load_object(text: str) -> dict:
    # json loads here, not at import: a command that reads no document
    # never pays for it.
    import json

    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past the interpreter's digit limit.
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema {schema!r}, expected {SCHEMA_VERSION!r}")
    return data


class PlsDocument(namedtuple("PlsDocument", ("triples",))):
    """Wire form of one partial Latin square: a list of triples."""

    __slots__ = ()

    @classmethod
    def from_pls(cls, pls: PartialLatinSquare) -> "PlsDocument":
        return cls(pls.sorted_triples())

    @classmethod
    def from_json(cls, text: str) -> "PlsDocument":
        """Read the document's shape: a nonempty array of three element arrays.

        The labels are left to to_pls, which checks them once with the rest
        of the square.
        """
        data = _load_object(text)
        raw = data.get("triples")
        if not isinstance(raw, list) or not raw:
            raise DocumentError("triples must be a nonempty array")
        for entry in raw:
            # Named by its type or length, never its repr, as validate does.
            if not isinstance(entry, list):
                refused = type(entry).__name__
            elif len(entry) != 3:
                refused = f"an array of {len(entry)}"
            else:
                continue
            raise DocumentError(f"each triple must be a three element array, got {refused}")
        return cls(tuple(map(tuple, raw)))

    def to_pls(self) -> PartialLatinSquare:
        """Validate and wrap: a bad label raises DocumentError, a clash TriplePairError."""
        try:
            return validate(self.triples)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"schema": SCHEMA_VERSION, "triples": [list(t) for t in sorted(self.triples)]}
        )


def prescription_from_json(text: str) -> dict[str, Any]:
    """A prescription document's constraints, as exists_full keyword arguments.

    The document may give any Prescription field, FAMILIES as lists and the
    rest as counts, each None when absent, and no other key.  Only its JSON
    shape is checked here; check_prescription checks its numbers, under the
    same names.
    """
    data = _load_object(text)
    unknown = data.keys() - {"schema", *Prescription._fields}
    if unknown:
        noun = "key" if len(unknown) == 1 else "keys"
        raise DocumentError(
            f"unknown {noun} {', '.join(map(repr, sorted(unknown)))}; "
            f"a prescription takes {', '.join(Prescription._fields)}"
        )
    for name in FAMILIES:
        if not isinstance(data.get(name), (list, type(None))):
            raise DocumentError(f"{name} must be an array")
    return {name: data.get(name) for name in Prescription._fields}


def render_grid(pls: PartialLatinSquare) -> str:
    """Row-major board view with '.' for empty cells.  Display only.

    The board spans rows 1..max row and columns 1..max column; one of more
    than builder.MAX_CELLS positions raises BudgetExceeded, undrawn.
    """
    height = max(t.row for t in pls.triples)
    width = max(t.col for t in pls.triples)
    if height * width > builder.MAX_CELLS:
        raise BudgetExceeded(
            f"grid of {height} x {width} positions above the cap of {builder.MAX_CELLS}"
        )
    cells = {(t.row, t.col): t.sym for t in pls.triples}
    digits = max(len(str(t.sym)) for t in pls.triples)
    lines = []
    for i in range(1, height + 1):
        entries = [
            str(cells.get((i, j), ".")).rjust(digits) for j in range(1, width + 1)
        ]
        lines.append(" ".join(entries))
    return "\n".join(lines)
