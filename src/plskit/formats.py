"""Serialized document formats used by the command line front end.

Both documents are JSON objects carrying an explicit schema version so
future revisions can stay backward compatible.  The grid rendering is a
display aid only; nothing parses it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Any

from . import builder
from .core import PartialLatinSquare, Triple, checked_namedtuple, validate
from .errors import BudgetExceeded, DocumentError, PreconditionViolated
from .oracle import check_prescription

SCHEMA_VERSION = "1"


def _load_object(text: str) -> dict:
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
        data = _load_object(text)
        raw = data.get("triples")
        if not isinstance(raw, list) or not raw:
            raise DocumentError("triples must be a nonempty array")
        triples = []
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != 3:
                raise DocumentError(f"each triple must be a three element array, got {entry!r}")
            try:
                triples.append(Triple(*entry))
            except ValueError as exc:
                raise DocumentError(str(exc)) from None
        return cls(tuple(triples))

    def to_pls(self) -> PartialLatinSquare:
        """Validate and wrap; clashes raise the usual validation errors."""
        return validate(self.triples)

    def to_json(self) -> str:
        return json.dumps(
            {"schema": SCHEMA_VERSION, "triples": [list(t) for t in sorted(self.triples)]}
        )


_LIST_FIELDS = ("rows", "cols", "symbols")
_SCALAR_FIELDS = ("r", "c", "s", "v")


class SpecDocument(
    checked_namedtuple(
        "SpecDocument",
        (*_LIST_FIELDS, *_SCALAR_FIELDS),
        defaults=(None,) * 7,
    )
):
    """Wire form of a prescription: parameter lists and scalar counts.

    Every field is optional, but the fields must pass the oracle's
    check_prescription: at least one constraint is present, each scalar
    matches its list's length, and all implied volumes (list totals and v)
    agree.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SpecDocument":
        # namedtuple binds the fields and their defaults; then the one
        # check runs on the seven fields, in order.
        self = super().__new__(cls, *args, **kwargs)
        try:
            check_prescription(*self)
        except PreconditionViolated as exc:
            raise DocumentError(str(exc)) from None
        return self

    @classmethod
    def from_json(cls, text: str) -> "SpecDocument":
        data = _load_object(text)
        kwargs: dict[str, Any] = {}
        for name in cls._fields:
            value = data.get(name)
            if value is not None and name in _LIST_FIELDS:
                if not isinstance(value, list):
                    raise DocumentError(f"{name} must be an array")
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)


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
