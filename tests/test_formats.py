"""Wire documents and the grid view."""

import json
import re
import tracemalloc

import pytest
from hypothesis import given

from plskit import (
    BudgetExceeded,
    DocumentError,
    PlsDocument,
    PreconditionViolated,
    TriplePairError,
    exists_full,
    render_grid,
    validate,
)
from plskit.formats import prescription_from_json

from conftest import squares


class TestPlsDocument:
    def test_round_trip_from_square(self):
        pls = validate([(2, 1, 1), (1, 1, 2)])
        doc = PlsDocument.from_pls(pls)
        again = PlsDocument.from_json(doc.to_json())
        assert again.to_pls() == pls

    def test_json_shape(self):
        doc = PlsDocument(((1, 1, 1),))
        assert json.loads(doc.to_json()) == {"schema": "1", "triples": [[1, 1, 1]]}

    def test_triples_serialize_sorted(self):
        doc = PlsDocument(((2, 1, 1), (1, 1, 2)))
        assert json.loads(doc.to_json())["triples"] == [[1, 1, 2], [2, 1, 1]]

    def test_rejects_wrong_schema(self):
        with pytest.raises(DocumentError):
            PlsDocument.from_json('{"schema": "2", "triples": [[1, 1, 1]]}')
        with pytest.raises(DocumentError):
            PlsDocument.from_json('{"triples": [[1, 1, 1]]}')

    def test_rejects_malformed_json(self):
        with pytest.raises(DocumentError):
            PlsDocument.from_json("not json")
        with pytest.raises(DocumentError):
            PlsDocument.from_json('["schema"]')

    def test_rejects_bad_triples(self):
        for payload in (
            '{"schema": "1", "triples": []}',
            '{"schema": "1", "triples": [[1, 1]]}',
            '{"schema": "1", "triples": [[1, 1, 1], 5]}',
            '{"schema": "1", "triples": "x"}',
        ):
            with pytest.raises(DocumentError):
                PlsDocument.from_json(payload)
        # A bad label is left to validate, and to_pls reports core's message.
        for triples, label in (
            ("[[1, 1, 0]]", "0"),
            ("[[1, 1, true]]", "bool"),
            ("[[1, 1, 1], [1, 2, 1.0]]", "float"),
        ):
            document = PlsDocument.from_json('{"schema": "1", "triples": %s}' % triples)
            message = f"sym label must be a positive integer, got {label}"
            with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
                document.to_pls()

    def test_a_bad_entry_is_named_by_its_type_or_length(self):
        # A message names an entry by its type or length, never its repr,
        # so a long entry gives a short message.
        for entry, refused in (
            (json.dumps(list(range(100_000))), "an array of 100000"),
            ("[1, 1]", "an array of 2"),
            ("5", "int"),
            ('"%s"' % ("x" * 100_000), "str"),
            ("null", "NoneType"),
        ):
            with pytest.raises(DocumentError) as refused_entry:
                PlsDocument.from_json('{"schema": "1", "triples": [[1, 1, 1], %s]}' % entry)
            message = f"each triple must be a three element array, got {refused}"
            assert str(refused_entry.value) == message

    def test_clashing_document_fails_at_to_pls(self):
        doc = PlsDocument.from_json('{"schema": "1", "triples": [[1, 1, 1], [1, 2, 1]]}')
        with pytest.raises(TriplePairError) as exc:
            doc.to_pls()
        assert str(exc.value) == (
            "two triples repeat a symbol within a row: (1, 1, 1) and (1, 2, 1)"
        )

    @given(squares())
    def test_round_trip_property(self, pls):
        text = PlsDocument.from_pls(pls).to_json()
        assert PlsDocument.from_json(text).to_pls() == pls


class TestPrescriptionDocument:
    # The reader checks the JSON shape only; exists_full checks the numbers.
    def test_from_json_field_types(self):
        for payload, message in (
            ('["rows"]', "document must be a JSON object"),
            ('{"rows": [2, 1]}', "unsupported schema None, expected '1'"),
            ('{"schema": "1", "rows": 2}', "rows must be an array"),
            ('{"schema": "1", "cols": "2,1"}', "cols must be an array"),
            ('{"schema": "1", "symbols": {"1": 2}}', "symbols must be an array"),
        ):
            with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
                prescription_from_json(payload)
        for payload, message in (
            ('{"schema": "1", "rows": [2, "x"]}', "rows must be a nonempty sequence"),
            ('{"schema": "1", "r": 0}', "r must be a positive integer"),
            ('{"schema": "1"}', "at least one constraint is required"),
        ):
            with pytest.raises(PreconditionViolated, match=f"^{message}"):
                exists_full(**prescription_from_json(payload))

    def test_full_document(self):
        text = '{"schema": "1", "rows": [2, 1], "cols": [2, 1], "s": 2, "v": 3}'
        assert prescription_from_json(text) == {
            "rows": [2, 1], "cols": [2, 1], "symbols": None,
            "r": None, "c": None, "s": 2, "v": 3,
        }
        found, _ = exists_full(**prescription_from_json(text))
        assert found

    def test_unknown_keys_are_refused_by_name(self):
        # A misspelt constraint must not drop out and change the question.
        fields = "a prescription takes rows, cols, symbols, r, c, s, v"
        for payload, message in (
            ('{"schema": "1", "row": [2, 1], "c": 2}', f"unknown key 'row'; {fields}"),
            ('{"schema": "1", "r": 2, "x": 1, "note": "x"}', f"unknown keys 'note', 'x'; {fields}"),
        ):
            with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
                prescription_from_json(payload)


class TestRenderGrid:
    def test_small_board(self):
        pls = validate([(1, 1, 2), (1, 2, 1), (2, 1, 1)])
        assert render_grid(pls) == "2 1\n1 ."

    def test_wide_symbols_align(self):
        pls = validate([(1, 1, 10), (2, 2, 1)])
        assert render_grid(pls) == "10  .\n .  1"

    def test_trailing_empty_rows_do_not_appear(self):
        # Height and width come from the occupied cells only.
        pls = validate([(2, 2, 1)])
        assert render_grid(pls) == ". .\n. 1"

    def test_board_above_the_cap_allocates_nothing_proportional(self):
        # One cell, but its labels span a 10**9 x 10**9 board.
        pls = validate([(10**9, 10**9, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="above the cap"):
                render_grid(pls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
