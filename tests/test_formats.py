"""Wire documents and the grid view."""

import json
import tracemalloc

import pytest
from hypothesis import given

from plskit import (
    BudgetExceeded,
    DocumentError,
    PlsDocument,
    SpecDocument,
    TriplePairError,
    render_grid,
    validate,
)

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
            '{"schema": "1", "triples": [[1, 1, 0]]}',
            '{"schema": "1", "triples": [[1, 1, true]]}',
            '{"schema": "1", "triples": "x"}',
        ):
            with pytest.raises(DocumentError):
                PlsDocument.from_json(payload)

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


class TestSpecDocument:
    def test_requires_a_constraint(self):
        with pytest.raises(DocumentError):
            SpecDocument()

    def test_scalar_list_agreement(self):
        assert SpecDocument(rows=(2, 1), r=2).r == 2
        with pytest.raises(DocumentError):
            SpecDocument(rows=(2, 1), r=3)

    def test_volume_agreement(self):
        with pytest.raises(DocumentError):
            SpecDocument(rows=(2, 1), cols=(2, 2))
        with pytest.raises(DocumentError):
            SpecDocument(rows=(2, 1), v=4)
        assert SpecDocument(rows=(2, 1), v=3).v == 3

    def test_from_json_field_types(self):
        with pytest.raises(DocumentError):
            SpecDocument.from_json('{"schema": "1", "rows": [2, "x"]}')
        with pytest.raises(DocumentError):
            SpecDocument.from_json('{"schema": "1", "r": 0}')
        with pytest.raises(DocumentError):
            SpecDocument.from_json('{"schema": "1"}')

    def test_full_document(self):
        text = '{"schema": "1", "rows": [2, 1], "cols": [2, 1], "s": 2, "v": 3}'
        doc = SpecDocument.from_json(text)
        assert doc.rows == (2, 1)
        assert doc.cols == (2, 1)
        assert (doc.s, doc.v) == (2, 3)


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
