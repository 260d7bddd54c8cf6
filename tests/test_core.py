"""Domain model: triples, validation, profiles, and conjugation."""

from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plskit import (
    ParameterProfile,
    PreconditionViolated,
    Triple,
    TriplePairError,
    build_proposition,
    build_theorem,
    check_construction,
    check_row_params,
    conjugate,
    exists_full,
    fill_symbols,
    parameters_of,
    validate,
)
from plskit.core import _Columns
from plskit.oracle import Prescription, check_prescription

from conftest import squares

AXIS_PERMS = [
    ("row", "col", "sym"),
    ("row", "sym", "col"),
    ("col", "row", "sym"),
    ("col", "sym", "row"),
    ("sym", "row", "col"),
    ("sym", "col", "row"),
]


class TestTriple:
    def test_fields_and_str(self):
        t = Triple(1, 2, 3)
        assert (t.row, t.col, t.sym) == (1, 2, 3)
        assert str(t) == "(1, 2, 3)"

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0), (True, 1, 1)])
    def test_labels_must_be_positive(self, bad):
        with pytest.raises(PreconditionViolated):
            Triple(*bad)

    def test_ordering_is_row_major(self):
        assert Triple(1, 2, 1) < Triple(1, 2, 2) < Triple(2, 1, 1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Triple(1, 1, 1).row = 2

    def test_equals_the_plain_tuple(self):
        assert Triple(1, 2, 3) == (1, 2, 3)
        assert hash(Triple(1, 2, 3)) == hash((1, 2, 3))

    @pytest.mark.parametrize(
        "bad", [(True, 1, 1), (1, True, 1), (1, 1, True), (False, 1, 1), (1.0, 1, 1), (1, 1, 1.0)]
    )
    def test_bool_and_float_labels_are_rejected(self, bad):
        with pytest.raises(PreconditionViolated):
            Triple(*bad)

    def test_int_subclass_and_huge_labels_are_accepted(self):
        class Label(int):
            pass

        assert Triple(Label(2), 1, Label(3)) == (2, 1, 3)
        assert Triple(1, 10**30, 1).col == 10**30

    def test_replace_is_checked(self):
        assert Triple(1, 2, 3)._replace(sym=4) == Triple(1, 2, 4)
        with pytest.raises(PreconditionViolated, match="row label"):
            Triple(1, 2, 3)._replace(row=0)


class TestValidate:
    def test_disjoint_triples_are_valid(self):
        pls = validate([(1, 1, 1), (2, 2, 2)])
        assert pls.volume == 2

    def test_empty_input(self):
        with pytest.raises(PreconditionViolated, match="^a partial Latin square must be nonempty$"):
            validate([])

    def test_duplicate_cell_names_the_pair(self):
        with pytest.raises(TriplePairError) as exc:
            validate([(1, 1, 1), (1, 1, 2)])
        assert exc.value.first == Triple(1, 1, 1)
        assert exc.value.second == Triple(1, 1, 2)
        assert str(exc.value) == "two triples occupy the same cell: (1, 1, 1) and (1, 1, 2)"

    def test_row_symbol_clash(self):
        with pytest.raises(TriplePairError) as exc:
            validate([(1, 1, 1), (1, 2, 1)])
        assert (exc.value.first, exc.value.second) == (Triple(1, 1, 1), Triple(1, 2, 1))
        assert str(exc.value) == (
            "two triples repeat a symbol within a row: (1, 1, 1) and (1, 2, 1)"
        )

    def test_col_symbol_clash(self):
        with pytest.raises(TriplePairError) as exc:
            validate([(1, 1, 1), (2, 1, 1)])
        assert (exc.value.first, exc.value.second) == (Triple(1, 1, 1), Triple(2, 1, 1))
        assert str(exc.value) == (
            "two triples repeat a symbol within a column: (1, 1, 1) and (2, 1, 1)"
        )

    def test_report_is_deterministic_in_row_major_order(self):
        # Three mutual duplicates: the scan must report the first two.
        with pytest.raises(TriplePairError) as exc:
            validate([(1, 1, 3), (1, 1, 2), (1, 1, 1)])
        assert exc.value.first == Triple(1, 1, 1)
        assert exc.value.second == Triple(1, 1, 2)
        assert str(exc.value) == "two triples occupy the same cell: (1, 1, 1) and (1, 1, 2)"

    @pytest.mark.parametrize(
        "bad, axis", [((0, 1, 1), "row"), ((1, True, 1), "col"), ((1, 1, 1.5), "sym")]
    )
    def test_rejects_bad_labels_naming_the_axis(self, bad, axis):
        with pytest.raises(PreconditionViolated, match=f"^{axis} label must be a positive integer"):
            validate([(1, 2, 2), bad])

    @pytest.mark.parametrize("bad", [(1, 1, True), (1, 1, 1.0), (1, [1], 1)])
    def test_a_bad_label_is_refused_before_anything_is_hashed(self, bad):
        # A label equal to an int must not collapse into the equal triple
        # before it, and an unhashable one must not end in TypeError.
        with pytest.raises(PreconditionViolated, match="label must be a positive integer"):
            validate([(1, 1, 1), bad])

    def test_rejects_a_short_triple(self):
        with pytest.raises(PreconditionViolated, match="^a triple must have three labels, got 2$"):
            validate([(1, 1)])

    @pytest.mark.parametrize(
        "triples, message",
        [
            (5, "triples must be an iterable, got int"),
            ([None], "a triple must be an iterable of three labels, got NoneType"),
            ([(1, 1, 1), 5], "a triple must be an iterable of three labels, got int"),
        ],
        ids=["int-input", "none-element", "int-element"],
    )
    def test_rejects_what_is_not_iterable_by_its_type(self, triples, message):
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            validate(triples)

    @pytest.mark.parametrize(
        "triples, message",
        [
            (lambda: [(list(range(100_000)), 1, 1)], "row label must be a positive integer, got list"),
            (lambda: [(1, object(), 1)], "col label must be a positive integer, got object"),
            (lambda: [(1, 1, True)], "sym label must be a positive integer, got bool"),
            (lambda: [(1, 1, "1")], "sym label must be a positive integer, got str"),
            (lambda: [(1, 1, -7)], "sym label must be a positive integer, got -7"),
            (lambda: [(1, 1, -(2**64) + 1)], f"sym label must be a positive integer, got {-(2**64) + 1}"),
            (lambda: [(1, 1, -(10**5000))], "sym label must be a positive integer, got an int of 16610 bits"),
        ],
        ids=["list", "object", "bool", "str", "int", "int-64-bits", "int-5001-digits"],
    )
    def test_a_bad_label_is_named_by_its_type_or_a_short_value(self, triples, message):
        # Never by its repr: fresh copies of one input read the same, and
        # the message stays short however large the label.
        refusals = set()
        for make in (validate, lambda cells: Triple(*cells[0])):
            for _ in range(2):
                with pytest.raises(PreconditionViolated) as refused:
                    make(triples())
                refusals.add(str(refused.value))
        assert refusals == {message}

    def test_exact_duplicates_collapse(self):
        assert validate([(1, 1, 1), (1, 1, 1)]).volume == 1

    def test_duplicate_cell_message(self):
        with pytest.raises(TriplePairError) as exc:
            validate([(1, 1, 2), (1, 1, 1)])
        assert str(exc.value) == "two triples occupy the same cell: (1, 1, 1) and (1, 1, 2)"

    def test_row_and_column_clash_messages(self):
        with pytest.raises(TriplePairError) as exc:
            validate([(1, 2, 1), (1, 1, 1)])
        assert str(exc.value) == (
            "two triples repeat a symbol within a row: (1, 1, 1) and (1, 2, 1)"
        )
        with pytest.raises(TriplePairError) as exc:
            validate([(2, 1, 1), (1, 1, 1)])
        assert str(exc.value) == (
            "two triples repeat a symbol within a column: (1, 1, 1) and (2, 1, 1)"
        )

    def test_accepts_triple_instances(self):
        pls = validate([Triple(1, 1, 1)])
        assert pls.sorted_triples() == (Triple(1, 1, 1),)

    def test_square_is_frozen(self):
        pls = validate([(1, 1, 1)])
        with pytest.raises(AttributeError):
            pls.triples = frozenset()


def sorted_scan(triples):
    """The clash check as a plain row-major scan over every triple."""
    checked = frozenset(Triple(*t) for t in triples)
    if not checked:
        raise PreconditionViolated("a partial Latin square must be nonempty")
    seen = ({}, {}, {})
    clashes = (
        "two triples occupy the same cell",
        "two triples repeat a symbol within a row",
        "two triples repeat a symbol within a column",
    )
    for t in sorted(checked):
        keys = ((t.row, t.col), (t.row, t.sym), (t.col, t.sym))
        for table, key, clash in zip(seen, keys, clashes):
            if key in table:
                raise TriplePairError(clash, table[key], t)
        for table, key in zip(seen, keys):
            table[key] = t
    return checked


def outcome(check, triples):
    try:
        return "ok", check(triples)
    except (PreconditionViolated, TriplePairError) as exc:
        return type(exc), str(exc), getattr(exc, "first", None), getattr(exc, "second", None)


class TestValidateMatchesTheSortedScan:
    @settings(max_examples=500)
    @given(st.lists(st.tuples(*[st.integers(1, 3)] * 3), max_size=8))
    def test_same_square_or_same_clash(self, triples):
        expected = outcome(sorted_scan, triples)
        got = outcome(lambda ts: validate(ts).triples, triples)
        assert got == expected



class Label(int):
    """An int subclass: a label the per-triple check accepts."""


def per_triple_reference(triples):
    """validate's label check one triple at a time, then sorted_scan's clash scan.

    An input or element that is not iterable, or an element without
    three labels, is refused by its type name or label count.
    """
    if not hasattr(triples, "__iter__"):
        raise PreconditionViolated(f"triples must be an iterable, got {type(triples).__name__}")
    checked = set()
    for t in triples:
        if not isinstance(t, Triple):
            if not hasattr(t, "__iter__"):
                raise PreconditionViolated(
                    f"a triple must be an iterable of three labels, got {type(t).__name__}"
                )
            t = list(t)
            if len(t) != 3:
                raise PreconditionViolated(f"a triple must have three labels, got {len(t)}")
            t = Triple(*t)
        checked.add(t)
    return sorted_scan(frozenset(checked))


def any_outcome(check, make):
    """The square, or the error with its message, of ``check`` on a fresh input."""
    try:
        return "ok", check(make())
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "first", None), getattr(exc, "second", None)


# name -> a function making the input afresh, since some inputs are one-shot
PARITY_CASES = {
    "zero-row": lambda: [(1, 2, 2), (0, 1, 1)],
    "negative-col": lambda: [(1, -1, 1)],
    "true-sym": lambda: [(1, 1, True)],
    "false-row": lambda: [(False, 1, 1)],
    "all-true": lambda: [(True, True, True)],
    "float-sym": lambda: [(1, 2, 2), (1, 1, 1.5)],
    "integral-float": lambda: [(1.0, 1, 1)],
    "none-col": lambda: [(1, None, 1)],
    "str-row": lambda: [("x", 1, 1)],
    "first-offender-in-input-order": lambda: [(1, 1, 1), (1, 0, 1), (0, 1, 1)],
    "bad-label-after-clash": lambda: [(1, 1, 1), (1, 1, 2), (0, 1, 1)],
    "int-subclass": lambda: [(Label(2), 1, Label(3)), (1, 1, 1)],
    "int-subclass-clash": lambda: [(Label(1), 1, 1), (1, 1, 2)],
    "int-subclass-zero": lambda: [(Label(0), 1, 1)],
    "huge": lambda: [(1, 10**30, 1), (10**30, 1, 1)],
    "huge-negative": lambda: [(-(10**30), 1, 1)],
    "pair": lambda: [(1, 1)],
    "quad": lambda: [(1, 1, 1, 1)],
    "mixed-arity": lambda: [(1, 1, 1), (2, 2)],
    "pairs-only": lambda: [(1, 1), (2, 2), (3, 3)],
    "empty-element": lambda: [()],
    "arity-before-label": lambda: [(1, 1), (0, 1, 1)],
    "label-before-arity": lambda: [(0, 1, 1), (1, 1)],
    "non-iterable-element": lambda: [(1, 1, 1), 5],
    "none-element": lambda: [None],
    "non-iterable-input": lambda: 5,
    "empty-list": lambda: [],
    "empty-generator": lambda: (t for t in ()),
    "lists": lambda: [[1, 1, 1], [1, 2, 2], [2, 1, 2]],
    "list-with-bad-label": lambda: [[1, 1, 1], [1, 2, 0]],
    "set-elements": lambda: [{1, 2, 3}, {4, 5, 6}],
    "short-set-element": lambda: [{1}],
    "set-input": lambda: {(1, 1, 1), (1, 2, 2), (1, 2, 1)},
    "frozenset-input": lambda: frozenset({(1, 1, 1), (2, 2, 2)}),
    "tuple-input": lambda: ((1, 1, 1), (2, 1, 1)),
    "triples": lambda: [Triple(1, 1, 1), Triple(1, 2, 1)],
    "triples-and-tuples": lambda: [Triple(1, 1, 1), (1, 1, 1), (2, 2, 2)],
    "generator": lambda: ((i, i, 1) for i in (1, 2, 0)),
    "clean-generator": lambda: ((i, j, (i + j) % 3 + 1) for i in (1, 2, 3) for j in (1, 2, 3)),
    "iterator-elements": lambda: [iter((1, 1, 1)), iter((2, 2, 2))],
    "iterator-then-bad-label": lambda: [iter((1, 1, 1)), (0, 2, 2)],
    "bad-iterator-then-non-iterable": lambda: [iter((0, 1, 1)), 5],
    "generator-element": lambda: [(k for k in (1, 1, 1)), (1, 2, 2)],
    "string-element": lambda: ["abc"],
    "bytes-element": lambda: [bytes((1, 2, 3))],
    "range-element": lambda: [range(1, 4), (2, 1, 1)],
    "dict-input": lambda: {(1, 1, 1): None, (2, 2, 2): None},
    "bad-label-behind-unhashable": lambda: [[0, 1, 1], (1, 1, 1)],
}

ODD_LABELS = st.sampled_from([0, -1, True, False, 1.5, None, "x", 10**30, Label(2)])
LABELS = st.one_of(st.integers(1, 3), ODD_LABELS)
ELEMENT_KINDS = ("tuple", "list", "iterator", "generator", "triple", "scalar")
INPUT_KINDS = ("list", "tuple", "set", "frozenset", "generator")


def make_element(kind, labels):
    if kind == "list":
        return list(labels)
    if kind == "iterator":
        return iter(labels)
    if kind == "generator":
        return (k for k in labels)
    if kind == "triple":
        try:
            return Triple(*labels)
        except (TypeError, ValueError):
            return tuple(labels)
    if kind == "scalar":
        return labels[0] if labels else None
    return tuple(labels)


def make_input(kind, recipe):
    if kind in ("set", "frozenset"):
        # A set iterates its elements in hash order, so only elements that
        # hash alike on every build keep the first offender fixed.
        elements = [tuple(labels) for _, labels in recipe]
        return set(elements) if kind == "set" else frozenset(elements)
    elements = [make_element(*entry) for entry in recipe]
    if kind == "generator":
        return (t for t in elements)
    return elements if kind == "list" else tuple(elements)


class TestValidateMatchesThePerTripleCheck:
    # The bulk label check must give exactly what the per-triple check
    # gave: the same square, or the same first offender's error.
    @pytest.mark.parametrize("make", PARITY_CASES.values(), ids=PARITY_CASES)
    def test_corpus(self, make):
        got = any_outcome(lambda ts: validate(ts).triples, make)
        assert got == any_outcome(per_triple_reference, make)

    @settings(max_examples=500)
    @given(
        st.sampled_from(INPUT_KINDS),
        st.lists(
            st.tuples(
                st.sampled_from(ELEMENT_KINDS),
                st.one_of(st.lists(LABELS, min_size=3, max_size=3), st.lists(LABELS, max_size=4)),
            ),
            max_size=6,
        ),
    )
    def test_random_inputs(self, kind, recipe):
        make = lambda: make_input(kind, recipe)  # noqa: E731
        got = any_outcome(lambda ts: validate(ts).triples, make)
        assert got == any_outcome(per_triple_reference, make)


# A list of triples as label columns of plain ints, or as triples of an
# int subclass, which the column check refuses and the scan accepts.
BOTH_PATHS = pytest.mark.parametrize(
    "form",
    [lambda ts: _Columns(zip(*ts)), lambda ts: [tuple(map(Label, t)) for t in ts]],
    ids=["columns", "per-triple"],
)


class TestHugeLabels:
    # The clash check keys each projection as one int.  Labels past float
    # precision must neither merge two distinct pairs nor hide a clash, on
    # the column path and the per-triple path.
    @BOTH_PATHS
    def test_rows_apart_only_past_float_precision(self, form):
        assert float(2**53) == float(2**53 + 1)
        pls = validate(form([(2**53, 1, 1), (2**53 + 1, 1, 2)]))
        assert pls.triples == {(2**53, 1, 1), (2**53 + 1, 1, 2)}

    @BOTH_PATHS
    @pytest.mark.parametrize(
        "offsets, clash, first, second",
        [
            (
                [(0, 1, 0), (0, 1, 2)],
                "two triples occupy the same cell",
                (0, 1, 0),
                (0, 1, 2),
            ),
            (
                [(0, 1, 2), (0, 0, 2)],
                "two triples repeat a symbol within a row",
                (0, 0, 2),
                (0, 1, 2),
            ),
            (
                [(1, 0, 0), (0, 0, 0)],
                "two triples repeat a symbol within a column",
                (0, 0, 0),
                (1, 0, 0),
            ),
        ],
        ids=["cell", "row", "column"],
    )
    def test_each_clash_near_10_to_the_30(self, form, offsets, clash, first, second):
        big = 10**30
        first, second = (Triple(*(big + d for d in t)) for t in (first, second))
        with pytest.raises(TriplePairError) as exc:
            validate(form([tuple(big + d for d in t) for t in offsets]))
        assert (exc.value.first, exc.value.second) == (first, second)
        assert str(exc.value) == f"{clash}: {first} and {second}"

    @pytest.mark.parametrize(
        "triples",
        [[(1, 4, 1), (2, 1, 2)], [(1, 1, 4), (2, 2, 1)]],
        ids=["column-above-symbols", "symbol-above-columns"],
    )
    def test_the_key_base_exceeds_every_column_and_symbol(self, triples):
        # A base of one above the symbols alone, or the columns alone,
        # would give these two pairs the same key.
        assert validate(triples).volume == 2

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(*[st.sampled_from([1, 2, 2**53, 2**53 + 1, 10**30, 10**30 + 1])] * 3),
            max_size=8,
        )
    )
    def test_same_square_or_same_clash_as_the_sorted_scan(self, triples):
        expected = outcome(sorted_scan, triples)
        assert outcome(lambda ts: validate(ts).triples, triples) == expected


@st.composite
def variants(draw):
    """The sorted triples of a square from ``squares``, as is or with one
    fault: a repeated cell, a row or column clash, or a bad label."""
    triples = [tuple(t) for t in draw(squares()).sorted_triples()]
    fault = draw(st.sampled_from(["none", "duplicate", "cell", "row", "column", "label"]))
    at = draw(st.integers(0, len(triples) - 1))
    i, j, k = triples[at]
    top = max(map(max, zip(*triples))) + 1
    if fault == "label":
        axis = draw(st.integers(0, 2))
        bad = list(triples[at])
        bad[axis] = draw(st.sampled_from([0, True, 1.0]))
        triples[at] = tuple(bad)
    elif fault != "none":
        extra = {"duplicate": (i, j, k), "cell": (i, j, top), "row": (i, top, k),
                 "column": (top, j, k)}[fault]
        triples.insert(draw(st.integers(0, len(triples))), extra)
    return triples


class TestColumnsMatchTheTriples:
    # A build hands validate its square as three label columns; every
    # input must give the square or the refusal its triple list gives.
    @settings(max_examples=500)
    @given(variants())
    def test_same_square_or_same_refusal(self, triples):
        columns = _Columns(list(axis) for axis in zip(*triples))
        assert outcome(validate, columns) == outcome(validate, triples)

    def test_empty_columns(self):
        assert outcome(validate, _Columns(([], [], []))) == outcome(validate, [])


@st.composite
def relabelled_squares(draw):
    """A square from ``squares`` whose labels on each axis are sent to
    distinct labels that skip values and need not keep their order."""
    pls = draw(squares())
    maps = [
        dict(enumerate(draw(st.lists(st.integers(1, 10**6), min_size=4, max_size=4, unique=True)), 1))
        for _ in range(3)
    ]
    return validate(tuple(m[label] for m, label in zip(maps, t)) for t in pls.triples)


class TestParametersOf:
    def test_single_cell(self):
        profile = parameters_of(validate([(1, 1, 1)]))
        assert profile == ParameterProfile((1,), (1,), (1,), 1)
        assert (profile.r, profile.c, profile.s) == (1, 1, 1)

    def test_latin_square_2x2(self):
        pls = validate([(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)])
        profile = parameters_of(pls)
        assert profile == ParameterProfile((2, 2), (2, 2), (2, 2), 4)

    def test_three_cell_square(self):
        pls = validate([(1, 1, 1), (1, 2, 2), (2, 1, 2)])
        profile = parameters_of(pls)
        assert profile.row_params == (2, 1)
        assert profile.col_params == (2, 1)
        assert profile.sym_params == (1, 2)

    def test_params_follow_increasing_label_order(self):
        # Row 7 holds one cell, row 9 holds two.
        pls = validate([(9, 1, 1), (9, 2, 2), (7, 1, 2)])
        assert parameters_of(pls).row_params == (1, 2)

    @given(st.one_of(squares(), relabelled_squares()))
    def test_profile_matches_a_count_per_label(self, pls):
        # A profile is not checked on construction, so this is where its
        # families are shown to be tuples of counts in label order.
        profile = parameters_of(pls)
        expected = []
        for labels in zip(*pls.triples):
            expected.append(tuple(labels.count(label) for label in sorted(set(labels))))
        assert profile == (*expected, pls.volume)
        assert all(type(family) is tuple for family in profile[:3])
        assert all(sum(family) == profile.volume for family in profile[:3])


class TestConjugate:
    def test_identity(self):
        pls = validate([(1, 2, 3)])
        assert conjugate(pls, ("row", "col", "sym")) == pls

    def test_row_sym_swap(self):
        pls = validate([(1, 2, 3)])
        assert conjugate(pls, ("sym", "col", "row")) == validate([(3, 2, 1)])

    @pytest.mark.parametrize(
        "perm", [("row", "row", "sym"), ("row", 1, "sym"), ("row", ["col"], "sym"), ("row", "col")]
    )
    def test_rejects_non_permutation(self, perm):
        with pytest.raises(PreconditionViolated, match="^perm must be a permutation"):
            conjugate(validate([(1, 1, 1)]), perm)

    @pytest.mark.parametrize(
        "perm, refused",
        [
            (lambda: (object(), 1, 2), "(object, 1, 2)"),
            (lambda: ("row", ["col"] * 100_000, "sym"), "('row', list, 'sym')"),
            (lambda: ("row", "row", "s" * 100_000), "('row', 'row', str)"),
            (lambda: list(range(100_000)), "100000 entries"),
            (lambda: ("row", "col"), "2 entries"),
            (lambda: 10**5000, "an int of 16610 bits"),
        ],
    )
    def test_a_refused_perm_is_named_by_its_axes_types_or_length(self, perm, refused):
        # Every fresh copy of a perm reads the same, and a long one briefly.
        pls = validate([(1, 1, 1)])
        messages = set()
        for _ in range(2):
            with pytest.raises(PreconditionViolated) as refusal:
                conjugate(pls, perm())
            messages.add(str(refusal.value))
        assert messages == {f"perm must be a permutation of ('row', 'col', 'sym'), got {refused}"}

    @given(squares(), st.sampled_from(AXIS_PERMS))
    def test_six_conjugations_undo(self, pls, perm):
        # Every permutation of three axes has order 1, 2 or 3.
        out = pls
        for _ in range(6):
            out = conjugate(out, perm)
        assert out == pls

    @given(squares(), st.sampled_from(AXIS_PERMS))
    def test_profile_permutes_with_the_axes(self, pls, perm):
        before = parameters_of(pls)
        after = parameters_of(conjugate(pls, perm))
        by_axis = {
            "row": before.row_params,
            "col": before.col_params,
            "sym": before.sym_params,
        }
        assert after.row_params == by_axis[perm[0]]
        assert after.col_params == by_axis[perm[1]]
        assert after.sym_params == by_axis[perm[2]]


class Two(IntEnum):
    TWO = 2


def one_shot(*items):
    return (item for item in items)


# A fresh value each, and whether the positivity rule accepts it as a count or label.
POSITIVITY_VALUES = [
    pytest.param(lambda: True, False, id="True"),
    pytest.param(lambda: False, False, id="False"),
    pytest.param(lambda: 1.0, False, id="1.0"),
    pytest.param(lambda: 0, False, id="0"),
    pytest.param(lambda: -1, False, id="-1"),
    pytest.param(lambda: "1", False, id="'1'"),
    pytest.param(lambda: None, False, id="None"),
    pytest.param(lambda: Two.TWO, True, id="IntEnum-2"),
    pytest.param(lambda: 10**30, True, id="10**30"),
    pytest.param(tuple, False, id="()"),
    pytest.param(lambda: one_shot(1), False, id="generator"),
]

FAMILY = "must be a nonempty sequence of positive integers"


def prescribed(expect, **given):
    """check_prescription(**given): a Prescription equal to the plain
    seven-tuple expect() reads, and the same by field name."""
    result = check_prescription(**given)
    expected = expect()
    assert type(result) is Prescription and result == expected
    assert tuple(getattr(result, field) for field in Prescription._fields) == expected
    return result

# Each call reads one count or label: the error type and message of a
# refusal, and whether it reads None as a count left unset.
POSITIVITY_ROUTES = [
    pytest.param(lambda x: check_construction((1,), (1,), x),
                 PreconditionViolated, "s must be a positive integer", False, id="construction-s"),
    pytest.param(lambda x: check_construction((x,), (1,), 1),
                 PreconditionViolated, f"n {FAMILY}", False, id="construction-n"),
    pytest.param(lambda x: check_construction((2,), (1, x), 2),
                 PreconditionViolated, f"m {FAMILY}", False, id="construction-m"),
    pytest.param(lambda x: check_row_params((1,), x, 1),
                 PreconditionViolated, "c must be a positive integer", False, id="row-params-c"),
    pytest.param(lambda x: check_row_params((1, x), 1, 1),
                 PreconditionViolated, f"n {FAMILY}", False, id="row-params-n"),
    pytest.param(
        lambda x: prescribed(lambda: ((2, x), None, None, 2, None, None, 2 + x), rows=(2, x)),
        PreconditionViolated, f"rows {FAMILY}", False, id="prescription-rows",
    ),
    pytest.param(lambda x: prescribed(lambda: (None, None, None, 1, None, None, x), r=1, v=x),
                 PreconditionViolated, "v must be a positive integer", True, id="prescription-v"),
    pytest.param(lambda x: validate([(1, 1, 1), (2, 2, x)]), PreconditionViolated,
                 "sym label must be a positive integer, got {label}", False, id="validate"),
]


@pytest.mark.parametrize("call, error, message, none_is_unset", POSITIVITY_ROUTES)
@pytest.mark.parametrize("make, accepted", POSITIVITY_VALUES)
def test_every_count_and_label_meets_one_positivity_rule(
    make, accepted, call, error, message, none_is_unset
):
    # The plain-int fast paths must accept and refuse exactly what the
    # full rule does, and refuse with the same error.
    value = make()
    if accepted or (value is None and none_is_unset):
        call(value)
    else:
        with pytest.raises(error) as refused:
            call(value)
        # A label is named by its value when a plain int, else by its type.
        label = value if type(value) is int else type(value).__name__
        assert str(refused.value) == message.format(label=label)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda seq: check_construction(seq, (1,), 1), f"n {FAMILY}"),
        (lambda seq: check_row_params(seq, 1, 1), f"n {FAMILY}"),
        (
            lambda seq: prescribed(lambda: ((1,), None, None, 1, None, None, 1), rows=seq),
            f"rows {FAMILY}",
        ),
    ],
    ids=["construction", "row-params", "prescription"],
)
def test_a_family_is_any_nonempty_iterable_read_once(call, message):
    call(one_shot(1))
    with pytest.raises(PreconditionViolated) as refused:
        call(())
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_construction(5, (1,), 1), f"n {FAMILY}"),
        (lambda: check_construction((1,), 5, 1), f"m {FAMILY}"),
        (lambda: check_row_params(None, 1, 1), f"n {FAMILY}"),
        (lambda: exists_full(rows=5), f"rows {FAMILY}"),
        (lambda: build_theorem(5, (1,), 1), f"n {FAMILY}"),
        (lambda: build_theorem((1,), 5, 1), f"m {FAMILY}"),
        (lambda: build_proposition(5, 1, 1), f"n {FAMILY}"),
        (lambda: fill_symbols(5), "cells must be an iterable, got int"),
        (
            lambda: conjugate(validate([(1, 1, 1)]), 5),
            "perm must be a permutation of ('row', 'col', 'sym'), got 5",
        ),
    ],
    ids=[
        "construction-n", "construction-m", "row-params", "exists-full", "theorem-n",
        "theorem-m", "proposition", "fill-symbols", "conjugate",
    ],
)
def test_a_sequence_argument_that_is_not_iterable_is_refused(call, message):
    with pytest.raises(PreconditionViolated) as refused:
        call()
    assert str(refused.value) == message


def test_a_square_is_any_nonempty_iterable_read_once():
    assert validate(one_shot((1, 1, 1), (2, 2, 1))).volume == 2
    with pytest.raises(PreconditionViolated, match="^a partial Latin square must be nonempty$"):
        validate(())
