"""Contracts of the value types: one check, immutability, equality, import cost."""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

from plskit import (
    Budget,
    BudgetExceeded,
    DocumentError,
    FeasibilityReport,
    Infeasible,
    NoSaturation,
    ParameterProfile,
    PartialLatinSquare,
    PlsDocument,
    PlsError,
    PreconditionViolated,
    SweepResult,
    Triple,
    TriplePairError,
    check_sizes,
    validate,
)
import plskit
from plskit.oracle import Prescription, check_prescription


def square():
    return validate([(1, 1, 1), (1, 2, 2), (2, 1, 2)])


# class -> a function building one instance afresh, so equal twins differ in identity
INSTANCES = {
    PartialLatinSquare: square,
    Triple: lambda: Triple(1, 2, 3),
    ParameterProfile: lambda: ParameterProfile((2, 1), (2, 1), (2, 1), 3),
    Budget: lambda: Budget(max_rows=3),
    SweepResult: lambda: SweepResult(4, ((1, 2, True, False),)),
    PlsDocument: lambda: PlsDocument(((1, 1, 1),)),
    Prescription: lambda: check_prescription(rows=(2, 1), s=2),
}
each_class = pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)

# (class, keyword arguments, error) for inputs each class refuses
INVALID = [
    (PartialLatinSquare, {"triples": []}, PreconditionViolated),
    (PartialLatinSquare, {"triples": [(1, 1, 1), (1, 1, 2)]}, TriplePairError),
    (PartialLatinSquare, {"triples": [(1, 1, 1), (1, 2, 1)]}, TriplePairError),
    (PartialLatinSquare, {"triples": [(1, 1, 1), (2, 1, 1)]}, TriplePairError),
    (PartialLatinSquare, {"triples": [(0, 1, 1)]}, PreconditionViolated),
    (PartialLatinSquare, {"triples": 5}, TypeError),
    *(
        (Triple, {"row": 1, "col": 1, "sym": 1, field: bad}, PreconditionViolated)
        for field in Triple._fields
        for bad in (0, -1, True, "9")
    ),
    *(
        (Budget, {field: bad}, PreconditionViolated)
        for field in Budget._fields
        for bad in (0, -1, True, "9")
    ),
]


@pytest.mark.parametrize("cls, kwargs, error", INVALID)
def test_invalid_input_raises_the_documented_error(cls, kwargs, error):
    with pytest.raises(error):
        cls(**kwargs)


@pytest.mark.parametrize(
    "cls, kwargs, error", [case for case in INVALID if case[0] is not PartialLatinSquare]
)
def test_make_and_replace_go_through_the_same_check(cls, kwargs, error):
    valid = INSTANCES[cls]()
    with pytest.raises(error):
        valid._replace(**kwargs)
    fields = {**valid._asdict(), **kwargs}
    with pytest.raises(error):
        cls._make(fields[name] for name in cls._fields)


@pytest.mark.parametrize("cls", [ParameterProfile, FeasibilityReport], ids=lambda cls: cls.__name__)
def test_returned_types_are_plain_named_tuples(cls):
    # Only a value a caller hands in is checked; these the library builds
    # from values it has already checked, so they keep namedtuple's own
    # constructor and _make, and take any fields.
    base = cls.__mro__[1]
    assert cls.__new__ is base.__new__ and cls._make.__func__ is base._make.__func__
    odd = cls._make(range(len(cls._fields)))
    assert tuple(odd) == tuple(range(len(cls._fields)))
    assert odd._replace(**{cls._fields[0]: None})[0] is None


@each_class
def test_instances_are_immutable(cls):
    instance = INSTANCES[cls]()
    field = "triples" if cls is PartialLatinSquare else cls._fields[0]
    before = getattr(instance, field)
    with pytest.raises(AttributeError):
        setattr(instance, field, before)
    with pytest.raises(AttributeError):
        instance.extra = 1
    with pytest.raises(AttributeError):
        delattr(instance, field)
    assert getattr(instance, field) is before


@each_class
def test_equal_instances_hash_equal_and_survive_copies(cls):
    make = INSTANCES[cls]
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert type(twin) is cls and twin == first



# public error class -> a function building one instance with every attribute set
ERRORS = {
    PlsError: lambda: PlsError("boom"),
    TriplePairError: lambda: TriplePairError(
        "two triples occupy the same cell", Triple(1, 1, 1), Triple(1, 1, 2)
    ),
    NoSaturation: lambda: NoSaturation(frozenset({2, 3})),
    PreconditionViolated: lambda: PreconditionViolated("s must be a positive integer"),
    Infeasible: lambda: Infeasible("no such square", report=check_sizes(1, 1, 1, 2)),
    BudgetExceeded: lambda: BudgetExceeded("volume 9 above the budget cap 8"),
    DocumentError: lambda: DocumentError("triples must be a nonempty array"),
}
PUBLIC_ERRORS = [
    error
    for error in map(plskit.__dict__.get, plskit.__all__)
    if isinstance(error, type) and issubclass(error, PlsError)
]


@pytest.mark.parametrize("cls", PUBLIC_ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_copies_and_pickles(cls):
    error = ERRORS[cls]()
    for twin in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(twin) is cls
        assert (str(twin), twin.args, vars(twin)) == (str(error), error.args, vars(error))

def test_a_square_equals_no_tuple():
    pls = square()
    assert pls != (pls.triples,)
    assert pls != (frozenset(pls.triples),)
    assert (pls.triples,) != pls
    assert pls == validate(list(pls.triples))
    assert repr(pls) == f"PartialLatinSquare(triples={pls.triples!r})"


def test_a_square_is_validated_through_post_init(monkeypatch):
    # Wrapping the method on the class sees every construction.
    calls = []
    original = PartialLatinSquare.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(PartialLatinSquare, "__post_init__", counting)
    pls = validate([(1, 1, 1)])
    assert calls == [pls]
    with pytest.raises(PreconditionViolated):
        PartialLatinSquare(frozenset())
    assert len(calls) == 2


def test_budget_defaults():
    budget = Budget()
    assert tuple(budget) == (12, 6, 6, 6)
    assert (budget.max_cells, budget.max_rows) == (12, 6)
    assert (budget.max_cols, budget.max_symbols) == (6, 6)


def test_properties_and_classmethods_are_kept():
    params = ParameterProfile(row_params=(2, 1), col_params=(2, 1), sym_params=(1, 1, 1), volume=3)
    assert params.row_params == (2, 1) and (params.r, params.c, params.s) == (2, 2, 3)
    assert SweepResult(3, ()).clean and not SweepResult(3, ((1,),)).clean
    document = PlsDocument.from_pls(square())
    assert json.loads(document.to_json())["schema"] == "1" and document.to_pls() == square()
    assert PlsDocument.from_json(document.to_json()) == document


def test_the_public_names():
    assert sorted(plskit.__all__) == [
        "Budget", "BudgetExceeded", "Condition", "DocumentError",
        "FeasibilityReport", "Infeasible", "NoSaturation",
        "ParameterProfile", "PartialLatinSquare", "PlsDocument", "PlsError",
        "PreconditionViolated", "SweepResult", "Triple",
        "TriplePairError", "build_corollary", "build_proposition", "build_theorem",
        "check_construction", "check_row_params", "check_sizes", "conjugate",
        "enumerate_pls", "exists_full", "fill_symbols", "merge_matchings",
        "parameters_of", "render_grid", "saturating_matching", "split_symbols", "sweep_row_params",
        "sweep_sizes", "sweep_theorem", "validate",
    ]
    assert all(hasattr(plskit, name) for name in plskit.__all__)


def test_importing_the_package_and_cli_loads_no_dataclasses_inspect_or_json():
    # A fresh interpreter that finds this same copy of the package; json
    # loads only when a document is read or written.
    code = (
        "import sys; import plskit, plskit.cli; "
        "print(plskit.__file__); "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(plskit.__file__))
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.splitlines() == [plskit.__file__, "[]"]
