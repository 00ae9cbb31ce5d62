"""The record contract and the import cost of the CLI.

Every public record is an immutable named tuple.  Its ``repr``, its
refusal to be assigned to, its hash and the exceptions its validating
constructor raises are pinned here; the ``repr`` strings are the ones the
earlier frozen-dataclass records printed.  Importing ``bnkit.cli`` must not
load ``dataclasses``, ``inspect`` or ``typing``, which nothing on the CLI
path needs.
"""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bnkit
from bnkit import chain, invariants, lattice, loci, normal_bundle, splitting, tableaux
from bnkit.errors import InternalCheckError, PreconditionError

RUNNING = chain.LimitLineBundle(4, ((0, 4), (2, 2), (4, 0)))

# one instance of each public record: a factory and its repr
RECORDS = {
    "LimitLineBundle": (
        lambda: chain.LimitLineBundle(4, ((0, 4), (2, 2), (4, 0))),
        "LimitLineBundle(d=4, aspects=((0, 4), (2, 2), (4, 0)))",
    ),
    "ComponentBundle": (
        lambda: chain.ComponentBundle((0, 4), 1, 2, 4),
        "ComponentBundle(base=(0, 4), left_twist=1, right_twist=2, aspect_degree=4)",
    ),
    "RPositivityReport": (
        lambda: chain.is_r_positive(RUNNING, 1),
        "RPositivityReport(is_r_positive=True, min_h0=3, witness=(-1, 1, 4))",
    ),
    "VanishingTable": (
        lambda: chain.vanishing_tables(RUNNING, 1),
        "VanishingTable(r=1, d=4, g=3, a_rows=((0, 1), (2, 3), (2, 4)), "
        "b_rows=((1, 2), (0, 2), (0, 1)))",
    ),
    "StarReport": (
        lambda: chain.star_components(RUNNING, 1),
        "StarReport(pairs=((2, 0), (3, 1)), per_n={0: 1, 1: 1}, lower_bound=0)",
    ),
    "SearchWitness": (
        lambda: chain.search_witnesses(2, 1, 2)[0],
        "SearchWitness(aspects=((0, 2), (2, 0)), min_h0=2)",
    ),
    "SearchResult": (
        lambda: chain.search_limit_bundles(2, 1, 2, window=1),
        "SearchResult(count_exact=1, count_with_generic=0)",
    ),
    "FillingWitness": (
        lambda: tableaux.k_filling_witnesses((4, 2, 1, 1), 3, 5)[0],
        "FillingWitness(residues=(0, 1, 2, 1, 0), k=3)",
    ),
    "MoveStep": (
        lambda: lattice.h1_certificate(3, 4, 1).steps[0],
        "MoveStep(move='B', bundle=SplitBundle(degrees=(-1, -1, 0)), h1=0)",
    ),
    "MoveCertificate": (
        lambda: lattice.h1_certificate(3, 4, 1),
        "MoveCertificate(r=3, d=4, g=1, moves='B', steps=(MoveStep(move='B', "
        "bundle=SplitBundle(degrees=(-1, -1, 0)), h1=0),), "
        "base_bundle=SplitBundle(degrees=(4, 4, 4)), chi=16)",
    ),
    "InterpolationReport": (
        lambda: invariants.interpolation_points(2, 3, 5),
        "InterpolationReport(formula_value=10, is_exception=True, count=9)",
    ),
    "MajorizationResult": (
        lambda: splitting.majorizes((0, 2), (1, 1)),
        "MajorizationResult(holds=False, reason='prefix-exceeds')",
    ),
    "HbnPredicates": (
        lambda: splitting.hbn_predicates((-1, 0, 1, 2)),
        "HbnPredicates(basepoint_free=True, very_ample_sufficient=True)",
    ),
    "Containment": (
        lambda: loci.trivial_containments(8, 1, 4)[0],
        "Containment(g=8, r=1, d=5, full_moduli=False)",
    ),
    "ExpectedMaximalReport": (
        lambda: loci.expected_maximal(8, 1, 4),
        "ExpectedMaximalReport(is_expected_maximal=True, is_maximal_exception=True, "
        "rho=-2, d_formula=4)",
    ),
    "ExpectedMaximalRow": (
        lambda: loci.enumerate_expected_maximal(8)[0],
        "ExpectedMaximalRow(g=8, r=1, d=4, rho=-2, is_maximal_exception=True)",
    ),
    "SplitBundle": (
        lambda: normal_bundle.SplitBundle([2, 1, 1]),
        "SplitBundle(degrees=(2, 1, 1))",
    ),
    "LedgerSequence": (
        lambda: normal_bundle.projection_ledger(3),
        "LedgerSequence(sub=SplitBundle(degrees=(5,)), quot=SplitBundle(degrees=(5,)), "
        "total_rank=2, total_degree=10)",
    ),
    "OddDegreeCertificate": (
        lambda: normal_bundle.odd_degree_certificate(5),
        "OddDegreeCertificate(d=5, peels=1, reduced_degree=4, sub=8, quot=8, balanced=True, "
        "conclusion=(9, 9), total=18)",
    ),
}

UNHASHABLE = {"StarReport"}  # per_n is a dict


def _bnkit_classes():
    for info in pkgutil.iter_modules(bnkit.__path__):
        module = importlib.import_module(f"bnkit.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield name, obj


def test_every_public_record_has_a_row():
    records = {name for name, cls in _bnkit_classes()
               if issubclass(cls, tuple) and not name.startswith("_")}
    assert records == set(RECORDS)


def test_no_dataclasses():
    assert [name for name, cls in _bnkit_classes() if hasattr(cls, "__dataclass_fields__")] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = Path(bnkit.__file__).resolve().parents[1]
    modules = {"dataclasses", "inspect", "typing"}
    code = f"import sys, bnkit.cli; print(sorted({modules!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    make, expected = RECORDS[name]
    rec, twin = make(), make()
    assert type(rec).__name__ == name
    assert repr(rec) == expected
    assert tuple(rec) == tuple(getattr(rec, f) for f in rec._fields)
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert rec == twin
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)


def test_limit_line_bundle_from_lists_is_the_tuple_record():
    L = chain.LimitLineBundle(4, [[0, 4], [2, 2], [4, 0]])
    assert L == chain.parse_aspects("0,4;2,2;0,4")
    assert hash(L) == hash(RUNNING)


REFUSALS = [
    (lambda: normal_bundle.SplitBundle([]),
     PreconditionError, "a split bundle needs at least one summand"),
    (lambda: normal_bundle.SplitBundle([2.5]),
     TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: chain.LimitLineBundle(4, ((0, 4), (2, 1))),
     PreconditionError, "aspect 2 = (2, 1) does not have total degree 4"),
    (lambda: chain.LimitLineBundle(4, ()),
     PreconditionError, "a chain needs at least one component"),
    (lambda: normal_bundle.LedgerSequence(
        normal_bundle.SplitBundle([1]), normal_bundle.SplitBundle([2]), 3, 3),
     InternalCheckError, "ledger sequence rank additivity failed"),
    (lambda: normal_bundle.LedgerSequence(
        normal_bundle.SplitBundle([1]), normal_bundle.SplitBundle([2]), 2, 4),
     InternalCheckError, "ledger sequence degree additivity failed"),
    # _replace validates like the constructor
    (lambda: normal_bundle.SplitBundle([2])._replace(degrees=[]),
     PreconditionError, "a split bundle needs at least one summand"),
    (lambda: RUNNING._replace(aspects=((0, 4), (2, 1))),
     PreconditionError, "aspect 2 = (2, 1) does not have total degree 4"),
    (lambda: normal_bundle.projection_ledger(3)._replace(total_degree=9),
     InternalCheckError, "ledger sequence degree additivity failed"),
    (lambda: tableaux.FillingWitness((0, 1), 1),
     PreconditionError, "need k >= 2, got k=1"),
    (lambda: tableaux.FillingWitness((0, 1), 3)._replace(residues=(0, "1")),
     TypeError, "need an integer residue, got residue='1'"),
]


@pytest.mark.parametrize("make,exc,message", REFUSALS)
def test_validated_record_refusals(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_filling_witness_keeps_a_tuple_of_ints_and_reads_anything_else():
    word = (0, 1, 2)
    assert tableaux.FillingWitness(word, 3).residues is word
    assert tableaux.FillingWitness(word, 3)._replace(k=4).residues is word
    for given in ([True, 0, 2], (True, 0, 2), iter([1, 0, 2])):
        residues = tableaux.FillingWitness(given, 3).residues
        assert residues == (1, 0, 2)
        assert {*map(type, residues)} == {int}


@pytest.mark.parametrize("kind", [list, tuple, iter, lambda xs: (x for x in xs)],
                         ids=["list", "tuple", "iterator", "generator"])
def test_filling_witness_names_a_bad_residue_however_it_is_given(kind):
    # a one-shot iterator is read once, so its bad item is still named
    with pytest.raises(TypeError) as info:
        tableaux.FillingWitness(kind([0, 1.5, 2]), 3)
    assert str(info.value) == "need an integer residue, got residue=1.5"
