"""The integer-domain rule at every public entry point.

Each row of ``DOMAIN`` is one public function with in-domain keyword
arguments.  Replacing its genus, rank or gonality by an out-of-domain
value must raise :class:`PreconditionError`, replacing its genus, rank,
gonality or degree by the same value as a float must raise
:class:`TypeError`, and every public function of a bnkit module that
takes a parameter named g, r or k must have a row, so a new entry point
cannot skip the rule.
"""

import importlib
import inspect
import pkgutil

import pytest

import bnkit
from bnkit import chain, invariants, lattice, loci, normal_bundle, splitting, tableaux
from bnkit.errors import PreconditionError

import oracles

RUNNING = chain.parse_aspects("0,4;2,2;0,4")

DOMAIN = {
    invariants.rho: dict(g=8, r=2, d=7),
    invariants.rho_k: dict(g=8, r=2, d=7, k=4),
    invariants.count_grd: dict(g=4, r=1, d=3),
    invariants.chi_pullback_tangent: dict(g=2, r=3, d=5),
    invariants.hilbert_function: dict(g=2, r=3, d=5, k=2),
    invariants.smrc_expected_dim: dict(g=13, r=5, d=16, k=2),
    invariants.interpolation_points: dict(g=2, r=3, d=5),
    tableaux.is_core: dict(p=(4, 2, 1, 1), k=3),
    tableaux.core_apply_residue: dict(p=(), residue=0, k=3),
    tableaux.core_length: dict(p=(4, 2, 1, 1), k=3),
    tableaux.count_k_fillings: dict(target=(4, 2, 1, 1), k=3, g=5),
    tableaux.k_filling_witnesses: dict(target=(4, 2, 1, 1), k=3, g=5),
    splitting.rd_from_splitting: dict(g=5, parts=(-2, -2, 1)),
    splitting.rho_splitting: dict(g=5, parts=(-3, -1, 1)),
    splitting.maximal_splitting_types: dict(g=8, r=1, d=4, k=3),
    loci.serre_dual: dict(g=12, r=1, d=3),
    loci.trivial_containments: dict(g=8, r=1, d=4),
    loci.expected_maximal: dict(g=8, r=1, d=4),
    loci.enumerate_expected_maximal: dict(g=7),
    chain.default_window: dict(g=3),
    chain.aspect_options: dict(g=3, d=4, window=1),
    chain.is_r_positive: dict(L=RUNNING, r=2),
    chain.vanishing_tables: dict(L=RUNNING, r=2),
    chain.star_components: dict(L=RUNNING, r=2),
    chain.search_limit_bundles: dict(g=3, r=2, d=4),
    chain.search_witnesses: dict(g=3, r=2, d=4),
    lattice.min_degree: dict(r=3, g=4),
    lattice.reachable_set: dict(r=3, g_max=2, d_max=5),
    lattice.h1_certificate: dict(r=3, d=5, g=2),
    normal_bundle.pointing_degree: dict(d=5, q_position="off_tangents"),
    # two stated bounds, checked in the oracles
    oracles.rho_splitting_vs_gonality: dict(g=8, r=2, d=7, k=4),
    oracles.sqrt_bound_holds: dict(g=8, r=1, d=4),
}


def _out_of_domain(f) -> dict:
    # hilbert_function's k is the power of the hyperplane class, defined from 1 on
    return {"g": -1, "r": -1, "k": 0 if f is invariants.hilbert_function else 1}


CASES = [
    (f, name, bad)
    for f, kwargs in DOMAIN.items()
    for name, bad in _out_of_domain(f).items()
    if name in kwargs
]


def _id(f) -> str:
    return f.__qualname__


@pytest.mark.parametrize("f", DOMAIN, ids=_id)
def test_in_domain_call_succeeds(f):
    f(**DOMAIN[f])


@pytest.mark.parametrize("f,name,bad", CASES, ids=[f"{_id(f)}-{n}" for f, n, _ in CASES])
def test_out_of_domain_argument_is_a_precondition_error(f, name, bad):
    with pytest.raises(PreconditionError):
        f(**{**DOMAIN[f], name: bad})


# an in-domain value as a float, e.g. g=8.0 or d=7.0, is not an integer either,
# nor is a float degree too large for the window guard
FLOAT_CASES = [
    pytest.param(f, name, float(kwargs[name]), id=f"{_id(f)}-{name}")
    for f, kwargs in DOMAIN.items() for name in "grkd" if name in kwargs
] + [pytest.param(chain.search_limit_bundles, "d", 1e7, id="search_limit_bundles-d-oversized")]


@pytest.mark.parametrize("f,name,value", FLOAT_CASES)
def test_float_argument_is_a_type_error(f, name, value):
    with pytest.raises(TypeError, match=f"need an integer {name}"):
        f(**{**DOMAIN[f], name: value})


# other integer scalars are read the same way: a float residue, total or
# index raises TypeError naming it, instead of acting as its floor or its value
SPLIT = normal_bundle.SplitBundle((2, 1, 1))
SCALAR_CASES = {
    "core_apply_residue-residue-1.5": (lambda: tableaux.core_apply_residue((), 1.5, 3), "residue"),
    "core_apply_residue-residue-0.0": (lambda: tableaux.core_apply_residue((), 0.0, 3), "residue"),
    "FillingWitness.replay-residue": (lambda: tableaux.FillingWitness((0, 1.0), 3).replay(),
                                      "residue"),
    "FillingWitness-k": (lambda: tableaux.FillingWitness((0,), 3.0), "k"),
    "FillingWitness-residue": (lambda: tableaux.FillingWitness((0, 1.0), 3), "residue"),
    "balanced_type-total": (lambda: splitting.balanced_type(3, 4.5), "total"),
    "chain.chip_fire-i": (lambda: chain.chip_fire((1, 2, 0), 2.0), "i"),
    "chain.prefix_fire-i": (lambda: chain.prefix_fire((1, 2, 0), 1.0), "i"),
    "chain.aspect_options-window": (lambda: chain.aspect_options(3, 4, 1.0), "window"),
    "odd_degree_certificate-d-4.0": (lambda: normal_bundle.odd_degree_certificate(4.0), "d"),
    "odd_degree_certificate-d-str": (lambda: normal_bundle.odd_degree_certificate("4"), "d"),
    "modify-summand_index": (lambda: normal_bundle.modify(SPLIT, 1.0, "+", 1), "summand_index"),
    "hh_restriction-summand_index": (lambda: normal_bundle.hh_restriction(SPLIT, [0, 1.0]),
                                     "summand_index"),
}


@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
def test_float_scalar_is_a_type_error(case):
    call, name = SCALAR_CASES[case]
    with pytest.raises(TypeError, match=f"need an integer {name}, got {name}="):
        call()


def test_every_entry_point_with_g_r_or_k_has_a_row():
    public = set()
    for info in pkgutil.iter_modules(bnkit.__path__):
        module = importlib.import_module(f"bnkit.{info.name}")
        for name, f in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(f)
                and f.__module__ == module.__name__
                and {"g", "r", "k"} & set(inspect.signature(f).parameters)
            ):
                public.add(f"{module.__name__}.{name}")
    covered = {f"{f.__module__}.{_id(f)}" for f in DOMAIN}
    assert sorted(public - covered) == []


# Integers only: each validator of an integer sequence refuses a float or a
# numeric string with TypeError, as range() does, instead of truncating or
# parsing it.  Every sequence below is valid with 3 in place of the bad entry.
INTEGER_SEQUENCES = {
    "check_partition": lambda x: tableaux.check_partition((4, x, 1)),
    "check_splitting": lambda x: splitting.check_splitting((-2, x, 1)),
    "chain._check_dist": lambda x: chain.h0_chain(RUNNING, (x, 0, 1)),
    "chain.chip_fire": lambda x: chain.chip_fire((1, x, 0), 2),
    "chain.prefix_fire": lambda x: chain.prefix_fire((1, x, 0), 2),
    "LimitLineBundle": lambda x: chain.LimitLineBundle(4, ((0, 4), (x, 1), (4, 0))),
    "SplitBundle": lambda x: normal_bundle.SplitBundle((2, x, 1)),
}


@pytest.mark.parametrize("bad", [2.7, "3"])
@pytest.mark.parametrize("name", sorted(INTEGER_SEQUENCES))
def test_integer_sequence_refuses_non_integers(name, bad):
    INTEGER_SEQUENCES[name](3)
    with pytest.raises(TypeError):
        INTEGER_SEQUENCES[name](bad)
