"""Command-line front end: one subcommand per operation, deterministic
machine-readable output.

Every command emits an envelope {command, inputs, result} in one of three
formats (table, json, csv).  JSON output is canonical: keys sorted, no
floats, byte-identical across runs.  CSV cells holding a comma, a double
quote or a line break are quoted as in RFC 4180.  Exit codes: 0 success,
2 usage or precondition error (with a one-line diagnostic naming the
violated precondition), 3 internal invariant violation (a bug, not a user
error).

A command is one entry of ``COMMANDS``: its name, help text, flags and a
function from the parsed arguments to the result payload.  The parser tree
is built from that table, and every command runs through the one wrapper
in :func:`main`: parse, read, run, envelope.  A process runs one command,
so ``main`` builds only the branch of the tree that its argv names, and
``json`` is imported only for JSON output.  A flag of serialized text
names its reader, a library parse function, and ``main`` reads every such
value before ``run``, so ``run`` receives values, never text.  ``inputs``
echo the declared flags in order, except switches: a serialized value as
typed, or in the canonical form its flag declares.  A defaulted chain
``--window`` is the one value filled in at run time.  Adding a command
means adding one entry.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import namedtuple

from . import chain, invariants, lattice, loci, normal_bundle, splitting, tableaux
from .errors import InternalCheckError, PreconditionError, require


def _envelope(command: str, inputs: dict, result, fmt: str) -> str:
    if fmt == "json":
        import json  # only JSON output needs it

        return json.dumps(
            {"command": command, "format": fmt, "inputs": inputs, "result": result},
            sort_keys=True,
        )
    if fmt == "csv":
        return _csv(result)
    return _table(command, inputs, result)


def _csv(result) -> str:
    rows = result if isinstance(result, list) else [result]
    if not rows:
        return ""
    keys = sorted(rows[0])
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k)) for k in keys))
    return "\n".join(lines)


def _csv_cell(v) -> str:
    s = _cell(v)
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return "" if v is None else str(v)


def _table(command: str, inputs: dict, result) -> str:
    lines = [f"{command}  " + " ".join(f"{k}={_cell(v)}" for k, v in inputs.items())]
    if isinstance(result, dict):
        for k in sorted(result):
            lines.append(f"  {k} = {_cell(result[k])}")
    else:  # a list of dicts, one line each
        for row in result:
            lines.append("  " + "  ".join(f"{k}={_cell(v)}" for k, v in sorted(row.items())))
    return "\n".join(lines)


class _Flag(namedtuple("_Flag", "name spec read show", defaults=(None, None))):
    """One option: its name, its ``add_argument`` keywords and, for serialized
    text, the library function that reads it and the one that writes its echo
    (the text as typed when None).  ``inputs`` echo all but switches."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")

    @property
    def echo(self) -> bool:
        return self.spec.get("action") != "store_true"


def _str(name: str, help: str | None = None, read=None, show=None, **spec) -> _Flag:
    """A value flag, required unless it has a default; see :class:`_Flag`."""
    return _Flag(name, {"required": "default" not in spec, "help": help, **spec}, read, show)


def _int(name: str, help: str | None = None, **spec) -> _Flag:
    return _str(name, help, type=int, **spec)


def _switch(name: str, help: str) -> _Flag:
    return _Flag(name, {"action": "store_true", "help": help})


class _Command(namedtuple("_Command", "name help flags run")):
    """A leaf command.  ``run`` maps the parsed arguments, every serialized
    value already read, to the result payload: a dict or a list of dicts."""

    __slots__ = ()


def _fields(obj, *names: str) -> dict:
    return {n: getattr(obj, n) for n in names}


def _read(cmd: _Command, args) -> dict:
    """Replace each serialized text in ``args`` by its value and return their
    echoes; a malformed value is a :class:`PreconditionError` naming its flag."""
    shown = {}
    for f in cmd.flags:
        if f.read is not None:
            text = getattr(args, f.dest)
            try:
                value = f.read(text)
            except ValueError as e:
                raise PreconditionError(f"malformed {f.name} {text!r}: {e}") from None
            setattr(args, f.dest, value)
            shown[f.dest] = text if f.show is None else f.show(value)
    return shown


def _interp(a) -> dict:
    rep = invariants.interpolation_points(a.g, a.r, a.d)
    result = _fields(rep, "formula_value", "is_exception", "count")
    if rep.is_exception and rep.count is None:
        result["note"] = "below formula; exact count not pinned"
    return result


def _enumerate_loci(a) -> list:
    return [
        {**_fields(row, "g", "r", "d", "rho"),
         "expected_maximal": True, "exception": row.is_maximal_exception}
        for row in loci.enumerate_expected_maximal(a.g)
    ]


def _kfill(a) -> dict:
    if not a.witnesses:
        return {"count": tableaux.count_k_fillings(a.core, a.k, a.g)}
    words = [str(w) for w in tableaux.k_filling_witnesses(a.core, a.k, a.g)]
    return {"count": len(words), "witnesses": words}


def _windowed(run, genus=lambda a: a.aspects.g):
    """``run`` with the default ``--window`` filled in for the echo and a
    negative one refused, also by ``chain h0``, which sweeps no window."""
    def windowed(a):
        if a.window is None:
            a.window = chain.default_window(genus(a))
        require(0, window=a.window)
        return run(a)
    return windowed


def _min_h0(a) -> dict:
    rep = chain.is_r_positive(a.aspects, 0, a.window)
    return {"min_h0": rep.min_h0, "witness": ",".join(str(x) for x in rep.witness)}


def _tables(a) -> dict:
    t = chain.vanishing_tables(a.aspects, a.r, a.window)
    return {"a": [list(row) for row in t.a_rows], "b": [list(row) for row in t.b_rows]}


def _star(a) -> dict:
    rep = chain.star_components(a.aspects, a.r, a.window)
    return {
        "pairs": [list(p) for p in rep.pairs],
        "per_n": {str(n): c for n, c in sorted(rep.per_n.items())},
        "lower_bound": rep.lower_bound,
    }


def _certificate(a) -> dict:
    cert = lattice.h1_certificate(a.r, a.d, a.g)
    return {
        "moves": cert.moves,
        "steps": [{"move": s.move, "bundle": list(s.bundle.degrees), "h1": s.h1}
                  for s in cert.steps],
        "chi": cert.chi,
    }


def _search(a) -> dict:
    if not a.witnesses:
        res = chain.search_limit_bundles(a.g, a.r, a.d, window=a.window)
        return _fields(res, "count_exact", "count_with_generic")
    hits = chain.search_witnesses(a.g, a.r, a.d, window=a.window)
    exact = sum(None not in w.aspects for w in hits)
    rows = [{"aspects": chain.aspects_str(chain.LimitLineBundle(a.d, w.aspects)),
             "min_h0": w.min_h0} for w in hits]
    return {"count_exact": exact, "count_with_generic": len(hits) - exact, "witnesses": rows}


def _project(a) -> dict:
    seq = normal_bundle.projection_ledger(a.d)
    return {"sub": seq.sub.degree, "quot": seq.quot.degree,
            **_fields(seq, "total_rank", "total_degree")}


_GRD = (_int("-g", "genus"), _int("-r", "target projective dimension"), _int("-d", "degree"))
_GONALITY = _int("-k", "gonality")
_WINDOW = _int("--window", default=None)
_BUNDLE = (_str("--aspects", 'e.g. "0,4;2,2;0,4" ("gen" allowed)', read=chain.parse_aspects,
                show=chain.aspects_str), _WINDOW)
_TYPE = _str("-e", "splitting type; pass leading minus as -e=-2,-2,1",
             read=splitting.parse_splitting)

GROUPS = {
    "splitting": "splitting-type operations",
    "loci": "Brill-Noether loci in moduli",
    "chain": "limit line bundles on an elliptic chain",
    "lattice": "the (d, g) lattice of nonnegative rho",
    "nb": "normal-bundle ledger",
}

COMMANDS = [
    _Command("rho", "Brill-Noether number", _GRD,
             lambda a: {"rho": invariants.rho(a.g, a.r, a.d)}),
    _Command("rho-k", "gonality-refined Brill-Noether number", (*_GRD, _GONALITY),
             lambda a: {"rho_k": invariants.rho_k(a.g, a.r, a.d, a.k)}),
    _Command("count", "number of g^r_d's at rho = 0", _GRD,
             lambda a: {"count": invariants.count_grd(a.g, a.r, a.d)}),
    _Command("chi", "Euler characteristic of the restricted tangent bundle", _GRD,
             lambda a: {"chi": invariants.chi_pullback_tangent(a.g, a.r, a.d)}),
    _Command("hilbert", "Hilbert function of a general embedded curve",
             (*_GRD, _int("-k", "power of the hyperplane class")),
             lambda a: {"value": invariants.hilbert_function(a.g, a.r, a.d, a.k)}),
    _Command("smrc", "expected dimension of the maximal-rank degeneracy locus",
             (*_GRD, _int("-k")),
             lambda a: {"expected_dim": invariants.smrc_expected_dim(a.g, a.r, a.d, a.k)}),
    _Command("interp", "interpolation point count", _GRD, _interp),
    _Command("splitting rd", "(r, d) of a splitting type",
             (_int("-g"), _TYPE), lambda a: dict(zip("rd", splitting.rd_from_splitting(a.g, a.e)))),
    _Command("splitting rho", "expected dimension of a splitting locus", (_int("-g"), _TYPE),
             lambda a: {"rho_splitting": splitting.rho_splitting(a.g, a.e)}),
    _Command("splitting maximal", "maximal splitting types for (g, r, d, k)", (*_GRD, _GONALITY),
             lambda a: {"types": [splitting.splitting_str(t) for t in
                                  splitting.maximal_splitting_types(a.g, a.r, a.d, a.k)]}),
    _Command("splitting predicates", "basepoint-freeness / very-ampleness flags",
             (_TYPE,), lambda a: _fields(splitting.hbn_predicates(a.e),
                                        "basepoint_free", "very_ample_sufficient")),
    _Command("splitting majorizes", "containment order on splitting loci",
             (_str("--outer", read=splitting.parse_splitting),
              _str("--inner", read=splitting.parse_splitting)),
             lambda a: dict(zip(("majorizes", "reason"), splitting.majorizes(a.outer, a.inner)))),
    _Command("loci dual", "Serre-dual locus index", _GRD,
             lambda a: dict(zip("grd", loci.serre_dual(a.g, a.r, a.d)))),
    _Command("loci maximal", "expected-maximality of one locus", _GRD,
             lambda a: _fields(loci.expected_maximal(a.g, a.r, a.d),
                               "is_expected_maximal", "is_maximal_exception", "rho")),
    _Command("loci enumerate", "all expected-maximal loci of a genus", (_int("-g"),),
             _enumerate_loci),
    _Command("kfill", "count k-fillings of a k-core",
             (_str("--core", 'target core, e.g. "4,2,1,1"', read=tableaux.parse_partition),
              _int("-k"), _int("-g", "number of symbols"),
              _switch("--witnesses", "list the residue words")), _kfill),
    _Command("syt", "standard Young tableaux on a rectangle", (_int("--rows"), _int("--cols")),
             lambda a: {"count": tableaux.syt_count_rect(a.rows, a.cols)}),
    _Command("chain h0", "h0 of one multidegree limit",
             (*_BUNDLE, _str("--dist", 'degree distribution, e.g. "3,0,1"',
                             read=chain.parse_distribution)),
             _windowed(lambda a: {"h0": chain.h0_chain(a.aspects, a.dist)})),
    _Command("chain min-h0", "windowed minimum of h0 over distributions", _BUNDLE,
             _windowed(_min_h0)),
    _Command("chain tables", "vanishing tables of an r-positive bundle",
             (*_BUNDLE, _int("-r")), _windowed(_tables)),
    _Command("chain star", "star components of an r-positive bundle", (*_BUNDLE, _int("-r")),
             _windowed(_star)),
    _Command("chain search", "branch-and-bound search that finds every r-positive aspect tuple",
             (*_GRD, _WINDOW, _switch("--witnesses", "list the r-positive tuples")),
             _windowed(_search, lambda a: a.g)),
    _Command("lattice min-degree", "least degree with rho >= 0", (_int("-r"), _int("-g")),
             lambda a: {"min_degree": lattice.min_degree(a.r, a.g)}),
    _Command("lattice reachable", "lattice points inside a box",
             (_int("-r"), _int("--g-max"), _int("--d-max")),
             lambda a: [{"d": d, "g": g}
                        for d, g in sorted(lattice.reachable_set(a.r, a.g_max, a.d_max))]),
    _Command("lattice certificate", "h1-vanishing certificate for (d, g)",
             (_int("-r"), _int("-d"), _int("-g")), _certificate),
    _Command("nb project", "projection-from-a-point ledger sequence", (_int("-d"),), _project),
    _Command("nb odd-cert", "balancedness certificate for odd degree", (_int("-d"),),
             lambda a: _fields(normal_bundle.odd_degree_certificate(a.d),
                               "d", "peels", "sub", "quot", "balanced", "total")),
    _Command("nb modify", "elementary modification of a split bundle",
             (_str("--degrees", 'summand degrees, e.g. "2,1,1"',
                   read=normal_bundle.parse_split_bundle),
              _int("--summand", "0-based summand index"),
              _str("--sign", choices=("+", "-")), _int("--points")),
             lambda a: {"degrees": list(normal_bundle.modify(a.degrees, a.summand, a.sign,
                                                             a.points).degrees)}),
]


_FORMATS = ("table", "json", "csv")
_NAMED = {tuple(cmd.name.split(" ")): cmd.name for cmd in COMMANDS}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser tree of ``COMMANDS``, or of the one entry named
    ``command``, built once per process and shared by every caller, so no
    caller may change it.  A one-entry tree parses its command's argv as
    the whole tree does; only its top-level usage lists that one name."""
    ap = argparse.ArgumentParser(
        prog="bnkit",
        description="Exact combinatorial invariants of Brill-Noether theory",
    )
    ap.add_argument("--format", choices=_FORMATS, default="table", help="output format")
    sub = {"": ap.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        if command is not None and cmd.name != command:
            continue
        group, _, leaf = cmd.name.rpartition(" ")
        if group not in sub:
            p = sub[""].add_parser(group, help=GROUPS[group])
            sub[group] = p.add_subparsers(dest="subcommand", required=True)
        p = sub[group].add_parser(leaf, help=cmd.help)
        for flag in cmd.flags:
            p.add_argument(flag.name, **flag.spec)
        p.set_defaults(leaf_command=cmd)
    return ap


def _named(argv: list[str]) -> str | None:
    """The ``COMMANDS`` entry that ``argv`` names right after an optional
    exact ``--format VALUE`` or ``--format=VALUE``, else None."""
    heads = [["--format", f] for f in _FORMATS] + [[f"--format={f}"] for f in _FORMATS]
    i = next((len(h) for h in heads if argv[:len(h)] == h), 0)
    return _NAMED.get(tuple(argv[i:i + 1])) or _NAMED.get(tuple(argv[i:i + 2]))


def main(argv: list[str] | None = None) -> int:
    """Run one command: parse ``argv`` (``sys.argv[1:]`` when None), read,
    run and print its envelope; return the exit code.  Only the named
    command's parsers are built.  An argv that names none, or that leaves
    arguments over, is parsed by the whole tree, so that its usage and
    errors read the same."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, rest = build_parser(_named(argv)).parse_known_args(argv)
        if rest:
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    cmd = args.leaf_command
    try:
        shown = _read(cmd, args)
        result = cmd.run(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3
    inputs = {f.dest: shown.get(f.dest, getattr(args, f.dest)) for f in cmd.flags if f.echo}
    try:
        text = _envelope(cmd.name, inputs, result, args.format)
    except ValueError:  # str() of an int past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        print(f"error: the answer has more than {limit} digits", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
