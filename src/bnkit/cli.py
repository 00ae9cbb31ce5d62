"""Command-line front end: one subcommand per operation, deterministic
machine-readable output.

Every command emits an envelope {command, inputs, result} in one of three
formats (table, json, csv).  JSON output is canonical: keys sorted, no
floats, byte-identical across runs.  Exit codes: 0 success, 2 usage or
precondition error (with a one-line diagnostic naming the violated
precondition), 3 internal invariant violation (a bug, not a user error).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chain, invariants, lattice, loci, normal_bundle, splitting, tableaux
from .errors import InternalCheckError, ParseError, PreconditionError


def _envelope(command: str, inputs: dict, result, fmt: str) -> str:
    if fmt == "json":
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
    if not isinstance(rows[0], dict):
        rows = [{"value": r} for r in rows]
    keys = sorted(rows[0])
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_cell(row.get(k)) for k in keys))
    return "\n".join(lines)


def _cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return "" if v is None else str(v)


def _table(command: str, inputs: dict, result) -> str:
    lines = [f"{command}  " + " ".join(f"{k}={_cell(v)}" for k, v in inputs.items())]
    if isinstance(result, list):
        for row in result:
            if isinstance(row, dict):
                lines.append("  " + "  ".join(f"{k}={_cell(v)}" for k, v in sorted(row.items())))
            else:
                lines.append(f"  {_cell(row)}")
    elif isinstance(result, dict):
        for k in sorted(result):
            lines.append(f"  {k} = {_cell(result[k])}")
    else:
        lines.append(f"  {_cell(result)}")
    return "\n".join(lines)


def _grd_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-g", type=int, required=True, help="genus")
    p.add_argument("-r", type=int, required=True, help="target projective dimension")
    p.add_argument("-d", type=int, required=True, help="degree")


def _parse(flag: str, parse, text: str):
    """Parse the serialized value of ``flag``; any malformed value raises
    :class:`ParseError` naming the flag, so it exits 2 like every other
    precondition."""
    try:
        return parse(text)
    except ValueError as e:
        raise ParseError(f"malformed {flag} {text!r}: {e}") from None


def _chain_bundle(args) -> tuple[chain.LimitLineBundle, int]:
    L = _parse("--aspects", chain.parse_aspects, args.aspects)
    window = args.window if args.window is not None else chain.default_window(L)
    return L, window


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bnkit",
        description="Exact combinatorial invariants of Brill-Noether theory",
    )
    ap.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="Brill-Noether number")
    _grd_flags(p)

    p = sub.add_parser("rho-k", help="gonality-refined Brill-Noether number")
    _grd_flags(p)
    p.add_argument("-k", type=int, required=True, help="gonality")

    p = sub.add_parser("count", help="number of g^r_d's at rho = 0")
    _grd_flags(p)

    p = sub.add_parser("chi", help="Euler characteristic of the restricted tangent bundle")
    _grd_flags(p)

    p = sub.add_parser("hilbert", help="Hilbert function of a general embedded curve")
    _grd_flags(p)
    p.add_argument("-k", type=int, required=True, help="power of the hyperplane class")

    p = sub.add_parser("smrc", help="expected dimension of the maximal-rank degeneracy locus")
    _grd_flags(p)
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("interp", help="interpolation point count")
    _grd_flags(p)

    p = sub.add_parser("splitting", help="splitting-type operations")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    q = ssub.add_parser("rd", help="(r, d) of a splitting type")
    q.add_argument("-g", type=int, required=True)
    q.add_argument("-e", required=True, help="splitting type; pass leading minus as -e=-2,-2,1")
    q = ssub.add_parser("rho", help="expected dimension of a splitting locus")
    q.add_argument("-g", type=int, required=True)
    q.add_argument("-e", required=True)
    q = ssub.add_parser("maximal", help="maximal splitting types for (g, r, d, k)")
    _grd_flags(q)
    q.add_argument("-k", type=int, required=True, help="gonality")
    q = ssub.add_parser("predicates", help="basepoint-freeness / very-ampleness flags")
    q.add_argument("-e", required=True)
    q.add_argument("-r", type=int, default=None)
    q = ssub.add_parser("majorizes", help="containment order on splitting loci")
    q.add_argument("--outer", required=True)
    q.add_argument("--inner", required=True)

    p = sub.add_parser("loci", help="Brill-Noether loci in moduli")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    q = lsub.add_parser("dual", help="Serre-dual locus index")
    _grd_flags(q)
    q = lsub.add_parser("maximal", help="expected-maximality of one locus")
    _grd_flags(q)
    q = lsub.add_parser("enumerate", help="all expected-maximal loci of a genus")
    q.add_argument("-g", type=int, required=True)

    p = sub.add_parser("kfill", help="count k-fillings of a k-core")
    p.add_argument("--core", required=True, help='target core, e.g. "4,2,1,1"')
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-g", type=int, required=True, help="number of symbols")
    p.add_argument("--witnesses", action="store_true", help="list the residue words")

    p = sub.add_parser("syt", help="standard Young tableaux on a rectangle")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)

    p = sub.add_parser("chain", help="limit line bundles on an elliptic chain")
    csub = p.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
        ("h0", "h0 of one multidegree limit"),
        ("min-h0", "windowed minimum of h0 over distributions"),
        ("tables", "vanishing tables of an r-positive bundle"),
        ("star", "star components of an r-positive bundle"),
    ):
        q = csub.add_parser(name, help=helptext)
        q.add_argument("--aspects", required=True, help='e.g. "0,4;2,2;0,4" ("gen" allowed)')
        q.add_argument("--window", type=int, default=None)
        if name == "h0":
            q.add_argument("--dist", required=True, help='degree distribution, e.g. "3,0,1"')
        if name in ("tables", "star"):
            q.add_argument("-r", type=int, required=True)
    q = csub.add_parser("search", help="exhaustive symbolic (non)existence search")
    _grd_flags(q)
    q.add_argument("--window", type=int, default=None)
    q.add_argument("--max-genus", type=int, default=6)
    q.add_argument("--witnesses", action="store_true", help="list the r-positive tuples")

    p = sub.add_parser("lattice", help="the (d, g) lattice of nonnegative rho")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    q = tsub.add_parser("min-degree", help="least degree with rho >= 0")
    q.add_argument("-r", type=int, required=True)
    q.add_argument("-g", type=int, required=True)
    q = tsub.add_parser("reachable", help="lattice points inside a box")
    q.add_argument("-r", type=int, required=True)
    q.add_argument("--g-max", type=int, required=True)
    q.add_argument("--d-max", type=int, required=True)
    q = tsub.add_parser("certificate", help="h1-vanishing certificate for (d, g)")
    q.add_argument("-r", type=int, required=True)
    q.add_argument("-d", type=int, required=True)
    q.add_argument("-g", type=int, required=True)

    p = sub.add_parser("nb", help="normal-bundle ledger")
    nsub = p.add_subparsers(dest="subcommand", required=True)
    q = nsub.add_parser("project", help="projection-from-a-point ledger sequence")
    q.add_argument("-d", type=int, required=True)
    q = nsub.add_parser("odd-cert", help="balancedness certificate for odd degree")
    q.add_argument("-d", type=int, required=True)
    q = nsub.add_parser("modify", help="elementary modification of a split bundle")
    q.add_argument("--degrees", required=True, help='summand degrees, e.g. "2,1,1"')
    q.add_argument("--summand", type=int, required=True, help="0-based summand index")
    q.add_argument("--sign", choices=("+", "-"), required=True)
    q.add_argument("--points", type=int, required=True)

    return ap


def _run(args) -> tuple[str, dict, object]:
    cmd = args.command
    if cmd == "rho":
        inputs = {"g": args.g, "r": args.r, "d": args.d}
        return cmd, inputs, {"rho": invariants.rho(args.g, args.r, args.d)}
    if cmd == "rho-k":
        inputs = {"g": args.g, "r": args.r, "d": args.d, "k": args.k}
        return cmd, inputs, {"rho_k": invariants.rho_k(args.g, args.r, args.d, args.k)}
    if cmd == "count":
        inputs = {"g": args.g, "r": args.r, "d": args.d}
        return cmd, inputs, {"count": invariants.count_grd(args.g, args.r, args.d)}
    if cmd == "chi":
        inputs = {"g": args.g, "r": args.r, "d": args.d}
        return cmd, inputs, {"chi": invariants.chi_pullback_tangent(args.g, args.r, args.d)}
    if cmd == "hilbert":
        inputs = {"g": args.g, "r": args.r, "d": args.d, "k": args.k}
        return cmd, inputs, {"value": invariants.hilbert_function(args.g, args.r, args.d, args.k)}
    if cmd == "smrc":
        inputs = {"g": args.g, "r": args.r, "d": args.d, "k": args.k}
        return cmd, inputs, {
            "expected_dim": invariants.smrc_expected_dim(args.g, args.r, args.d, args.k)
        }
    if cmd == "interp":
        inputs = {"g": args.g, "r": args.r, "d": args.d}
        rep = invariants.interpolation_points(args.g, args.r, args.d)
        result = {
            "formula_value": rep.formula_value,
            "is_exception": rep.is_exception,
            "count": rep.count,
        }
        if rep.is_exception and rep.count is None:
            result["note"] = "below formula; exact count not pinned"
        return cmd, inputs, result
    if cmd == "splitting":
        return _run_splitting(args)
    if cmd == "loci":
        return _run_loci(args)
    if cmd == "kfill":
        core = _parse("--core", tableaux.parse_partition, args.core)
        inputs = {"core": args.core, "k": args.k, "g": args.g}
        result = {"count": tableaux.count_k_fillings(core, args.k, args.g)}
        if args.witnesses:
            result["witnesses"] = [
                str(w) for w in tableaux.k_filling_witnesses(core, args.k, args.g)
            ]
        return cmd, inputs, result
    if cmd == "syt":
        inputs = {"rows": args.rows, "cols": args.cols}
        return cmd, inputs, {"count": tableaux.syt_count_rect(args.rows, args.cols)}
    if cmd == "chain":
        return _run_chain(args)
    if cmd == "lattice":
        return _run_lattice(args)
    if cmd == "nb":
        return _run_nb(args)
    raise PreconditionError(f"unknown command {cmd!r}")


def _run_splitting(args):
    sc = args.subcommand
    cmd = f"splitting {sc}"
    if sc == "rd":
        e = _parse("-e", splitting.parse_splitting, args.e)
        r, d = splitting.rd_from_splitting(args.g, e)
        return cmd, {"g": args.g, "e": args.e}, {"r": r, "d": d}
    if sc == "rho":
        e = _parse("-e", splitting.parse_splitting, args.e)
        return cmd, {"g": args.g, "e": args.e}, {
            "rho_splitting": splitting.rho_splitting(args.g, e)
        }
    if sc == "maximal":
        types = splitting.maximal_splitting_types(args.g, args.r, args.d, args.k)
        return cmd, {"g": args.g, "r": args.r, "d": args.d, "k": args.k}, {
            "types": [splitting.splitting_str(t) for t in types]
        }
    if sc == "predicates":
        e = _parse("-e", splitting.parse_splitting, args.e)
        rep = splitting.hbn_predicates(e, args.r)
        return cmd, {"e": args.e, "r": args.r}, {
            "basepoint_free": rep.basepoint_free,
            "very_ample_sufficient": rep.very_ample_sufficient,
        }
    if sc == "majorizes":
        res = splitting.majorizes(
            _parse("--outer", splitting.parse_splitting, args.outer),
            _parse("--inner", splitting.parse_splitting, args.inner),
        )
        return cmd, {"outer": args.outer, "inner": args.inner}, {
            "majorizes": res.holds,
            "reason": res.reason,
        }
    raise PreconditionError(f"unknown splitting subcommand {sc!r}")


def _run_loci(args):
    sc = args.subcommand
    cmd = f"loci {sc}"
    if sc == "dual":
        g, r, d = loci.serre_dual(args.g, args.r, args.d)
        return cmd, {"g": args.g, "r": args.r, "d": args.d}, {"g": g, "r": r, "d": d}
    if sc == "maximal":
        rep = loci.expected_maximal(args.g, args.r, args.d)
        return cmd, {"g": args.g, "r": args.r, "d": args.d}, {
            "is_expected_maximal": rep.is_expected_maximal,
            "is_maximal_exception": rep.is_maximal_exception,
            "rho": rep.rho,
        }
    if sc == "enumerate":
        rows = loci.enumerate_expected_maximal(args.g)
        return cmd, {"g": args.g}, [
            {
                "g": row.g,
                "r": row.r,
                "d": row.d,
                "rho": row.rho,
                "expected_maximal": True,
                "exception": row.is_maximal_exception,
            }
            for row in rows
        ]
    raise PreconditionError(f"unknown loci subcommand {sc!r}")


def _run_chain(args):
    sc = args.subcommand
    cmd = f"chain {sc}"
    if sc == "search":
        window = args.window if args.window is not None else args.g + 1
        inputs = {"g": args.g, "r": args.r, "d": args.d, "window": window}
        res = chain.search_limit_bundles(
            args.g, args.r, args.d,
            window=window, max_genus=args.max_genus,
        )
        payload = {
            "count_exact": res.count_exact,
            "count_with_generic": res.count_with_generic,
        }
        if args.witnesses:
            payload["witnesses"] = [
                {
                    "aspects": chain.aspects_str(chain.LimitLineBundle(args.d, w.aspects)),
                    "min_h0": w.min_h0,
                }
                for w in res.witnesses
            ]
        return cmd, inputs, payload
    L, window = _chain_bundle(args)
    inputs = {"aspects": chain.aspects_str(L), "window": window}
    if sc == "h0":
        dist = _parse("--dist", chain.parse_distribution, args.dist)
        inputs["dist"] = args.dist
        return cmd, inputs, {"h0": chain.h0_chain(L, dist)}
    if sc == "min-h0":
        rep = chain.is_r_positive(L, 0, window)
        return cmd, inputs, {
            "min_h0": rep.min_h0,
            "witness": ",".join(str(x) for x in rep.witness),
        }
    if sc == "tables":
        inputs["r"] = args.r
        t = chain.vanishing_tables(L, args.r, window)
        return cmd, inputs, {
            "a": [list(row) for row in t.a_rows],
            "b": [list(row) for row in t.b_rows],
        }
    if sc == "star":
        inputs["r"] = args.r
        rep = chain.star_components(L, args.r, window)
        return cmd, inputs, {
            "pairs": [list(p) for p in rep.pairs],
            "per_n": {str(n): c for n, c in sorted(rep.per_n.items())},
            "lower_bound": rep.lower_bound,
        }
    raise PreconditionError(f"unknown chain subcommand {sc!r}")


def _run_lattice(args):
    sc = args.subcommand
    cmd = f"lattice {sc}"
    if sc == "min-degree":
        return cmd, {"r": args.r, "g": args.g}, {
            "min_degree": lattice.min_degree(args.r, args.g)
        }
    if sc == "reachable":
        pts = sorted(lattice.reachable_set(args.r, args.g_max, args.d_max))
        return cmd, {"r": args.r, "g_max": args.g_max, "d_max": args.d_max}, [
            {"d": d, "g": g} for (d, g) in pts
        ]
    if sc == "certificate":
        cert = lattice.h1_certificate(args.r, args.d, args.g)
        return cmd, {"r": args.r, "d": args.d, "g": args.g}, cert.to_payload()
    raise PreconditionError(f"unknown lattice subcommand {sc!r}")


def _run_nb(args):
    sc = args.subcommand
    cmd = f"nb {sc}"
    if sc == "project":
        seq = normal_bundle.projection_ledger(args.d)
        return cmd, {"d": args.d}, {
            "sub": seq.sub.degree,
            "quot": seq.quot.degree,
            "total_rank": seq.total_rank,
            "total_degree": seq.total_degree,
        }
    if sc == "odd-cert":
        c = normal_bundle.odd_degree_certificate(args.d)
        return cmd, {"d": args.d}, {
            "d": c.d,
            "peels": c.peels,
            "sub": c.sub,
            "quot": c.quot,
            "balanced": c.balanced,
            "total": c.total,
        }
    if sc == "modify":
        bundle = _parse(
            "--degrees", lambda s: normal_bundle.SplitBundle(s.split(",")), args.degrees
        )
        out = normal_bundle.modify(bundle, args.summand, args.sign, args.points)
        return cmd, {
            "degrees": args.degrees,
            "summand": args.summand,
            "sign": args.sign,
            "points": args.points,
        }, {"degrees": list(out.degrees)}
    raise PreconditionError(f"unknown nb subcommand {sc!r}")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        cmd, inputs, result = _run(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3
    print(_envelope(cmd, inputs, result, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
