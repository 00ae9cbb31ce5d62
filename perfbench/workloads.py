"""The four bnkit workloads.

Each workload generates its inputs from a seed, runs one query at a
time (a closed loop with a single caller: the next query is sent only
after the previous one returned), checks every answer by means that do
not share the fast path's code, and turns the spans of a traced pass
into per-layer metrics.

Interface of a workload class:

- ``__init__(bn, seed, tiny)`` generates ``self.queries``; ``tiny``
  selects a few-second size used by the self-test and to fill the other
  workloads' layer metrics in a traced run;
- ``run(q, tr)`` answers one query, calling bnkit through ``tr.call``
  so that a traced pass records a span per public call;
- ``check(q, answer, tr)`` returns a failure message or None;
- ``layer_phase(tr)`` does traced-only measurements that are not part
  of a pass (only ``cli`` has any);
- ``layer_metrics(self_ns, calls, answers, extra)`` computes the
  per-layer metrics of one traced pass.
"""

from __future__ import annotations

import io
import json
import random
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import prod

from harness import ROOT, median, run_child

GOLDENS = ROOT / "perfbench" / "cli_goldens.json"


def _ms(ns) -> float:
    return ns / 1e6


class Workload:
    name = ""
    layer_units: dict[str, str] = {}

    def run(self, q, tr):
        raise NotImplementedError

    def check(self, q, answer, tr):
        raise NotImplementedError

    def layer_phase(self, tr):
        return None

    def peak_rss_mib(self, answers) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def metrics(self, values: dict) -> dict:
        return {k: {"value": v, "unit": self.layer_units[k]} for k, v in values.items()}


# Why: the library's hot path.  _forward_dp_step and h0_twisted take 93% of
# the search's time; the 96 small grid searches show per-call overhead
# and the three g = 5 searches show the inner loop.  Inputs are fixed;
# the seed sets only the query order.
class Search(Workload):
    name = "search"
    layer_units = {
        "chain.search_limit_bundles.self_ms": "ms",
        "chain.search.tuples": "count",
        "chain.search.ns_per_tuple": "ns",
        "chain.search.hit_ratio": "ratio",
    }

    def __init__(self, bn, seed: int, tiny: bool = False):
        self.bn = bn
        # the criterion 7 grid: g <= 4, 1 <= d <= 6, 0 <= r <= 3, window g+1
        top = 2 if tiny else 4
        grid = [(g, r, d) for g in range(1, top + 1) for d in range(1, 7) for r in range(4)]
        big = [] if tiny else [(5, 1, 3), (5, 1, 4), (5, 2, 6)]  # rho = -1, 1, 2
        self.queries = grid + big
        random.Random(seed).shuffle(self.queries)

    def run(self, q, tr):
        g, r, d = q
        return tr.call("chain.search_limit_bundles", self.bn.chain.search_limit_bundles, g, r, d, g + 1)

    def check(self, q, res, tr):
        g, r, d = q
        inv = self.bn.invariants
        p = inv.rho(g, r, d)
        if p < 0 and res.total != 0:
            return f"rho = {p} < 0 but the search found {res.total} tuples"
        if p >= 0 and res.total == 0:
            return f"rho = {p} >= 0 but the search found nothing"
        if p == 0 and res.count_exact != inv.count_grd(g, r, d):
            return f"count_exact {res.count_exact} != count_grd {inv.count_grd(g, r, d)}"
        return None

    def tuples(self, q) -> int:
        """Computed: the size of the enumerated tuple space."""
        g, r, d = q
        return prod(len(o) for o in self.bn.chain.aspect_options(g, d, g + 1))

    def layer_metrics(self, self_ns, calls, answers, extra):
        ns = self_ns.get("chain.search_limit_bundles", 0)
        tuples = sum(self.tuples(q) for q in self.queries)
        hits = sum(a.total for a in answers if not isinstance(a, Exception))
        return self.metrics({
            "chain.search_limit_bundles.self_ms": _ms(ns),
            "chain.search.tuples": tuples,
            "chain.search.ns_per_tuple": ns / tuples,
            "chain.search.hit_ratio": hits / tuples,
        })


def _window_width(d: int, w: int) -> int:
    """Number of prefix-sum states in the DP window, as the engine sets it."""
    return max(d + w, 0) - min(-w, d) + 1


# Why: the backward suffix DP and the h0_chain sweep are the other copies
# of the gluing recursion, and the search never enters them; a kernel
# unification that speeds search but slows these paths shows here.
# Stratified: every (g, d) cell gets the same number of bundles, so the
# seed moves only the aspects, not the mix of sizes.
class Certify(Workload):
    name = "certify"
    layer_units = {
        "chain.is_r_positive.self_ms": "ms",
        "chain.vanishing_tables.self_ms": "ms",
        "chain.star_components.self_ms": "ms",
        "chain.suffix_dp.cells": "count",
        "chain.suffix_dp.ns_per_cell": "ns",
        "chain.h0_chain.us_per_call": "us",
    }
    PER_CELL = 4

    def __init__(self, bn, seed: int, tiny: bool = False):
        self.bn = bn
        rng = random.Random(seed)
        genera = range(6, 8) if tiny else range(6, 13)
        reps = 1 if tiny else self.PER_CELL
        self.queries = []
        for g in genera:
            for d in range(g - 3, g + 4):
                opts = bn.chain.aspect_options(g, d, g + 1)
                for _ in range(reps):
                    aspects = tuple(rng.choice(o) for o in opts)
                    self.queries.append(bn.chain.LimitLineBundle(d, aspects))
        rng.shuffle(self.queries)

    def run(self, L, tr):
        ch = self.bn.chain
        w = L.g + 1
        rep = tr.call("chain.is_r_positive", ch.is_r_positive, L, 0, w)
        rep2 = tr.call("chain.is_r_positive", ch.is_r_positive, L, 0, 2 * w)
        h0 = tr.call("chain.h0_chain", ch.h0_chain, L, rep.witness)
        tables = star = None
        r = rep.min_h0 - 1
        if r >= 0:
            tables = tr.call("chain.vanishing_tables", ch.vanishing_tables, L, r, w)
            star = tr.call("chain.star_components", ch.star_components, L, r, w)
        return rep, rep2, h0, tables, star

    def check(self, L, ans, tr):
        rep, rep2, h0, tables, star = ans
        if h0 != rep.min_h0:
            return f"h0_chain at the witness is {h0}, min_h0 is {rep.min_h0}"
        if rep2.min_h0 != rep.min_h0:
            return f"min_h0 {rep.min_h0} at w differs from {rep2.min_h0} at 2w"
        r = rep.min_h0 - 1
        if r >= 0:
            if len(tables.a_rows) != L.g or any(len(row) != r + 1 for row in tables.a_rows):
                return f"vanishing table has the wrong shape for g={L.g}, r={r}"
            if star.lower_bound != L.g - L.d + r or sorted(star.per_n) != list(range(r + 1)):
                return "star report does not match (g, d, r)"
        return None

    def cells(self, L, ans) -> int:
        """Computed: sum of g * W^2 over the suffix-DP passes of one query
        (min h0 at w and 2w, plus tables and star when r >= 0)."""
        g, d, w = L.g, L.d, L.g + 1
        one = g * _window_width(d, w) ** 2
        n = one + g * _window_width(d, 2 * w) ** 2
        if not isinstance(ans, Exception) and ans[0].min_h0 >= 1:
            n += 2 * one
        return n

    def layer_metrics(self, self_ns, calls, answers, extra):
        cells = sum(self.cells(L, a) for L, a in zip(self.queries, answers))
        dp_ns = sum(
            self_ns.get(k, 0)
            for k in ("chain.is_r_positive", "chain.vanishing_tables", "chain.star_components")
        )
        h0_calls = calls.get("chain.h0_chain", 0)
        return self.metrics({
            "chain.is_r_positive.self_ms": _ms(self_ns.get("chain.is_r_positive", 0)),
            "chain.vanishing_tables.self_ms": _ms(self_ns.get("chain.vanishing_tables", 0)),
            "chain.star_components.self_ms": _ms(self_ns.get("chain.star_components", 0)),
            "chain.suffix_dp.cells": cells,
            "chain.suffix_dp.ns_per_cell": dp_ns / cells,
            "chain.h0_chain.us_per_call": self_ns.get("chain.h0_chain", 0) / 1e3 / max(h0_calls, 1),
        })


# The command list: (module family, --format, exit code the documented
# 0/2/3 contract requires, arguments).  Every family appears in all
# three formats; JSON outputs are checked byte for byte against goldens.
CLI_COMMANDS = [
    ("invariants", "json", 0, "rho -g 8 -r 2 -d 7"),
    ("invariants", "table", 0, "rho-k -g 12 -r 2 -d 7 -k 3"),
    ("invariants", "json", 0, "count -g 4 -r 1 -d 3"),
    ("invariants", "csv", 0, "chi -g 2 -r 3 -d 5"),
    ("invariants", "json", 0, "hilbert -g 2 -r 3 -d 5 -k 2"),
    ("invariants", "json", 0, "smrc -g 13 -r 5 -d 16 -k 2"),
    ("invariants", "json", 0, "interp -g 2 -r 3 -d 5"),
    ("invariants", "json", 2, "count -g 8 -r 2 -d 7"),  # rho != 0
    ("invariants", "json", 2, "rho -g 8 -r 2"),  # usage: -d missing
    ("splitting", "json", 0, "splitting rd -g 5 -e=-2,-2,1"),
    ("splitting", "table", 0, "splitting rho -g 5 -e=-3,-1,1"),
    ("splitting", "json", 0, "splitting maximal -g 8 -r 2 -d 7 -k 4"),
    ("splitting", "csv", 0, "splitting predicates -e=-2,-2,1"),
    ("splitting", "json", 0, "splitting majorizes --outer=-2,-2,1 --inner=-3,-1,1"),
    ("loci", "json", 0, "loci dual -g 12 -r 1 -d 3"),
    ("loci", "table", 0, "loci maximal -g 8 -r 1 -d 4"),
    ("loci", "csv", 0, "loci enumerate -g 8"),
    ("tableaux", "json", 0, "kfill --core 4,2,1,1 -k 3 -g 5 --witnesses"),
    ("tableaux", "csv", 0, "kfill --core 4,2,1,1 -k 3 -g 5"),
    ("tableaux", "table", 0, "syt --rows 2 --cols 3"),
    ("tableaux", "json", 0, "syt --rows 4 --cols 6"),
    ("tableaux", "json", 2, "kfill --core 3 -k 3 -g 3"),  # not a 3-core
    ("chain", "json", 0, "chain h0 --aspects 0,4;2,2;0,4 --dist 3,0,1"),
    ("chain", "table", 0, "chain min-h0 --aspects 0,4;2,2;0,4"),
    ("chain", "json", 0, "chain tables --aspects 0,4;2,2;0,4 -r 2"),
    ("chain", "csv", 0, "chain star --aspects 0,4;2,2;0,4 -r 2"),
    ("chain", "json", 0, "chain search -g 3 -r 2 -d 4 --witnesses"),
    ("chain", "json", 0, "chain search -g 4 -r 2 -d 6"),
    ("chain", "json", 2, "chain search -g 7 -r 1 -d 6"),  # over the genus budget
    ("chain", "json", 2, "chain tables --aspects 0,4;2,2;0,4 -r 3"),  # not 3-positive
    ("lattice", "json", 0, "lattice min-degree -r 3 -g 4"),
    ("lattice", "csv", 0, "lattice reachable -r 3 --g-max 2 --d-max 5"),
    ("lattice", "table", 0, "lattice certificate -r 3 -d 5 -g 2"),
    ("normal_bundle", "json", 0, "nb project -d 3"),
    ("normal_bundle", "table", 0, "nb odd-cert -d 5"),
    ("normal_bundle", "csv", 0, "nb modify --degrees 2,1,1 --summand 0 --sign - --points 1"),
    ("normal_bundle", "json", 2, "nb odd-cert -d 4"),  # even degree
]

# Malformed values the contract says exit 2.  At the time this list was
# written they exit 1 (raw ValueError) or 3.  They run in every cli run and
# are reported with their exit codes, apart from the timed command list.
CLI_CONTRACT_PROBES = [
    ("chain", "json", 2, "chain h0 --aspects 0,4;2,2;0,4 --dist 1,x,3"),
    ("tableaux", "json", 2, "kfill --core 4,a -k 3 -g 5"),
    ("chain", "json", 2, "chain tables --aspects 0,4;2,2;0,4 -r 2 --window 0"),
]

CLI_FAMILIES = ("invariants", "splitting", "loci", "lattice", "normal_bundle")


def cli_argv(cmd) -> list[str]:
    _, fmt, _, args = cmd
    return ["--format", fmt, *args.split()]


def cli_key(cmd) -> str:
    return " ".join(cli_argv(cmd))


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text())


def check_cli_result(cmd, res, goldens) -> str | None:
    """Exit code per the contract; JSON byte-identical to the golden;
    errors print nothing on stdout and a diagnostic, not a traceback."""
    _, fmt, want, _ = cmd
    if res.code != want:
        return f"exit {res.code}, contract says {want}"
    if want == 0:
        if not res.out.strip():
            return "empty output"
        if fmt == "json" and res.out.decode() != goldens.get(cli_key(cmd)):
            return "JSON output differs from the golden"
    elif res.out or not res.err.strip() or b"Traceback" in res.err:
        return "error exit without a one-line diagnostic"
    return None


# Why: a CLI user pays interpreter start, `import bnkit.cli` and argparse on
# every command (about 130 of 170 ms), and the command itself is cheap, so
# only start-up, import and the parser can move this workload.  The command
# list is fixed; the seed sets only its order.
class Cli(Workload):
    name = "cli"
    layer_units = {
        "cli.interp_ms": "ms",
        "cli.import_ms": "ms",
        **{f"cli.importtime.{m}.cum_ms": "ms" for m in (
            "bnkit", "bnkit.invariants", "bnkit.tableaux", "bnkit.splitting", "bnkit.loci",
            "bnkit.chain", "bnkit.lattice", "bnkit.normal_bundle", "bnkit.cli",
        )},
        "cli.parse_ms": "ms",
        "cli.main_ms": "ms",
        "cli.stdout_bytes": "B",
        **{f"{f}.via_cli_ms": "ms" for f in CLI_FAMILIES},
    }

    def __init__(self, bn, seed: int, tiny: bool = False, goldens: dict | None = None):
        self.bn = bn
        self.goldens = load_goldens() if goldens is None else goldens
        self.queries = list(CLI_COMMANDS)
        if tiny:  # the first command of each family
            self.queries = list({c[0]: c for c in reversed(self.queries)}.values())
        self.probe_count = 2 if tiny else 7
        random.Random(seed).shuffle(self.queries)

    @staticmethod
    def exec_argv(cmd) -> list[str]:
        return [sys.executable, "-m", "bnkit.cli", *cli_argv(cmd)]

    def run(self, cmd, tr):
        return tr.call("cli.process", run_child, self.exec_argv(cmd))

    def check(self, cmd, res, tr):
        return check_cli_result(cmd, res, self.goldens)

    def run_probes(self):
        """The known-defect probes: (command, exit code, failure or None)."""
        out = []
        for cmd in CLI_CONTRACT_PROBES:
            res = run_child(self.exec_argv(cmd))
            out.append((cli_key(cmd), res.code, check_cli_result(cmd, res, self.goldens)))
        return out

    def peak_rss_mib(self, answers) -> float:
        return max((a.maxrss_kib for a in answers if not isinstance(a, Exception)), default=0) / 1024

    def layer_phase(self, tr):
        """Start-up split into interpreter, import and parser, each in its
        own measurement, plus in-process main() per command."""
        exe = sys.executable
        interp, imp, importtime = [], [], []
        for _ in range(self.probe_count):
            with tr.span("cli.interp"):
                interp.append(run_child([exe, "-c", "pass"]).elapsed_ns)
            with tr.span("cli.import"):
                imp.append(run_child([exe, "-c", "import bnkit.cli"]).elapsed_ns)
        for _ in range(3):
            with tr.span("cli.importtime"):
                res = run_child([exe, "-X", "importtime", "-c", "import bnkit.cli"])
            importtime.append(_parse_importtime(res.err.decode()))
        cli = self.bn.cli
        sink = io.StringIO()
        for cmd in self.queries:
            argv = cli_argv(cmd)
            with redirect_stdout(sink), redirect_stderr(sink):
                with tr.span("cli.parse"):
                    try:
                        cli.build_parser().parse_args(argv)
                    except SystemExit:
                        pass
                with tr.span(f"cli.main.{cmd[0]}"):
                    cli.main(argv)
            sink.seek(0)
            sink.truncate()
        return {"interp_ns": interp, "import_ns": imp, "importtime_us": importtime}

    def layer_metrics(self, self_ns, calls, answers, extra):
        spans = extra["spans"]
        interp = median(extra["interp_ns"])
        values = {
            "cli.interp_ms": _ms(interp),
            "cli.import_ms": _ms(median(extra["import_ns"]) - interp),
        }
        for name in self.layer_units:
            if name.startswith("cli.importtime."):
                mod = name[len("cli.importtime."):-len(".cum_ms")]
                values[name] = median(run.get(mod, 0) for run in extra["importtime_us"]) / 1e3
        per_cmd = {"cli.parse": [], "cli.main": []}
        for name, t0, t1, _, _ in spans:
            key = "cli.main" if name.startswith("cli.main.") else name
            if key in per_cmd:
                per_cmd[key].append(t1 - t0)
        values["cli.parse_ms"] = _ms(median(per_cmd["cli.parse"]))
        values["cli.main_ms"] = _ms(median(per_cmd["cli.main"]))
        values["cli.stdout_bytes"] = sum(len(a.out) for a in answers if not isinstance(a, Exception))
        for fam in CLI_FAMILIES:
            values[f"{fam}.via_cli_ms"] = _ms(self_ns.get(f"cli.main.{fam}", 0))
        return self.metrics(values)


def _parse_importtime(text: str) -> dict[str, int]:
    """Cumulative microseconds per module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if cum.isdigit():
            out[name] = int(cum)
    return out


def walk_cores(tableaux, k: int, max_boxes: int, rng: random.Random) -> list[tuple]:
    """Every k-core with at most ``max_boxes`` boxes, in the order a seeded
    depth-first walk of the residue action from the empty core finds them."""
    seen = {()}
    order = [()]
    stack = [()]
    while stack:
        p = stack.pop()
        residues = list(range(k))
        rng.shuffle(residues)
        for res in residues:
            q = tableaux.core_apply_residue(p, res, k)
            if sum(q) <= max_boxes and q not in seen:
                seen.add(q)
                order.append(q)
                stack.append(q)
    return order


# rho = 0 rectangles (rows, cols): g = rows*cols up to 6400, where the
# exact factorial ratios run on big integers.
RECTANGLES = [
    (2, 50), (3, 40), (5, 30), (8, 25), (10, 10), (12, 20), (15, 15), (20, 20),
    (20, 40), (25, 30), (30, 30), (30, 40), (35, 35), (40, 40), (40, 50), (45, 45),
    (50, 50), (50, 60), (55, 55), (60, 60), (10, 200), (5, 400), (70, 70), (80, 80),
]


# Why: the only workload in which the tableaux DFS, witness validation and
# exact factorial ratios dominate; it never touches chain, and a
# tableaux-driven construction of chain answers would build on it.  Box
# bounds keep k = 5 well below the bound where the witness count explodes
# (22,778 witnesses at 20 boxes).
# The core set is fixed by the bounds; the seed sets the walk order.
class Tableaux(Workload):
    name = "tableaux"
    layer_units = {
        "tableaux.count_k_fillings.self_ms": "ms",
        "tableaux.k_filling_witnesses.self_ms": "ms",
        "tableaux.validate.self_ms": "ms",
        "tableaux.witnesses": "count",
        "tableaux.syt_count_rect.self_ms": "ms",
        "invariants.count_grd.self_ms": "ms",
    }
    BOX_BOUNDS = {3: 40, 4: 22, 5: 15}
    TINY_BOX_BOUNDS = {3: 10, 4: 8, 5: 6}

    def __init__(self, bn, seed: int, tiny: bool = False):
        self.bn = bn
        rng = random.Random(seed)
        tb = bn.tableaux
        bounds = self.TINY_BOX_BOUNDS if tiny else self.BOX_BOUNDS
        self.queries = [
            ("core", k, p, tb.core_length(p, k))
            for k, bound in bounds.items()
            for p in walk_cores(tb, k, bound, rng)
        ]
        for rows, cols in RECTANGLES[:4] if tiny else RECTANGLES:
            g = rows * cols
            r = rows - 1
            self.queries.append(("rect", rows, cols, g, r, g - cols + r))
        rng.shuffle(self.queries)

    def run(self, q, tr):
        tb = self.bn.tableaux
        if q[0] == "core":
            _, k, p, g = q
            count = tr.call("tableaux.count_k_fillings", tb.count_k_fillings, p, k, g)
            return count, tr.call("tableaux.k_filling_witnesses", tb.k_filling_witnesses, p, k, g)
        _, rows, cols, g, r, d = q
        syt = tr.call("tableaux.syt_count_rect", tb.syt_count_rect, rows, cols)
        return syt, tr.call("invariants.count_grd", self.bn.invariants.count_grd, g, r, d)

    def check(self, q, ans, tr):
        if q[0] == "rect":
            syt, grd = ans
            return None if syt == grd else f"syt_count_rect {syt} != count_grd {grd}"
        _, k, p, g = q
        count, witnesses = ans
        if len(witnesses) != count or len({w.residues for w in witnesses}) != count:
            return f"{len(witnesses)} witnesses (some repeated?) for count {count}"
        if tr.enabled:
            # the cost of witness validation, re-run through the public method
            for w in witnesses:
                tr.call("tableaux.validate", w.validate, p)
        return None

    def layer_metrics(self, self_ns, calls, answers, extra):
        witnesses = sum(
            len(a[1]) for q, a in zip(self.queries, answers)
            if q[0] == "core" and not isinstance(a, Exception)
        )
        values = {
            name: _ms(self_ns.get(name[:-len(".self_ms")], 0))
            for name in self.layer_units if name.endswith(".self_ms")
        }
        values["tableaux.witnesses"] = witnesses
        return self.metrics(values)


WORKLOADS = {w.name: w for w in (Search, Certify, Cli, Tableaux)}
