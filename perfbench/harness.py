"""Shared pieces of the benchmark: loading bnkit from the checkout,
span tracing, child processes, and order statistics.

Nothing here imports bnkit at module import time, so a set-up probe can
time the package import itself.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
import types
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

BNKIT_MODULES = (
    "invariants", "tableaux", "splitting", "loci", "chain", "lattice", "normal_bundle", "cli",
)


class MissingProgram(RuntimeError):
    """The checkout holds no bnkit sources to benchmark."""


def load_bnkit():
    """Import bnkit from this checkout's ``src`` and return a namespace
    holding its modules.  Refuses an installed copy from elsewhere."""
    if not (SRC / "bnkit" / "__init__.py").is_file():
        raise MissingProgram(f"no bnkit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bnkit")
    if Path(pkg.__file__).resolve().parent != SRC / "bnkit":
        raise MissingProgram(f"bnkit was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"bnkit.{name}") for name in BNKIT_MODULES}
    )


def child_env() -> dict:
    """Children import bnkit from the checkout and may cache its bytecode
    there, as an installed package has it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bnkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git (the
    benchmark may run in a plain export, where this is "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- tracing ---

class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, query id].
    A span's query id is inherited from its parent when not given."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, qid=None):
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent][4]
        rec = [name, time.perf_counter_ns(), 0, parent, qid]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_ns(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per span name: total self time (duration minus the time its
        child spans cover) and number of spans."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total: dict[str, int] = {}
        calls: dict[str, int] = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            total[name] = total.get(name, 0) + (t1 - t0 - c)
            calls[name] = calls.get(name, 0) + 1
        return total, calls


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def span(self, name: str, qid=None):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)


# --- machine speed ---
#
# On a small shared machine the CPU's speed drifts by +-25% over seconds to
# minutes, in wall and CPU time alike.  A fixed reference kernel, timed
# between the queries of a pass, tracks that speed: end-to-end times are
# scaled to "reference speed", at which the kernel takes REF_NS.  Raw
# times are kept in the record.

REF_NS = 500_000


def reference_kernel() -> int:
    """Fixed pure-Python work in bnkit's style (small tuples, dict counts,
    list building, a keyed sort) that shares no code with bnkit."""
    counts: dict = {}
    rows = []
    for i in range(330):
        t = tuple(range(i % 7, i % 7 + 5))
        counts[t] = counts.get(t, 0) + 1
        rows.append([x * 2 for x in t])
    rows.sort(key=lambda r: (r[1], -r[0]))
    return len(counts) + len(rows)


def time_reference() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


def speed_scale(refs: list[int]) -> float:
    """REF_NS over the median of the reference timings taken around the
    queries of one pass.  One factor per pass: a long query's speed shows
    only at its two ends, and the whole pass estimates it better."""
    return REF_NS / statistics.median(refs)


# --- child processes ---

class ChildResult(NamedTuple):
    code: int
    out: bytes
    err: bytes
    elapsed_ns: int
    maxrss_kib: int


def run_child(argv: list[str], timeout: float = 120.0) -> ChildResult:
    """Run one child to completion from the checkout root and reap it with
    ``wait4``, which gives that child's own peak resident memory."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    deadline = time.monotonic() + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for f in (proc.stdout, proc.stderr):
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    raise subprocess.TimeoutExpired(argv, timeout)
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]),
        elapsed, usage.ru_maxrss,
    )


# --- order statistics ---

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the percentile ``p`` (0..100): a weighted
    mean of all order statistics with Beta(p(n+1), (1-p)(n+1)) weights.
    Unlike a single order statistic it does not jump between clusters of
    latencies, such as the per-genus clusters of the search workload."""
    xs = sorted(values)
    n = len(xs)
    q = p / 100.0
    if n == 1 or q >= 1.0:
        return float(xs[-1])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(n_per_pass: int) -> float:
    """The highest percentile with at least ten samples beyond it within a
    single pass over the query list; every run has at least one pass, so
    the percentile is fixed by the workload, not by the run's length."""
    if n_per_pass < 12:
        raise ValueError(f"a pass needs at least 12 queries for a tail, has {n_per_pass}")
    return 100.0 * (n_per_pass - 11) / (n_per_pass - 1)


def median(values) -> float:
    return float(statistics.median(values))
