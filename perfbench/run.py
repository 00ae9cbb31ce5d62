"""bnkit benchmark: one workload per run, stdlib only.

    python3 perfbench/run.py --workload {search,certify,cli,tableaux} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout, never from an installed copy; without it the run exits
with code 2 and prints no result.

A run repeats the workload's fixed query list in passes until ``--seconds``
is used up (at least one pass).  Every answer is checked.  With
``--trace 0`` the end-to-end metrics are measured with tracing off, and
their times are scaled to reference speed by a kernel timed between the
queries of each pass (see ``harness.REF_NS``); the record keeps the raw
times.  With
``--trace 1`` each round runs one untraced and one traced pass, reports
per-layer self times from the spans, the tracing overhead, and fills the
other workloads' layer metrics from one traced pass of their tiny size.
Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}.  The full record, with the
seed, Python version, nproc, commit, sample counts and percentiles, goes
to ``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    OUT,
    REF_NS,
    MissingProgram,
    NullTracer,
    Tracer,
    git_commit,
    load_bnkit,
    median,
    quantile,
    run_child,
    source_digest,
    speed_scale,
    tail_percentile,
    time_reference,
)
from workloads import WORKLOADS

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.overhead_pct": "%"}
SETUP_SAMPLES = 10


def per_layer_units() -> dict[str, str]:
    units = {}
    for cls in WORKLOADS.values():
        units.update(cls.layer_units)
    units.update(TRACE_UNITS)
    return units


@dataclass
class Pass:
    wall_ns: int  # sum of raw query latencies
    latencies: list[int]
    scaled: list[float]  # latencies at reference speed
    answers: list | None  # dropped once a newer pass exists
    failures: list[tuple[int, str]]
    tracer: Tracer | NullTracer
    peak_rss_mib: float


def run_pass(wl, tr) -> Pass:
    """One closed-loop pass over the query list, then the checks.  Only
    the query loop is timed; check-phase spans land in the same trace.
    Every pass starts from a collected heap."""
    gc.collect()
    latencies, answers = [], []
    refs = [time_reference()]
    for i, q in enumerate(wl.queries):
        a = time.perf_counter_ns()
        try:
            with tr.span("query", qid=i):
                ans = wl.run(q, tr)
        except Exception as e:  # a failed query is counted, not fatal
            ans = e
        latencies.append(time.perf_counter_ns() - a)
        answers.append(ans)
        refs.append(time_reference())
    k = speed_scale(refs)
    scaled = [x * k for x in latencies]
    failures = []
    for i, (q, ans) in enumerate(zip(wl.queries, answers)):
        if isinstance(ans, Exception):
            failures.append((i, f"unexpected {type(ans).__name__}: {ans}"))
            continue
        try:
            with tr.span("check", qid=i):
                msg = wl.check(q, ans, tr)
        except Exception as e:  # e.g. a witness that fails to validate
            msg = f"check raised {type(e).__name__}: {e}"
        if msg:
            failures.append((i, msg))
    return Pass(sum(latencies), latencies, scaled, answers, failures, tr, wl.peak_rss_mib(answers))


def measure(wl, seconds: float, traced: bool) -> tuple[list[Pass], list[Pass]]:
    """Rounds of passes until starting another would overrun ``seconds``.
    Only the latest pass of each kind keeps its answers."""
    start = time.monotonic()
    plain: list[Pass] = []
    spanned: list[Pass] = []
    rounds: list[float] = []
    while True:
        t = time.monotonic()
        for done in plain[-1:] + spanned[-1:]:
            done.answers = None
        plain.append(run_pass(wl, NullTracer()))
        if traced:
            spanned.append(run_pass(wl, Tracer()))
        rounds.append(time.monotonic() - t)
        if time.monotonic() - start + median(rounds) > seconds:
            return plain, spanned


def setup_samples(workload: str, seed: int, n: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up time: package import plus input generation,
    each in a fresh interpreter, after one discarded warm-up that fills the
    bytecode cache.  Taken before any query is timed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    out = []
    for i in range(n + 1):
        res = run_child(argv)
        if res.code != 0:
            raise RuntimeError(f"set-up probe exited {res.code}: {res.err.decode()[-500:]}")
        if i:
            seconds, ref_ns = map(float, res.out.decode().split()[-2:])
            out.append((seconds, seconds * REF_NS / ref_ns))
    return out


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    WORKLOADS[workload](load_bnkit(), seed)
    seconds = time.perf_counter() - t0
    print(seconds, median([time_reference() for _ in range(9)]))


def end_to_end(wl, plain: list[Pass], setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics at reference speed; "raw" holds the value as the
    clock read it."""
    lat = [x for p in plain for x in p.scaled]
    raw_lat = [x for p in plain for x in p.latencies]
    n_pass = len(wl.queries)
    pct = tail_percentile(n_pass) if n_pass >= 12 else 100.0
    tail = quantile(lat, pct)
    hd = "Harrell-Davis over all passes"
    values = {
        "wall_s": (median([sum(p.scaled) for p in plain]) / 1e9,
                   median([p.wall_ns for p in plain]) / 1e9,
                   {"samples": len(plain), "stat": "median over passes of the summed latencies"}),
        "query_p50_ms": (quantile(lat, 50) / 1e6, quantile(raw_lat, 50) / 1e6,
                         {"samples": len(lat), "percentile": 50, "stat": hd}),
        "query_tail_ms": (tail / 1e6, quantile(raw_lat, pct) / 1e6, {
            "samples": len(lat), "percentile": round(pct, 3), "stat": hd,
            "beyond": sum(1 for x in lat if x > tail),
        }),
        "setup_s": (median([s for _, s in setup]), median([r for r, _ in setup]),
                    {"samples": len(setup), "stat": "median of fresh interpreters"}),
    }
    out = {
        k: {"value": v, "unit": END_TO_END_UNITS[k], "raw": raw, **info}
        for k, (v, raw, info) in values.items()
    }
    out["peak_rss_mib"] = {
        "value": max(p.peak_rss_mib for p in plain), "unit": "MiB", "samples": len(plain),
        "stat": "largest child process" if wl.name == "cli" else "this process",
    }
    return out


def layer_metrics(wl, p: Pass) -> dict:
    extra = wl.layer_phase(p.tracer) or {}
    extra["spans"] = p.tracer.spans
    self_ns, calls = p.tracer.self_ns()
    return wl.layer_metrics(self_ns, calls, p.answers, extra)


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        setup_n: int = SETUP_SAMPLES, make=None) -> tuple[dict, dict]:
    """Run one workload; returns (final line, full record).  ``make``
    builds the workload object (the self-test passes tampered ones)."""
    make = make or (lambda name, bn, s, small: WORKLOADS[name](bn, s, tiny=small))
    bn = load_bnkit()
    setup = [] if trace else setup_samples(workload, seed, setup_n)
    wl = make(workload, bn, seed, tiny)
    plain, spanned = measure(wl, seconds, trace)
    passes = plain + spanned
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "commit": git_commit(), "source_digest": source_digest(),
        "loop": "closed, one caller, one query in flight",
        "queries_per_pass": len(wl.queries), "untraced_passes": len(plain),
        "traced_passes": len(spanned),
    }
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f"{wl.name} query {i}: {msg}" for p in passes for i, msg in p.failures]
    if trace:
        last = spanned[-1]
        metrics = layer_metrics(wl, last)
        plain_s = median([sum(p.scaled) for p in plain]) / 1e9
        traced_s = median([sum(p.scaled) for p in spanned]) / 1e9
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100 * (traced_s - plain_s) / plain_s, "unit": "%"}
        spans = {wl.name: last.tracer.spans}
        sources = {k: wl.name for k in metrics}
        for name in WORKLOADS:
            if name == wl.name:
                continue
            other = make(name, bn, seed, True)
            p = run_pass(other, Tracer())
            for k, v in layer_metrics(other, p).items():
                metrics[k] = v
                sources[k] = f"{name} (tiny)"
            spans[name] = p.tracer.spans
            attempted += len(p.answers)
            failures += [f"{name} (tiny) query {i}: {msg}" for i, msg in p.failures]
        record["metric_sources"] = sources
        record["spans_file"] = write_json(f"spans_{workload}_seed{seed}.json", spans)
    else:
        metrics = end_to_end(wl, plain, setup)
        record["setup_samples_s"] = [{"raw": r, "scaled": k} for r, k in setup]
    if wl.name == "cli":
        probes = wl.run_probes()
        record["contract_probes"] = [
            {"command": key, "exit": code, "failure": msg} for key, code, msg in probes
        ]
        # share of one command list (timed commands plus probes) that fails
        bad = sum(1 for *_, msg in probes if msg) + len(plain[-1].failures)
        record["error_rate_with_probes"] = bad / (len(wl.queries) + len(probes))
    record.update(attempted=attempted, failed=len(failures), error_rate=len(failures) / attempted,
                  failures=failures[:50], metrics=metrics)
    if not tiny:
        record["record_file"] = write_json(f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json", record)
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return line, record


def write_json(name: str, obj) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(obj, indent=1, default=str))
    return str(path.relative_to(OUT.parent.parent))


def report(record: dict) -> None:
    print(f"bnkit benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit'][:12]} source={record['source_digest']}")
    print(f"  passes: {record['untraced_passes']} untraced, {record['traced_passes']} traced; "
          f"{record['queries_per_pass']} queries per pass")
    for name, m in record["metrics"].items():
        info = ", ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:<6s} {info}")
    print(f"  error_rate {record['error_rate']:.4f} ({record['failed']}/{record['attempted']})")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    for p in record.get("contract_probes", []):
        state = f"FAILED ({p['failure']})" if p["failure"] else "ok"
        print(f"  contract probe `{p['command']}`: exit {p['exit']} {state}")
    if "error_rate_with_probes" in record:
        print(f"  error_rate with contract probes {record['error_rate_with_probes']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        # one CPU for the benchmark and its children, so that the reference
        # timings see the CPU the queries run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
