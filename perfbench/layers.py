"""The traced run: per-layer costs measured in process.

The benchmark's own code records a span (name, start, end, parent) around
each call it makes into a layer, plus ``trie.build`` around the package's
``TermTrie.from_dnf`` while a traced pass runs.  A layer's self time is its
span's duration minus the time its child spans cover.  Spans are kept in
memory and written to ``spans.jsonl`` beside the instance when the run ends.

A ``bare`` pass parses, builds the enumerator and drains the generator with
nothing else in the loop.  A ``traced`` pass does the same under spans and
reads the step counter, the node gauge and the clock after each ``next()``.
It gives the delay distributions; its time over the bare pass's, minus 1,
is ``trace.overhead_frac``.  Then, until ``--seconds`` have passed, each
repetition makes four adjacent passes and takes two differences from them:

* a bare pass, whose drain is ``enum.self_s``;
* ``measure(collect=False)``: minus its factory call and the bare drain,
  ``instrument.measure_self_s``;
* ``cli.main`` with ``--count``, then with the workload's ``--format`` into a
  file: the difference is the writer's cost.

Last, a probe measures ns per step for all eleven algorithms on small fixed
instances, and for kdnf at n=20000, where it also takes the peak heap.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import sys
import time
import tracemalloc
from array import array

import numpy as np

import gen

NS = 1e-9
#: alphabet of the wide-kdnf probes
WIDE_N = 20000


class Tracer:
    """In-memory spans; ``stack`` holds the ids of the open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self.stack[-1] if self.stack else None, **attrs}
        self.spans.append(rec)
        self.stack.append(sid)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self.stack.pop()


@contextlib.contextmanager
def traced_trie_build(tracer: Tracer):
    """Wrap TermTrie.from_dnf in a ``trie.build`` span while the block runs."""
    from dnfenum.trie import TermTrie

    orig = TermTrie.__dict__["from_dnf"]

    def from_dnf(cls, d, *args, **kwargs):
        with tracer.span("trie.build") as rec:
            tt = orig.__func__(cls, d, *args, **kwargs)
            rec["nodes"] = tt.node_count
        return tt

    TermTrie.from_dnf = classmethod(from_dnf)
    try:
        yield
    finally:
        TermTrie.from_dnf = orig


def make_factory(w, obj):
    """Bind the workload's algorithm through the public enum_* functions."""
    if w.algo == "setunion":
        from dnfenum.setunion import enum_unions

        return lambda ctr: enum_unions(obj, counter=ctr)
    if w.algo == "kdnf":
        from dnfenum.kdnf import KdnfConfig, enum_kdnf

        k = max(len(t) for t in obj.terms)
        return lambda ctr: enum_kdnf(obj, KdnfConfig.for_width(k), counter=ctr)
    if w.algo == "avg":
        from dnfenum.avg import enum_avg

        mode = w.algo_args[w.algo_args.index("--mode") + 1]
        return lambda ctr: enum_avg(obj, mode, counter=ctr)
    raise ValueError(f"no factory for {w.algo}")


def parse(w, text):
    if w.kind == "sets":
        from dnfenum.setunion import parse_sets

        return parse_sets(text)
    from dnfenum.core import parse_dnf

    return parse_dnf(text)


def limited(it, limit):
    return it if limit is None else itertools.islice(it, limit)


def bare_pass(w, text) -> tuple[float, float]:
    """(whole pass, drain) seconds with no instrumentation in the loop."""
    from dnfenum.instrument import StepCounter

    t0 = time.perf_counter_ns()
    factory = make_factory(w, parse(w, text))
    it = limited(factory(StepCounter()), w.limit)
    t1 = time.perf_counter_ns()
    for _ in it:
        pass
    t2 = time.perf_counter_ns()
    return (t2 - t0) * NS, (t2 - t1) * NS


def traced_pass(w, text, tracer: Tracer) -> dict:
    from dnfenum.instrument import StepCounter

    ctr = StepCounter()
    steps, walls = array("q"), array("q")
    with tracer.span("pass.traced") as root:
        with tracer.span("core.parse"):
            obj = parse(w, text)
        if w.kind == "sets":
            from dnfenum.trie import Trie

            # the family trie is built inside enum_unions; build an equal one
            # on its own to time the trie layer
            with tracer.span("trie.build") as rec:
                tc = StepCounter()
                fam = Trie(w.n + 1, counter=tc)
                for s in obj.sets:
                    fam.insert(s)
                rec["nodes"] = fam.node_count
        with tracer.span("precompute", algo=w.algo) as rec, traced_trie_build(tracer):
            gen_ = make_factory(w, obj)(ctr)
            rec["steps"] = ctr.n
        pre = ctr.n
        peak = ctr.nodes
        with tracer.span("enum.drain", algo=w.algo) as rec:
            prev_s, prev_t = pre, time.perf_counter_ns()
            for _ in limited(gen_, w.limit):
                now_s, now_t = ctr.n, time.perf_counter_ns()
                steps.append(now_s - prev_s)
                walls.append(now_t - prev_t)
                prev_s, prev_t = now_s, now_t
                if ctr.nodes > peak:
                    peak = ctr.nodes
            if w.limit is None and steps:
                # as measure() does, the teardown tail joins the last delay
                steps[-1] += ctr.n - prev_s
            rec["steps"] = ctr.n - pre
    return {
        "pass_s": (root["end"] - root["start"]) * NS,
        "pre_steps": pre,
        "drain_steps": ctr.n - pre,
        "nodes_peak": peak,
        "steps": np.frombuffer(steps, dtype=np.int64),
        "walls": np.frombuffer(walls, dtype=np.int64),
    }


def measure_pass(w, text, tracer: Tracer) -> tuple[float, float, int]:
    """(measure() seconds, its set-up seconds, models) for measure(collect=False)."""
    from dnfenum.instrument import measure

    obj = parse(w, text)
    factory = make_factory(w, obj)

    def timed_factory(ctr):
        with tracer.span("precompute"):
            return factory(ctr)

    with tracer.span("instrument.measure") as rec:
        _, stats = measure(timed_factory, limit=w.limit, collect=False)
    pre = [s for s in tracer.spans if s["name"] == "precompute" and s["parent"] == rec["id"]][-1]
    return (rec["end"] - rec["start"]) * NS, (pre["end"] - pre["start"]) * NS, stats.n_models


def cli_pass(w, path, out_path, tracer: Tracer, fmt_args: list[str]) -> float:
    from dnfenum.cli import main

    with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        with tracer.span("cli.main", args=" ".join(fmt_args)) as rec:
            code = main(w.cli_args(path) + fmt_args)
    if code != 0:
        raise RuntimeError(f"cli.main exited {code}")
    return (rec["end"] - rec["start"]) * NS


# -- ns per step over all eleven algorithms -----------------------------------


def _probe_cases():
    from dnfenum import avg, classic, graycode, kdnf, monotone, setunion
    from dnfenum.core import Dnf

    small = Dnf(14, gen.kdnf_terms(14, 24, 3, 5))
    mid = Dnf(30, gen.kdnf_terms(30, 200, 3, 7))
    mono = Dnf(18, {tuple(sorted({abs(x) for x in t})) for t in gen.fixed_width_terms(18, 30, 4, 9)})
    fam = setunion.SetFamily(200, gen.disjoint_sets(200, 13, 3, 3))
    wide = Dnf(WIDE_N, gen.kdnf_terms(WIDE_N, 2000, 3, 1))
    cfg = kdnf.KdnfConfig.for_width(3)
    return {
        "term-gray": (lambda c: graycode.enum_single_term_dnf(Dnf(20, [(1, -2)]), counter=c), 100_000),
        "union-priority": (lambda c: classic.enum_union_priority(small, counter=c), 3_000),
        "union-ordered": (lambda c: classic.enum_union_ordered(small, counter=c), 5_000),
        "flashlight": (lambda c: classic.enum_flashlight(small, counter=c), 5_000),
        "kdnf": (lambda c: kdnf.enum_kdnf(mid, cfg, counter=c), 50_000),
        "kdnf-hybrid": (lambda c: kdnf.enum_kdnf_hybrid(mid, cfg, counter=c), 50_000),
        # the same enumerator over a 500x wider alphabet
        "kdnf-wide": (lambda c: kdnf.enum_kdnf(wide, cfg, counter=c), 50_000),
        "avg": (lambda c: avg.enum_avg(mid, "t11", counter=c), 20_000),
        "monotone-rs": (lambda c: monotone.enum_monotone_rs(mono, counter=c), 5_000),
        "monotone-avg": (lambda c: monotone.enum_monotone_avg(mono, counter=c), 20_000),
        "monotone-log": (lambda c: monotone.enum_monotone_log(mono, counter=c), 20_000),
        "setunion": (lambda c: setunion.enum_unions(fam, counter=c), None),
    }


def ns_per_step_probe(tracer: Tracer, repeats: int = 3) -> dict[str, float]:
    from dnfenum.instrument import measure

    out = {}
    for algo, (factory, limit) in _probe_cases().items():
        vals = []
        for _ in range(repeats):
            with tracer.span("probe", algo=algo):
                _, st = measure(factory, limit=limit, collect=False)
            vals.append(st.wall_ns / max(st.total_steps, 1))
        out[algo] = statistics.median(vals)
    return out


def wide_peak_mb(models: int = 1000) -> float:
    """Peak Python heap while kdnf gives its first outputs at n=20000.

    Trie nodes hold slot arrays sized by the alphabet, which the step
    counter does not see; no workload has an alphabet this wide.
    """
    from dnfenum.core import Dnf
    from dnfenum.instrument import measure
    from dnfenum.kdnf import KdnfConfig, enum_kdnf

    d = Dnf(WIDE_N, gen.kdnf_terms(WIDE_N, 2000, 3, 1))
    cfg = KdnfConfig.for_width(3)
    tracemalloc.start()
    try:
        measure(lambda c: enum_kdnf(d, cfg, counter=c), limit=models, collect=False)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# -- the run -------------------------------------------------------------------


def _pct(a: np.ndarray, q: float) -> float:
    return float(np.percentile(a, q, method="lower")) if a.size else 0.0


def measure_layers(w, seed: int, seconds: float, prepare, make_checker) -> dict:
    from dnfenum import kdnf

    path, rows = prepare(w, seed)
    text = path.read_text()
    checker = make_checker(w, rows)
    tracer = Tracer()
    out_path = path.parent / "stream.out"

    # the first step_constant() call in the process runs the calibration
    with tracer.span("kdnf.calibrate"):
        kdnf.step_constant()

    t_end = time.perf_counter() + seconds
    bare_s, _ = bare_pass(w, text)
    tp = traced_pass(w, text, tracer)
    overhead = tp["pass_s"] / bare_s - 1

    # each difference comes from adjacent passes, so a slowdown of the
    # machine that outlasts a pass cancels out
    reps: list[dict] = []
    attempted = failed = 0
    last = 0.0
    while not reps or time.perf_counter() + last < t_end:
        t_rep = time.perf_counter()
        _, drain_s = bare_pass(w, text)
        measure_s, measure_pre_s, n_models = measure_pass(w, text, tracer)
        count_s = cli_pass(w, path, out_path, tracer, ["--count"])
        attempted += 1
        if out_path.read_text().strip() != str(n_models):
            print(f"{w.name}: --count disagrees with measure(): {n_models} models", file=sys.stderr)
            failed += 1
        fmt_s = cli_pass(w, path, out_path, tracer, ["--format", w.fmt])
        data = out_path.read_bytes()
        attempted += 1
        problem = checker(data)
        if problem:
            print(f"{w.name}: traced output check failed: {problem}", file=sys.stderr)
            failed += 1
        reps.append({
            "drain_s": drain_s,
            "measure_self_s": measure_s - measure_pre_s - drain_s,
            "writer_s": fmt_s - count_s,
            "bytes": len(data),
        })
        last = time.perf_counter() - t_rep
    out_path.unlink(missing_ok=True)

    probe = ns_per_step_probe(tracer)
    with tracer.span("probe.wide_peak"):
        wide_mb = wide_peak_mb()
    (path.parent / "spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in tracer.spans))

    def med(key):
        return statistics.median(r[key] for r in reps)

    def span_s(name, only=lambda s: True):
        return statistics.median(
            (s["end"] - s["start"]) * NS for s in tracer.spans if s["name"] == name and only(s)
        )

    in_traced = {s["id"] for s in tracer.spans if s["name"] == "precompute" and "steps" in s}
    pre_s = span_s("precompute", lambda s: s["id"] in in_traced)
    build_s = span_s("trie.build", lambda s: s["parent"] in in_traced or w.kind == "sets")
    drain_s = med("drain_s")
    writer_s = med("writer_s")
    steps, walls = tp["steps"], tp["walls"]
    metrics = {
        "core.parse_s": (span_s("core.parse"), "s"),
        "trie.build_s": (build_s, "s"),
        "trie.nodes": ([s["nodes"] for s in tracer.spans if s["name"] == "trie.build"][-1], "count"),
        "trie.wide_peak_mb": (wide_mb, "MB"),
        "kdnf.calibrate_s": (span_s("kdnf.calibrate"), "s"),
        "precompute.s": (pre_s, "s"),
        "precompute.self_s": (pre_s - (0.0 if w.kind == "sets" else build_s), "s"),
        "precompute.steps": (tp["pre_steps"], "count"),
        "enum.self_s": (drain_s, "s"),
        "enum.steps": (tp["drain_steps"], "count"),
        "enum.ns_per_step": (drain_s / max(tp["drain_steps"], 1) * 1e9, "ns"),
        "enum.nodes_peak": (tp["nodes_peak"], "count"),
        "instrument.measure_self_s": (med("measure_self_s"), "s"),
        "cli.writer_self_s": (writer_s, "s"),
        "cli.writer_bytes": (reps[-1]["bytes"], "B"),
        "cli.writer_ns_per_model": (writer_s / max(n_models, 1) * 1e9, "ns"),
        "delay_steps.p50": (_pct(steps, 50), "count"),
        "delay_steps.p99": (_pct(steps, 99), "count"),
        "delay_steps.max": (int(steps.max()) if steps.size else 0, "count"),
        "delay_steps.max_at": (int(steps.argmax()) if steps.size else 0, "index"),
        "delay_wall_us.p50": (_pct(walls, 50) / 1e3, "us"),
        "delay_wall_us.p99": (_pct(walls, 99) / 1e3, "us"),
        "delay_wall_us.max": (float(walls.max()) / 1e3 if walls.size else 0.0, "us"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    for algo, v in probe.items():
        metrics[f"ns_per_step.{algo}"] = (v, "ns")
    print(f"{w.name} seed={seed}: {len(reps)} repetitions, spans in {path.parent / 'spans.jsonl'}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
