"""One benchmark process: set up a workload, then time it in whole rounds.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        [--setup-only] [--trace] [--spans PATH] [--runs K]

Prints one JSON object as its last line.  ``setup_s`` runs from before
``import magnetkit`` to the first timed item.  The timed part runs whole
rounds of the workload's corpus until ``--seconds`` have passed; each item's
latency is the median of its cold executions (see ``Runner``), and its answer
is checked after the clock stops.  Item times are scaled to the reference
speed (``REF_S``); the unscaled ones are reported beside them.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import pkgutil
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CAP_EXIT = 3
MAX_RUNS = 5
MIN_RUNS = 3
LONG_S = 1.5
REPEAT_BUDGET_S = 0.15
# the reference task's median time on a quiet 2-vCPU Intel Xeon KVM guest
# under Python 3.11; item times are reported as if the host ran at that speed
REF_S = 0.25e-3
SPEED_WINDOW = 3


def _import_library():
    src = ROOT / "src"
    if not (src / "magnetkit" / "__init__.py").is_file():
        sys.exit("perfbench: no magnetkit sources under %s" % src)
    sys.path.insert(0, str(src))
    import corpus  # imports magnetkit

    return corpus


def library_caches():
    """Every lru cache at module level in magnetkit, each once."""
    import magnetkit

    found = {}
    for info in pkgutil.iter_modules(magnetkit.__path__):
        module = importlib.import_module("magnetkit." + info.name)
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


GENERATORS = ((1, 0, 2), (0, 1, -1), (2, -1, 1), (1, 1, 1), (-1, 2, 0))


def reference():
    """A fixed pure-Python task, timed between executions to gauge host speed.

    It walks seven levels of a lattice breadth-first, hashing and allocating
    tuples much as the library does; it never touches magnetkit, so a change
    to the library cannot change its cost.
    """
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    for _ in range(7):
        nxt = []
        for v in frontier:
            for g in GENERATORS:
                w = (v[0] + g[0], v[1] + g[1], v[2] + g[2])
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(sorted(seen))


def time_reference():
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def speed_factor(samples):
    """REF_S over the median reference time: above 1 when the host is slow."""
    return REF_S / statistics.median(samples)


class Runner:
    """Times items and classifies each outcome: ok, cap, error or wrong.

    Every execution starts with the library's caches cleared, so an item's
    cost does not depend on what ran before it.  Each item runs once in
    order, and its answer is checked then.  An answered item runs again
    until it has ``MIN_RUNS`` executions adding up to ``REPEAT_BUDGET_S``,
    or ``runs`` executions; these repeats are interleaved round-robin with
    the first executions of later items, so they spread over the whole
    round.  Failed items, and items of ``LONG_S`` or more, run once: their
    length already spans many of the host's slow and fast spells, and
    repeating them would double a run.

    On a shared host the same code runs at speeds up to twice apart, and
    the speed changes within a second.  So the reference task is timed after
    every execution, and ``finish`` scales each execution to the reference
    speed: its seconds times ``REF_S`` over the median reference time of its
    own execution and the ``SPEED_WINDOW`` executions on either side.  An
    item's latency is the median of its scaled executions.
    """

    def __init__(self, corpus, runs=MAX_RUNS, tracer=None):
        from click.testing import CliRunner

        import magnetkit.cli
        from magnetkit.errors import ResourceLimitError

        self.corpus = corpus
        self.cli_main = magnetkit.cli.main
        self.cli_runner = CliRunner()
        self.cap_error = ResourceLimitError
        self.caches = library_caches()
        self.runs = runs
        self.tracer = tracer
        self.records = []  # [kind, latency_s, outcome]; latency set by finish
        self.executions = []  # (record index, seconds), in order
        self.references = []  # reference time after each execution
        self.executed_s = 0.0

    def _call(self, run):
        if isinstance(run, self.corpus.CliCall):
            tracer = self.tracer
            sid = tracer.open(tracer.ids["cli"]) if tracer else None
            result = self.cli_runner.invoke(self.cli_main, run.args)
            if tracer:
                tracer.close(sid)
            if result.exit_code == CAP_EXIT:
                raise self.cap_error(result.stderr.strip())
            if result.exit_code != 0:
                raise RuntimeError("CLI exit %d: %s%s" % (
                    result.exit_code, result.stderr.strip(), result.exception or ""))
            return json.loads(result.stdout)
        return run()

    def _execute(self, item, index):
        """One cold execution of the item of record ``index``: (answer, outcome, scaled seconds)."""
        for cache in self.caches:
            cache.cache_clear()
        tracer = self.tracer
        if tracer:
            tracer.current_item = index
            sid = tracer.open(tracer.ids["item"])
            tracer.active = True
        answer, outcome = None, "ok"
        t0 = perf_counter()
        try:
            answer = self._call(item.run)
        except self.cap_error:
            outcome = "cap"
        except Exception as exc:  # a raise is a failed item, reported below
            outcome = "error"
            print("perfbench: %s raised %s: %s" % (item.kind, type(exc).__name__, exc),
                  file=sys.stderr)
        seconds = perf_counter() - t0
        if tracer:
            tracer.active = False
            tracer.close(sid)
            tracer.sample_caches()
        self.executed_s += seconds
        self.executions.append((index, seconds))
        self.references.append(time_reference())
        # scaled by the speed seen so far, to schedule repeats by; finish()
        # scales again with references from both sides
        return answer, outcome, seconds * speed_factor(self.references[-SPEED_WINDOW - 1:])

    def _wants_more(self, record, runs):
        return (record[2] == "ok" and len(runs) < self.runs and runs[0] < LONG_S
                and (len(runs) < MIN_RUNS or sum(runs) < REPEAT_BUDGET_S))

    def _repeat(self, pending):
        """Execute the longest-waiting item again; requeue it if it wants more."""
        item, index, runs = pending.popleft()
        record = self.records[index]
        _, outcome, seconds = self._execute(item, index)
        runs.append(seconds)
        if outcome != "ok":
            record[2] = "error"
            print("perfbench: %s changed outcome between executions" % item.kind,
                  file=sys.stderr)
        if self._wants_more(record, runs):
            pending.append((item, index, runs))
        return seconds

    def run_round(self, items):
        stopped = set()
        pending = collections.deque()
        first_s = repeat_s = 0.0
        for item in items:
            if item.ladder is not None and item.ladder in stopped:
                continue
            index = len(self.records)
            answer, outcome, seconds = self._execute(item, index)
            first_s += seconds
            if outcome == "cap" and item.ladder is not None:
                stopped.add(item.ladder)
            if outcome == "ok":
                try:
                    right = item.check(answer)
                except Exception:
                    right = False
                if not right:
                    outcome = "wrong"
                    print("perfbench: wrong answer from %s" % item.kind, file=sys.stderr)
            record = [item.kind, None, outcome]
            self.records.append(record)
            if self._wants_more(record, [seconds]):
                pending.append((item, index, [seconds]))
            # spread the repeats over the whole round, as much time on them
            # as on first executions so far
            while pending and repeat_s < first_s:
                repeat_s += self._repeat(pending)
        while pending:
            self._repeat(pending)

    def finish(self):
        """Set every record's latency to the median of its scaled executions.

        Returns the same records with unscaled latencies, for the report.
        """
        refs = self.references
        scaled = [[] for _ in self.records]
        raw = [[] for _ in self.records]
        for j, (index, seconds) in enumerate(self.executions):
            window = refs[max(0, j - SPEED_WINDOW):j + SPEED_WINDOW + 1]
            scaled[index].append(seconds * speed_factor(window))
            raw[index].append(seconds)
        for record, runs in zip(self.records, scaled):
            record[1] = statistics.median(runs)
        return [[kind, statistics.median(runs), outcome]
                for (kind, _, outcome), runs in zip(self.records, raw)]


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples above it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def summarize(records):
    lat = sorted(r[1] * 1000.0 for r in records)
    n = len(lat)
    answered = [r[1] for r in records if r[2] == "ok"]
    failed = n - len(answered)
    wrong = sum(1 for r in records if r[2] in ("wrong", "error"))
    p_tail = tail_percentile(n)
    kinds = {}
    for kind, latency, outcome in records:
        k = kinds.setdefault(kind, {"n": 0, "failed": 0, "total_s": 0.0})
        k["n"] += 1
        k["total_s"] += latency
        k["failed"] += outcome != "ok"
    return {
        "attempted": n,
        "failed": failed,
        "wrong": wrong,
        "caps": sum(1 for r in records if r[2] == "cap"),
        "timed_s": sum(r[1] for r in records),
        "items_per_s": len(answered) / sum(answered) if answered else 0.0,
        "latency_p50_ms": percentile(lat, 50),
        "tail_percentile": p_tail,
        "latency_tail_ms": percentile(lat, p_tail),
        "failed_share": failed / n,
        "kinds": kinds,
    }


def main(argv=None):
    t_setup = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--runs", type=int, default=MAX_RUNS)
    args = ap.parse_args(argv)

    corpus = _import_library()
    if args.workload not in corpus.ROUNDS:
        sys.exit("perfbench: unknown workload %r" % args.workload)
    build_round = corpus.ROUNDS[args.workload]
    tmp = ROOT / ".perfbench" / ("files-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        files = corpus.ProblemFiles(tmp)
        items = build_round(args.seed, 0, files)
        runner = Runner(corpus, runs=args.runs)
        setup_s = perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install(runner.caches)
            runner.tracer = tracer
        gc.collect()
        start = perf_counter()
        rounds = 0
        while True:
            runner.run_round(items)
            rounds += 1
            if perf_counter() - start >= args.seconds:
                break
            items = build_round(args.seed, rounds, files)
        elapsed = perf_counter() - start
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    raw = summarize(runner.finish())
    out = summarize(runner.records)
    out.update({
        "raw": {k: raw[k] for k in ("items_per_s", "latency_p50_ms", "latency_tail_ms")},
        "speed_factor": speed_factor(runner.references),
        "setup_s": setup_s,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "executed_s": runner.executed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        if args.spans:
            tracer.write(args.spans)
        out["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        out["layer_totals"] = tracer.layer_totals()
        out["spans"] = len(tracer.layer)
        out["unwrapped"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
