"""Spans around the calls into magnetkit's layers, for the traced run.

``Tracer.install`` replaces module attributes with timing wrappers, under the
names their callers use (for example ``monoids.has_nonneg_solution`` is the
solver as the membership layer calls it).  Nothing is wrapped in untraced
runs, and the wrappers record only while ``active`` is set: the runner sets
it for the timed execution of an item, so answer checks and building later
rounds leave no spans.  Spans live in flat arrays: layer, parent span, item,
start, end and flags.  ``write`` dumps them as TSV; ``layer_metrics`` derives
the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

from magnetkit.errors import ResourceLimitError

# layer name -> (module, attribute) pairs that route calls into it
LAYERS = {
    "diophantine": [("monoids", "has_nonneg_solution")],
    "linalg.smith": [("linalg", "smith")],
    "monoids.contains": [("monoids", "contains")],
    "monoids.covector": [("monoids", "_positive_covector"), ("bundles", "_positive_covector")],
    "bundles.bb_bundle": [("bundles", "bb_bundle"), ("cli", "bb_bundle")],
    "monoids.faces": [("monoids", "faces"), ("cli", "faces")],
    "monoids.is_face": [("monoids", "is_face"), ("graded", "is_face"), ("roots", "is_face")],
    "atlases.closed_table": [("atlases", "_closed_subset_table")],
    "atlases.fingerprint": [("atlases", "fingerprint")],
    "roots.closed_subsets": [("roots", "closed_subsets"), ("cli", "closed_subsets")],
    "monoids.divisors": [("monoids", "divisors"), ("graded", "divisors")],
    "monoids.bounded_members": [("monoids", "bounded_members"), ("graded", "bounded_members")],
    "graded.ideal_member": [("graded", "_ideal_member")],
    "graded.support_report": [("graded", "support_report"), ("cli", "support_report")],
    "graded.attractor": [("graded", "attractor"), ("bundles", "attractor"), ("cli", "attractor")],
    "roots.square": [("roots", "cartesian_square"), ("cli", "cartesian_square")],
    "cohomology.primitive": [("cohomology", "primitive"), ("cli", "primitive")],
    "cohomology.differential": [("cohomology", "differential")],
    "bundles.dilatation_check": [
        ("bundles", "dilatation_attractor_check"),
        ("cli", "dilatation_attractor_check"),
    ],
}
ITEM = "item"
CLI = "cli"

# lru caches whose hit ratio is reported: layer -> (module, attribute)
CACHES = {
    "monoids.contains": ("monoids", "_cached_contains"),
    "graded.ideal_member": ("graded", "_ideal_member"),
}

# closed-set searches, whose closed_ratio is closed sets found over the
# membership probes the search makes itself (its direct monoids.contains
# children); a search answered from the lru cache makes none and is skipped
CLOSED_SEARCHES = {
    "atlases.closed_table": "atlases.closed_ratio",
    "roots.closed_subsets": "roots.closed_ratio",
}

OK, CAP, ERROR = 0, 1, 2
OUTERMOST = 4


def _module(name):
    return importlib.import_module("magnetkit." + name)


class Tracer:
    def __init__(self):
        self.names = [ITEM, CLI] + list(LAYERS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.layer = array("H")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.stack = []
        self.depth = [0] * len(self.names)
        self.current_item = -1
        self.active = False
        self.found = {}  # closed-set search span -> number of closed sets it returned
        self.caches = {}
        self.missing = []
        self._restore = []

    # -- recording

    def open(self, layer_id) -> int:
        sid = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.flags.append(0 if self.depth[layer_id] else OUTERMOST)
        self.end.append(0.0)
        self.depth[layer_id] += 1
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid, status=OK):
        self.end[sid] = perf_counter()
        self.flags[sid] |= status
        self.stack.pop()
        self.depth[self.layer[sid]] -= 1

    def _wrap(self, layer, fn, search):
        layer_id = self.ids[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(layer_id)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                self.close(sid, CAP)
                raise
            except BaseException:
                self.close(sid, ERROR)
                raise
            self.close(sid)
            if search:
                self.found[sid] = len(result)
            return result

        return wrapper

    # -- installation

    def install(self, caches):
        """Wrap every layer; ``caches`` are the lru caches the runner clears
        before each execution, so their counters cover one execution."""
        for layer, (mod, attr) in CACHES.items():
            fn = getattr(_module(mod), attr, None)
            if any(fn is cache for cache in caches):
                self.caches[layer] = (fn, [0, 0])
        for layer, targets in LAYERS.items():
            for mod, attr in targets:
                module = _module(mod)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append("%s.%s" % (mod, attr))
                    continue
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn, layer in CLOSED_SEARCHES))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore = []

    # -- output

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\titem\tlayer\tstart_s\tend_s\tstatus\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for sid in range(len(self.layer)):
                fh.write("%d\t%d\t%d\t%s\t%.7f\t%.7f\t%s\n" % (
                    sid, self.parent[sid], self.item[sid], self.names[self.layer[sid]],
                    self.start[sid] - t0, self.end[sid] - t0,
                    ("ok", "cap", "error")[self.flags[sid] & 3],
                ))

    def layer_totals(self):
        """Per layer: calls, busy seconds (outermost spans), self seconds, caps."""
        n = len(self.layer)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cap_hits": 0}
                  for name in self.names}
        for sid in range(n):
            t = totals[self.names[self.layer[sid]]]
            dur = self.end[sid] - self.start[sid]
            t["calls"] += 1
            t["self_s"] += dur - child[sid]
            if self.flags[sid] & OUTERMOST:
                t["busy_s"] += dur
            if self.flags[sid] & 3 == CAP:
                t["cap_hits"] += 1
        return totals

    def closed_ratios(self):
        """Per closed_ratio metric: [closed sets found, membership probes
        made], summed over the searches that made a probe."""
        probe = self.ids["monoids.contains"]
        probes = dict.fromkeys(self.found, 0)
        for sid in range(len(self.layer)):
            if self.layer[sid] == probe and self.parent[sid] in probes:
                probes[self.parent[sid]] += 1
        out = {name: [0, 0] for name in CLOSED_SEARCHES.values()}
        for sid, n in probes.items():
            if n:
                r = out[CLOSED_SEARCHES[self.names[self.layer[sid]]]]
                r[0] += self.found[sid]
                r[1] += n
        return out

    def sample_caches(self):
        """Add the cache counters of the execution that just ended."""
        for fn, counts in self.caches.values():
            info = fn.cache_info()
            counts[0] += info.hits
            counts[1] += info.misses

    def cache_hit_ratio(self, layer) -> float:
        if layer not in self.caches:
            return 0.0
        hits, misses = self.caches[layer][1]
        return hits / (hits + misses) if hits + misses else 0.0

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        t = self.layer_totals()
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        put("diophantine.calls", t["diophantine"]["calls"], "count")
        put("diophantine.busy_s", t["diophantine"]["busy_s"], "s")
        put("diophantine.cap_hits", t["diophantine"]["cap_hits"], "count")
        put("linalg.smith.calls", t["linalg.smith"]["calls"], "count")
        put("linalg.smith.busy_s", t["linalg.smith"]["busy_s"], "s")
        put("monoids.contains.calls", t["monoids.contains"]["calls"], "count")
        put("monoids.contains.busy_s", t["monoids.contains"]["busy_s"], "s")
        put("monoids.contains.hit_ratio", self.cache_hit_ratio("monoids.contains"), "ratio")
        put("monoids.covector.busy_s", t["monoids.covector"]["busy_s"], "s")
        put("bundles.bb_bundle.busy_s", t["bundles.bb_bundle"]["busy_s"], "s")
        put("monoids.faces.busy_s", t["monoids.faces"]["busy_s"], "s")
        put("monoids.is_face.calls", t["monoids.is_face"]["calls"], "count")
        put("atlases.closed_table.busy_s", t["atlases.closed_table"]["busy_s"], "s")
        put("atlases.fingerprint.calls", t["atlases.fingerprint"]["calls"], "count")
        for name, (closed, probes) in self.closed_ratios().items():
            put(name, closed / probes if probes else 0.0, "ratio")
        put("roots.closed_subsets.busy_s", t["roots.closed_subsets"]["busy_s"], "s")
        put("monoids.divisors.calls", t["monoids.divisors"]["calls"], "count")
        put("monoids.divisors.busy_s", t["monoids.divisors"]["busy_s"], "s")
        put("monoids.bounded_members.busy_s", t["monoids.bounded_members"]["busy_s"], "s")
        put("graded.ideal_member.calls", t["graded.ideal_member"]["calls"], "count")
        put("graded.ideal_member.hit_ratio", self.cache_hit_ratio("graded.ideal_member"), "ratio")
        put("graded.support_report.busy_s", t["graded.support_report"]["busy_s"], "s")
        put("graded.attractor.busy_s", t["graded.attractor"]["busy_s"], "s")
        put("roots.square.busy_s", t["roots.square"]["busy_s"], "s")
        put("cohomology.primitive.busy_s", t["cohomology.primitive"]["busy_s"], "s")
        put("cohomology.differential.calls", t["cohomology.differential"]["calls"], "count")
        put("bundles.dilatation_check.busy_s", t["bundles.dilatation_check"]["busy_s"], "s")
        put("cli.calls", t[CLI]["calls"], "count")
        put("cli.self_s", t[CLI]["self_s"], "s")
        return out
