"""Benchmark entry point.

    python3 perfbench/run.py --workload {membership,closure,attractors}
        --seed N --seconds S --trace {0,1}

Run from the root of a magnet-kit checkout; the library is imported from
``src/``.  Every measurement happens in a fresh interpreter (``worker.py``),
one process at a time, single-threaded.

--trace 0 prints the end-to-end metrics.  Set-up is repeated in
``SETUP_SAMPLES`` extra processes, half before and half after the measuring
one, and ``setup_s`` is the median of all set-ups in the run.  Item times are scaled to the speed of a reference task
timed between executions (see ``worker.Runner``); the report lines above the
result give the unscaled ones too.  ``setup_s`` is not scaled.

--trace 1 prints the per-layer metrics: one untraced and one traced process
share the time, and ``trace.overhead_share`` is traced items_per_s over
untraced items_per_s.  Spans are written to
``.perfbench/spans-<workload>-<seed>.tsv``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer, or an item that
raised anything but a resource cap, makes ``correct`` false and the exit code
1.  Resource caps count as failed items but not as wrong answers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("membership", "closure", "attractors")
SETUP_SAMPLES = 8
DEADLINE_S = 170.0


def _env():
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def _worker(args, started):
    """Run one worker process to completion and return its JSON result."""
    remaining = DEADLINE_S - (monotonic() - started)
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=str(ROOT), env=_env(), stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_lines(workload, res, setups):
    raw = res["raw"]
    lines = [
        "workload %s: %d items in %d round(s), %d failed (%d resource caps)"
        % (workload, res["attempted"], res["rounds"], res["failed"], res["caps"]),
        "  item latencies sum to %.2f s; all executions took %.2f s"
        % (res["timed_s"], res["executed_s"]),
        "  failed_share %.6f ratio" % res["failed_share"],
        "  latencies: %d samples; latency_tail_ms is p%s" % (res["attempted"], res["tail_percentile"]),
        "  host speed factor %.4f (REF_S over the median reference time)" % res["speed_factor"],
        "  unscaled: items_per_s %.4f 1/s, latency_p50_ms %.4f ms, latency_tail_ms %.4f ms"
        % (raw["items_per_s"], raw["latency_p50_ms"], raw["latency_tail_ms"]),
        "  setup_s median of %d set-ups: %s" % (
            len(setups), ", ".join("%.4f" % s for s in setups)),
    ]
    for kind, k in sorted(res["kinds"].items()):
        lines.append("  %-28s n=%-4d failed=%-3d total %.3f s" % (kind, k["n"], k["failed"], k["total_s"]))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "magnetkit" / "__init__.py").is_file():
        print("perfbench: run from a magnet-kit checkout (no src/magnetkit)", file=sys.stderr)
        return 2
    started = monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        # one execution per item on both sides, so the spans cover each once
        base += ["--runs", "1"]
        half = "%g" % (args.seconds / 2)
        plain = _worker(base + ["--seconds", half], started)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-%d.tsv" % (args.workload, args.seed))
        res = _worker(base + ["--seconds", half, "--trace", "--spans", str(spans_path)], started)
        metrics = {name: _metric(v, u) for name, (v, u) in res["layers"].items()}
        metrics["trace.overhead_share"] = _metric(res["items_per_s"] / plain["items_per_s"], "ratio")
        print("traced %d items, %d spans written to %s" % (res["attempted"], res["spans"], spans_path))
        if res["unwrapped"]:
            print("not found, so not traced: %s" % ", ".join(res["unwrapped"]))
        print("%-28s %6s %10s %10s" % ("layer", "calls", "busy_s", "self_s"))
        for name, t in res["layer_totals"].items():
            print("%-28s %6d %10.4f %10.4f" % (name, t["calls"], t["busy_s"], t["self_s"]))
        wrong = res["wrong"] + plain["wrong"]
    else:
        # set-ups before and after the measuring process, so that they meet
        # more of the host's slow and fast spells
        setup_only = base + ["--seconds", "0", "--setup-only"]
        setups = [_worker(setup_only, started)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        res = _worker(base + ["--seconds", "%g" % args.seconds], started)
        setups.append(res["setup_s"])
        setups += [_worker(setup_only, started)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        for line in _report_lines(args.workload, res, setups):
            print(line)
        metrics = {
            "latency_p50_ms": _metric(res["latency_p50_ms"], "ms"),
            "latency_tail_ms": _metric(res["latency_tail_ms"], "ms"),
            "items_per_s": _metric(res["items_per_s"], "1/s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
        wrong = res["wrong"]
    for name, m in metrics.items():
        print("  %-30s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
