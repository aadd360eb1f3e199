"""Quick checks of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for one round, untraced and traced, and checks that the
result line names every metric of BENCHMARK.json with its unit; checks that
a planted wrong answer raises failed_share and clears correct; checks that
the benchmark fails, printing no result, without ``src/``.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args, cwd):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py")] + args
    return subprocess.run(cmd, cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def check_metrics(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)], ROOT)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            if trace:
                check_spans_inside_items(ROOT / ".perfbench" / ("spans-%s-5.tsv" % workload))
            print("ok  %s --trace %d: %d metrics" % (workload, trace, len(got)))


def check_spans_inside_items(path):
    """Every span but an item's own lies inside an item's timed execution, so
    answer checks and round building record nothing."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    assert rows, path
    outside = [r for r in rows if r[3] != "item" and r[1] == "-1"]
    assert not outside, (path, len(outside), outside[:3])


def check_planted_wrong_answer():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import corpus
    import worker

    files = corpus.ProblemFiles(ROOT / ".perfbench" / "selftest-files")
    try:
        items = corpus.membership_round(5, 0, files)[73:113]
        honest = worker.Runner(corpus)
        honest.run_round(items)
        planted = worker.Runner(corpus)
        wrong = items[:1] + [corpus.Item(items[1].kind, items[1].run,
                                         lambda answer: not items[1].check(answer))] + items[2:]
        planted.run_round(wrong)
    finally:
        shutil.rmtree(files.dir, ignore_errors=True)
    a, b = worker.summarize(honest.finish()), worker.summarize(planted.finish())
    assert a["wrong"] == 0 and b["wrong"] == 1, (a["wrong"], b["wrong"])
    assert b["failed_share"] > a["failed_share"], (a["failed_share"], b["failed_share"])
    print("ok  planted wrong answer: failed_share %.4f -> %.4f" % (a["failed_share"], b["failed_share"]))


def check_without_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(["--workload", "membership", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print("ok  no sources: exit code %d, no result printed" % proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_without_sources()
    check_planted_wrong_answer()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
