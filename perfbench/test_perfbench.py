"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run every workload at the ``--smoke`` size, so they take about a
minute; the repository's own test suite does not collect them.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.spans import Recorder
from perfbench.workloads import tail

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
OUT = ROOT / ".perfbench_out"


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def spans_by_process(path):
    procs = {}
    for line in path.read_text().splitlines():
        span = json.loads(line)
        procs.setdefault(span["proc"], []).append(span)
    return procs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_declared_metrics(workload, trace):
    res = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in res["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    values = {name: m["value"] for name, m in res["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "cli-oneshot":
        assert values["measurement.calls"] == 0
        assert values["cli.import_s"] > 0
    else:
        assert values["measurement.calls"] > 0
        assert values["measurement.trials"] > 0


def test_child_self_time_never_exceeds_parent():
    last_json(run_bench("--workload", "mc-scan", "--seed", "5", "--seconds", "1",
                        "--trace", "1", "--smoke"))
    procs = spans_by_process(OUT / "mc-scan-seed5-trace1-spans.jsonl")
    assert procs
    for spans in procs.values():
        for span in spans:
            duration = span["end"] - span["start"]
            assert 0.0 <= span["self"] <= duration
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert span["self"] <= parent["end"] - parent["start"]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_recorder_self_time_subtracts_children():
    rec = Recorder()
    inner = rec._span("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    rec._span("outer", body)()
    outer, first, second = rec.records()
    assert first["parent"] == second["parent"] == 0 and outer["parent"] is None
    children = sum(s["end"] - s["start"] for s in (first, second))
    assert outer["self"] == pytest.approx(outer["end"] - outer["start"] - children)
    assert first["self"] <= outer["end"] - outer["start"]


def test_injected_bad_operation_is_counted_not_fatal():
    proc = run_bench("--workload", "cli-oneshot", "--seed", "4", "--seconds", "1",
                     "--smoke", "--inject-bad-op")
    res = last_json(proc)
    assert res["failed"] == 1 and res["attempted"] == 3 and res["correct"] is False
    assert res["metrics"]["wall_p50_s"]["value"] > 0
    report = json.loads(proc.stdout.strip().splitlines()[-2][len("report "):])
    assert report["failed_frac"] == pytest.approx(1 / 3)
    bad = [op for op in report["operations"] if not op["ok"]]
    assert bad[0]["problems"][0].startswith("exit code 2")


def test_refuses_a_checkout_without_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "mc-bulk", "--seed", "1", "--seconds", "1",
                         root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    walls = [float(i) for i in range(30)]
    assert tail(walls) == (19.0, pytest.approx(100 * 20 / 30))
    assert tail(walls[:20]) == (19.0, 100.0)
