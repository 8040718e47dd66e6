"""Run one workload of the qndspin benchmark and print its metrics.

    python3 perfbench/run.py --workload {cli-oneshot,mc-bulk,mc-scan} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it uses the checkout's ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (provenance, sample counts, per-operation checks),
which is also written under ``.perfbench_out/``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# import the benchmark as the `perfbench` package, not as loose modules
sys.path[0] = str(ROOT)

from perfbench import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
# BLAS/OpenMP pools: one thread each, so the single client never runs
# more threads than there are cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, threads: dict) -> dict:
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "versions": versions,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": threads,
        "threads_per_client": 1,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny trial counts and one set-up sample (the benchmark's tests)")
    p.add_argument("--inject-bad-op", action="store_true",
                   help="add one operation with an invalid config (the benchmark's tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qndspin" / "cli.py").is_file():
        print(f"error: no qndspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = workloads.Runner(args.workload, args.seed, args.seconds, work, sizes,
                              inject_bad_op=args.inject_bad_op)
    try:
        if args.trace:
            runner.loop(traced_too=True)
            metrics, samples, extra = runner.per_layer()
            records = extra.pop("records")
        else:
            setup = workloads.measure_setup(runner.env, sizes["setup_reps"])
            runner.loop(traced_too=False)
            metrics, samples, extra = runner.end_to_end(setup)
            records = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.results)
    failed = sum(not r.ok for r in runner.results)
    report = {
        "provenance": provenance(args, threads),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        **extra,
        "operations": [r.summary() for r in runner.results],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))
    if records:
        with open(OUT / f"{tag}-spans.jsonl", "w") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
