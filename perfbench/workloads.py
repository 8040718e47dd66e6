"""Workloads, operations and metrics of the qndspin benchmark.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished.  An operation is one CLI
process (``python -m qndspin.cli``) on ``cli-oneshot`` and one in-process
``qndspin.cli.main(["run", ...])`` scenario call on the ``mc-*``
workloads.  Operations are grouped in cycles; a run repeats whole cycles
until ``--seconds`` have passed, so every run holds the same mix.

The timed run (``--trace 0``) reports the end-to-end metrics.  The traced
run (``--trace 1``) alternates each cycle traced and untraced, with the
same seeds, and reports per-layer metrics per traced operation next to
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.checks import check_run
from perfbench.spans import Recorder

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

CHILD_TIMEOUT_S = 120
# stop starting cycles once a run could no longer end within this time
RUN_BUDGET_S = 150
BULK_TRIALS = 1000       # per fig3 grid point: one operation takes ~6 s at the seed
SCAN_TRIALS = 400        # the CLI default
SETUP_REPS = 5
# --smoke: the benchmark's own tests run every workload at this size
SMOKE = {"bulk_trials": 400, "scan_trials": 50, "setup_reps": 1}
FULL = {"bulk_trials": BULK_TRIALS, "scan_trials": SCAN_TRIALS, "setup_reps": SETUP_REPS}

# an unknown top-level key: the CLI must refuse it with exit code 2
BAD_CONFIG = {"not_a_config_key": 1}


@dataclass(frozen=True)
class Op:
    kind: str            # "run" or "verify"
    scenario: str
    out_dir: Path
    trials: int = 0      # --trials, 0 for the deterministic scenarios
    seed: int = 0
    config: Path | None = None

    def argv(self) -> list:
        args = ["run", "--scenario", self.scenario]
        if self.config is not None:
            args += ["--config", str(self.config)]
        if self.kind == "verify":
            manifests = sorted(self.out_dir.glob("*_manifest.json"))
            target = manifests[0] if manifests else self.out_dir / "missing_manifest.json"
            return args + ["--verify", str(target)]
        if self.trials:
            args += ["--trials", str(self.trials)]
        return args + ["--seed", str(self.seed), "--out", str(self.out_dir)]


@dataclass
class OpResult:
    op: Op
    wall: float
    traced: bool
    problems: list = field(default_factory=list)
    trials: int = 0
    rss_mb: float = 0.0
    artifact_bytes: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        return {"kind": self.op.kind, "scenario": self.op.scenario,
                "wall_s": self.wall, "traced": self.traced, "ok": self.ok,
                "trials": self.trials, "problems": self.problems,
                "diagnostics": self.diagnostics}


def cli_oneshot(cycle: int, seed: int, out: Path, sizes: dict) -> list:
    scenario = ("params-report", "limits")[cycle % 2]
    run = Op("run", scenario, out / scenario, seed=seed)
    return [run, Op("verify", scenario, run.out_dir)]


def mc_bulk(cycle: int, seed: int, out: Path, sizes: dict) -> list:
    return [Op("run", "fig3", out / "fig3", sizes["bulk_trials"], seed)]


def mc_scan(cycle: int, seed: int, out: Path, sizes: dict) -> list:
    return [Op("run", s, out / s, sizes["scan_trials"], seed)
            for s in ("fig2", "rotation", "ramsey")]


# name -> (cycle builder, operations run inside the benchmark process)
WORKLOADS = {
    "cli-oneshot": (cli_oneshot, False),
    "mc-bulk": (mc_bulk, True),
    "mc-scan": (mc_scan, True),
}


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work / "tmp")
    return env


def spawn(cmd: list, env: dict, log_dir: Path):
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, reps: int) -> dict:
    """Interpreter start to a built RunConfig, in fresh processes.

    One untimed process first fills the bytecode and file caches, which
    users do not pay on every run.
    """
    samples = defaultdict(list)
    for i in range(reps + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(CHILD), "setup"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            samples["setup_s"].append(data["ready"] - t0)
            samples["import_s"].append(data["import_s"])
            samples["config_s"].append(data["config_s"])
    return dict(samples)


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def tail(walls: list):
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not lie above the median, so
    the maximum is reported instead.  Returns (value, percentile).
    """
    s = sorted(walls)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


class Runner:
    """One run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 sizes: dict, inject_bad_op: bool = False):
        self.build_cycle, self.in_process = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.sizes = sizes
        self.inject_bad_op = inject_bad_op
        self.env = child_env(work)
        self.results = []
        self.recorder = None          # in-process spans of the traced run
        self.child_dumps = []         # spans and import times of traced children
        self._ops = 0
        self._cli = None

    # -- operations -------------------------------------------------------
    def _load_cli(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import qndspin.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"qndspin imported from {cli.__file__}, not from {SRC}")
        self._cli = cli
        tempfile.tempdir = str(self.work / "tmp")

    def _call_in_process(self, argv: list):
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self._cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an operation that raises has failed
            code = None
            sink.write(traceback.format_exc())
        return time.perf_counter() - t0, code, sink.getvalue()

    def execute(self, op: Op, traced: bool) -> OpResult:
        op_id = self._ops
        self._ops += 1
        log_dir = self.work / "logs" / str(op_id)
        if self.in_process:
            if traced:
                self.recorder.op = op_id
            wall, code, output = self._call_in_process(op.argv())
            rss = 0.0
        else:
            if traced:
                dump = log_dir / "spans.json"
                cmd = [sys.executable, "-X", "importtime", str(CHILD), "trace",
                       str(dump), str(op_id), "--", *op.argv()]
            else:
                cmd = [sys.executable, "-m", "qndspin.cli", *op.argv()]
            wall, code, rss = spawn(cmd, self.env, log_dir)
            output = (log_dir / "stderr").read_text(errors="replace")
            if traced:
                self._collect_child(dump, output)
        result = OpResult(op, wall, traced, rss_mb=rss)
        if code != 0:
            result.problems.append(f"exit code {code}: {output.strip()[-500:]}")
        elif op.kind == "run":
            result.problems, result.diagnostics, result.trials = check_run(
                op.scenario, op.out_dir, op.trials)
            if op.out_dir.is_dir():
                result.artifact_bytes = sum(
                    f.stat().st_size for f in op.out_dir.iterdir() if f.is_file())
        return result

    def _collect_child(self, dump: Path, stderr: str):
        try:
            data = json.loads(dump.read_text())
        except (OSError, ValueError):
            return
        data["importtime"] = parse_importtime(stderr)
        self.child_dumps.append(data)

    def run_cycle(self, cycle: int, traced: bool):
        out = self.work / "ops" / f"{cycle}-{int(traced)}"
        ops = self.build_cycle(cycle, self.seed * 1000 + cycle, out, self.sizes)
        if self.inject_bad_op and cycle == 0 and not traced:
            bad = self.work / "bad_config.json"
            bad.write_text(json.dumps(BAD_CONFIG))
            ops.insert(0, Op("run", ops[0].scenario, out / "bad", ops[0].trials,
                             ops[0].seed, config=bad))
        recorder = self.recorder if traced else None
        if recorder is not None:
            recorder.install()
        try:
            results = [self.execute(op, traced) for op in ops]
        finally:
            if recorder is not None:
                recorder.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        self.results += results

    def loop(self, traced_too: bool):
        """Whole cycles for about --seconds (at least one).

        A further cycle starts only if it is expected to end less than
        half a cycle after --seconds, so that runs last about --seconds
        however long one cycle takes.
        """
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        if self.in_process:
            self._load_cli()
        if traced_too and self.in_process:
            self.recorder = Recorder()
        t_start = time.perf_counter()
        cycle = 0
        while True:
            if traced_too:
                self.run_cycle(cycle, traced=True)
            self.run_cycle(cycle, traced=False)
            cycle += 1
            elapsed = time.perf_counter() - t_start
            per_cycle = elapsed / cycle
            if (elapsed + per_cycle / 2 >= self.seconds
                    or elapsed + per_cycle > RUN_BUDGET_S):
                break

    # -- metrics ----------------------------------------------------------
    def end_to_end(self, setup: dict) -> tuple:
        walls = [r.wall for r in self.results]
        ok = [r for r in self.results if r.ok]
        if self.in_process:
            throughput = sum(r.trials for r in ok) / sum(walls)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rss_samples = 1
        else:
            throughput = len(ok) / sum(walls)
            rss = max(r.rss_mb for r in self.results)
            rss_samples = len(self.results)
        tail_value, tail_pct = tail(walls)
        metrics = {
            "setup_s": (statistics.median(setup["setup_s"]), "s"),
            "throughput_per_s": (throughput, "1/s"),
            "wall_p50_s": (statistics.median(walls), "s"),
            "wall_tail_s": (tail_value, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        samples = {"setup_s": len(setup["setup_s"]), "throughput_per_s": len(walls),
                   "wall_p50_s": len(walls), "wall_tail_s": len(walls),
                   "peak_rss_mb": rss_samples}
        extra = {"wall_tail_percentile": tail_pct,
                 "wall_tail_samples_beyond": min(10, len(walls) - 1),
                 "setup": setup}
        return metrics, samples, extra

    def peak_alloc_mb(self) -> float:
        """tracemalloc peak of the longest run_trials call, replayed untimed."""
        if self.recorder is None or self.recorder.longest_run_trials is None:
            return 0.0
        _, fn, args, kwargs = self.recorder.longest_run_trials
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def per_layer(self) -> tuple:
        traced = [r for r in self.results if r.traced]
        untraced = [r for r in self.results if not r.traced]
        n = max(len(traced), 1)

        records = []
        counters = defaultdict(lambda: [0, 0.0])
        engine = Counter()
        absent = set()
        dumps = list(self.child_dumps)
        if self.recorder is not None:
            dumps.append(self.recorder.dump())
        for proc, dump in enumerate(dumps):
            records += [dict(r, proc=proc) for r in dump["spans"]]
            for name, (calls, secs) in dump["counters"].items():
                counters[name][0] += calls
                counters[name][1] += secs
            engine.update(dump["engine"])
            absent.update(dump["absent"])

        total = defaultdict(float)
        selfs = defaultdict(float)
        calls = Counter()
        first_config = {}
        for r in records:
            duration = r["end"] - r["start"]
            total[r["name"]] += duration
            selfs[r["name"]] += r["self"]
            calls[r["name"]] += 1
            if r["name"] == "config.load_and_validate":
                first_config.setdefault(r["proc"], duration)

        def per_op(*names):
            return sum(total[x] for x in names) / n

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        imports = [d.get("importtime", {}) for d in self.child_dumps]
        op_wall = mean([r.wall for r in traced])
        untraced_wall = mean([r.wall for r in untraced])
        trials = engine["trials"]
        run_trials_s = per_op("measurement.run_trials")
        import_s = mean([d["import_s"] for d in self.child_dumps])
        probe = counters["measurement.simulate_probe_pulse"]
        lor = counters["cavity.lorentzian_transmission"]
        inv = counters["cavity.inverse_transmission"]
        fits = ("analysis.fit_quadratic_scaling", "analysis.fit_contrast",
                "analysis.fit_noise_model")
        m = {
            "cli.import_s": (import_s, "s"),
            "cli.import.scipy_optimize_s": (mean([i.get("scipy.optimize", 0.0) for i in imports]), "s"),
            "cli.import.scipy_integrate_s": (mean([i.get("scipy.integrate", 0.0) for i in imports]), "s"),
            "cli.import.jsonschema_s": (mean([i.get("jsonschema", 0.0) for i in imports]), "s"),
            "cli.import_share": (import_s / op_wall if op_wall else 0.0, "frac"),
            "cli.verify_s": (per_op("cli.verify"), "s"),
            "config.load_and_validate_s": (
                statistics.median(first_config.values()) if first_config else 0.0, "s"),
            "config.calls": (calls["config.load_and_validate"] / n, "count"),
            "cavity.coupling_summary_s": (per_op("cavity.coupling_summary"), "s"),
            "cavity.transmission_calls": ((lor[0] + inv[0]) / n, "count"),
            "cavity.transmission_s": ((lor[1] + inv[1]) / n, "s"),
            "scattering.raman_rates_s": (per_op("scattering.raman_rates"), "s"),
            "spinstate.prepare_s": (
                per_op("spinstate.prepare_css", "spinstate.measurement_backaction"), "s"),
            "spinstate.calls": (
                (calls["spinstate.prepare_css"] + calls["spinstate.measurement_backaction"]) / n,
                "count"),
            "measurement.run_trials_s": (run_trials_s, "s"),
            "measurement.calls": (calls["measurement.run_trials"] / n, "count"),
            "measurement.trials": (trials / n, "count"),
            "measurement.us_per_trial": (1e6 * run_trials_s * n / trials if trials else 0.0, "us"),
            "measurement.flip_events": (engine["flip_events"] / n, "count"),
            "measurement.events_per_trial": (
                engine["flip_events"] / trials if trials else 0.0, "count"),
            "measurement.probe_pulse_s": (probe[1] / n, "s"),
            "measurement.pulses": (probe[0] / n, "count"),
            "measurement.saturated_frac": (engine["saturated"] / trials if trials else 0.0, "frac"),
            "measurement.peak_alloc_mb": (self.peak_alloc_mb(), "MB"),
            "measurement.wall_share": (run_trials_s / op_wall if op_wall else 0.0, "frac"),
            "analysis.variance_stats_s": (per_op("analysis.variance_stats"), "s"),
            "analysis.fit_s": (per_op(*fits), "s"),
            "analysis.calls": (
                sum(calls[x] for x in ("analysis.variance_stats", *fits)) / n, "count"),
            "limits.report_s": (per_op("limits.limits_report"), "s"),
            "scenarios.run_scenario_s": (per_op("scenarios.run_scenario"), "s"),
            "scenarios.self_s": (selfs["scenarios.run_scenario"] / n, "s"),
            "scenarios.artifact_bytes": (mean([r.artifact_bytes for r in traced]), "B"),
            "trace.op_wall_s": (op_wall, "s"),
            "trace.untraced_op_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (op_wall - untraced_wall, "s"),
            "trace.overhead_frac": (op_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "frac"),
            "trace.ops": (len(traced), "count"),
        }
        samples = {"traced_ops": len(traced), "untraced_ops": len(untraced),
                   "processes": len(dumps), "spans": len(records)}
        extra = {"absent": sorted(absent), "records": records}
        return m, samples, extra
