"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each qndspin layer at every
module attribute bound to them, which is where their callers look them
up, so the program's own files stay untouched.  Each call of a span
target becomes one span ``[name, start, end, parent, op]`` held in
memory; the caller writes the spans out when the run ends.  Functions
called once per probe pulse (hundreds of thousands of times in one
operation) are counted instead, as calls and seconds at the same
boundary.  A target that a refactor has removed is listed in
``absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, function)
SPAN_TARGETS = {
    "cli.verify": ("qndspin.cli", "_verify"),
    "config.load_and_validate": ("qndspin.config", "load_and_validate"),
    "cavity.coupling_summary": ("qndspin.cavity", "coupling_summary"),
    "scattering.raman_rates": ("qndspin.scattering", "raman_rates"),
    "spinstate.prepare_css": ("qndspin.spinstate", "prepare_css"),
    "spinstate.measurement_backaction": ("qndspin.spinstate", "measurement_backaction"),
    "measurement.run_trials": ("qndspin.measurement", "run_trials"),
    "analysis.variance_stats": ("qndspin.analysis", "variance_stats"),
    "analysis.fit_quadratic_scaling": ("qndspin.analysis", "fit_quadratic_scaling"),
    "analysis.fit_contrast": ("qndspin.analysis", "fit_contrast"),
    "analysis.fit_noise_model": ("qndspin.analysis", "fit_noise_model"),
    "limits.limits_report": ("qndspin.limits", "limits_report"),
    "scenarios.run_scenario": ("qndspin.scenarios", "run_scenario"),
}

# counter name -> (module, function, caller module or None for every caller)
COUNTER_TARGETS = {
    "measurement.simulate_probe_pulse": ("qndspin.measurement", "simulate_probe_pulse", None),
    "cavity.lorentzian_transmission": ("qndspin.cavity", "lorentzian_transmission",
                                       "qndspin.measurement"),
    "cavity.inverse_transmission": ("qndspin.cavity", "inverse_transmission",
                                    "qndspin.measurement"),
}


class Recorder:
    """Spans and boundary counters of one process."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None, op id]
        self.counters = {name: [0, 0.0] for name in COUNTER_TARGETS}
        # read from the trial sets that run_trials returns
        self.engine = {"trials": 0, "flip_events": 0, "saturated": 0}
        self.absent = []
        self.op = None
        # (seconds, function, args, kwargs) of the longest run_trials call,
        # replayed under tracemalloc after the timed operations
        self.longest_run_trials = None
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        after = self._after_run_trials if name == "measurement.run_trials" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(fn, args, kwargs, out, span[2] - span[1])
            return out

        return wrapper

    def _counter(self, name, fn):
        slot = self.counters[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - t0

        return wrapper

    def _after_run_trials(self, fn, args, kwargs, out, seconds):
        try:
            self.engine["trials"] += int(out.n_trials)
            self.engine["flip_events"] += int(out.flip_counts.sum())
            self.engine["saturated"] += int(out.saturated.sum())
        except AttributeError:
            if "measurement.trial_set_fields" not in self.absent:
                self.absent.append("measurement.trial_set_fields")
        if self.longest_run_trials is None or seconds > self.longest_run_trials[0]:
            self.longest_run_trials = (seconds, fn, args, kwargs)

    def _patch(self, original, wrapper, callers):
        for mod in callers:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self):
        """Wrap every target found in the loaded qndspin modules."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qndspin" or n.startswith("qndspin."))]
        targets = [(name, mod, fn, None, self._span)
                   for name, (mod, fn) in SPAN_TARGETS.items()]
        targets += [(name, mod, fn, caller, self._counter)
                    for name, (mod, fn, caller) in COUNTER_TARGETS.items()]
        for name, mod_name, fn_name, caller, make in targets:
            try:
                original = getattr(importlib.import_module(mod_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            callers = package
            if caller is not None:
                bound = sys.modules.get(caller)
                if bound is not None and any(v is original for v in vars(bound).values()):
                    callers = [bound]
            self._patch(original, make(name, original), callers)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def self_times(self):
        """Duration of each span minus the time its child spans cover.

        The program is single-threaded, so children of one span never
        overlap and their durations add up.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [max(end - start - c, 0.0)
                for (_, start, end, _, _), c in zip(self.spans, covered)]

    def records(self):
        """Spans as dicts, with self time, for writing out."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "op": op, "self": self_s}
            for (name, start, end, parent, op), self_s
            in zip(self.spans, self.self_times())
        ]

    def dump(self):
        return {
            "spans": self.records(),
            "counters": {k: list(v) for k, v in self.counters.items()},
            "engine": dict(self.engine),
            "absent": list(self.absent),
        }
