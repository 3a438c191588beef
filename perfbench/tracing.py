"""Traced run: spans around each layer's public calls, recorded from outside.

The tracer replaces public names in the namespaces where the package looks
them up (``goodwin_delay.cli``, ``spectral`` and ``normal_form``) with
wrappers that record a span per call, then drives the workload in-process:
``cli.main(argv)`` for a CLI workload, the library batch otherwise.  No
package file is changed.  Spans are kept in memory and written out at the
end.

Run as a child of ``run.py``:

    python3 perfbench/tracing.py INPUTS_JSON WORK_DIR SECONDS

It alternates untraced and traced in-process runs of the workload for
SECONDS (at least two pairs), writes ``WORK_DIR/trace.json`` with the
timings, the output digest of every run and the per-layer counts and self
times, and ``WORK_DIR/spans.csv`` with the spans of the last traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from goodwin_delay import cli

# span name -> (module that defines it, attribute, namespaces that look it up)
LAYERS = {
    "model.validate_parameters": ("model", "validate_parameters", ("cli",)),
    "model.subsystem_coefficients": ("model", "subsystem_coefficients", ("cli", "spectral")),
    "model.equilibrium": ("model", "equilibrium", ("cli", "spectral")),
    "spectral.stability_verdict": ("spectral", "stability_verdict", ("cli",)),
    "spectral.analyze_spectrum": ("spectral", "analyze_spectrum", ("spectral",)),
    "normal_form.hopf_analysis": ("normal_form", "hopf_analysis", ("cli",)),
    "normal_form.eigen_pair": ("normal_form", "eigen_pair", ("normal_form",)),
    "normal_form.g_coefficients": ("normal_form", "g_coefficients", ("normal_form",)),
    "normal_form.solve_E1": ("normal_form", "solve_E1", ("normal_form",)),
    "normal_form.solve_E2": ("normal_form", "solve_E2", ("normal_form",)),
    "normal_form.lyapunov_quantities": ("normal_form", "lyapunov_quantities", ("normal_form",)),
    "simulate.simulate": ("simulate", "simulate", ("cli",)),
    "simulate.classify_dynamics": ("simulate", "classify_dynamics", ("cli",)),
    "simulate.oscillation_period": ("simulate", "oscillation_period", ("cli",)),
}
CLI_MAIN = "cli.main"


class Tracer:
    """Records one span per wrapped call: [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.steps = 0             # integrator steps of the traced simulate() calls
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.api: dict = {}        # attribute -> wrapped function

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "simulate.simulate":
                self.steps += len(result.times) - 1
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the package namespaces; restore on exit."""
        for name, (module, attr, namespaces) in LAYERS.items():
            original = getattr(importlib.import_module(f"goodwin_delay.{module}"), attr)
            wrapped = self.wrap(name, original)
            self.api[attr] = wrapped
            for ns in namespaces:
                mod = importlib.import_module(f"goodwin_delay.{ns}")
                if hasattr(mod, attr):
                    self._saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapped)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(self._saved):
                setattr(mod, attr, value)
            self._saved.clear()

    def self_times(self) -> dict:
        """name -> [calls, self ns]; self time is a span minus its child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - children
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def _run_cli(inp, work: Path, rep: str, tracer):
    """One in-process CLI command into WORK/rep; returns (seconds, digest)."""
    out = work / rep
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = inp.cli_args(work / "config.json", ".")
    main = tracer.wrap(CLI_MAIN, cli.main) if tracer else cli.main
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    digest = workloads.outputs_digest(out, buf.getvalue()) if code == 0 else f"exit {code}"
    shutil.rmtree(out)
    return elapsed, digest


def _run_batch(inp, tracer):
    api = SimpleNamespace(**tracer.api) if tracer else workloads.library_api()
    t0 = time.perf_counter()
    records = workloads.run_batch(inp, api)
    elapsed = time.perf_counter() - t0
    return elapsed, workloads.sha256(workloads.records_text(records))


def trace_workload(inp, work: Path, seconds: float) -> dict:
    def once(tracer, rep):
        if inp.kind == "batch":
            return _run_batch(inp, tracer)
        return _run_cli(inp, work, rep, tracer)

    pairs, layers = [], []
    deadline = time.perf_counter() + seconds
    while len(pairs) < 2 or time.perf_counter() < deadline:
        untraced_s, untraced_digest = once(None, "untraced")
        tracer = Tracer()
        with tracer.installed():
            traced_s, traced_digest = once(tracer, "traced")
        pairs.append({"untraced_s": untraced_s, "traced_s": traced_s,
                      "untraced_digest": untraced_digest,
                      "traced_digest": traced_digest})
        layers.append({"self_times": tracer.self_times(), "steps": tracer.steps})
    tracer.write_spans(work / "spans.csv")
    return {"pairs": pairs, "layers": layers}


def summarize(traced_runs: list[dict]) -> dict:
    """Per command: calls of each span name and the median of its self ms."""
    names = set(LAYERS) | {CLI_MAIN}
    out = {}
    for name in sorted(names):
        calls = [run["self_times"].get(name, [0, 0])[0] for run in traced_runs]
        ns = [run["self_times"].get(name, [0, 0])[1] for run in traced_runs]
        out[name] = {"calls": statistics.median_low(calls),
                     "ms": statistics.median(ns) / 1e6}
    out["simulate.steps"] = statistics.median_low(run["steps"] for run in traced_runs)
    return out


def main(argv: list[str]) -> int:
    inputs_path, work, seconds = argv
    inp = workloads.load_inputs(Path(inputs_path).read_text(encoding="utf-8"))
    work = Path(work).resolve()
    result = trace_workload(inp, work, float(seconds))
    (work / "trace.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
