"""Benchmark of the goodwin-delay package: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` and
writes only under ``.bench_work/``.  Workloads (see ``workloads.py``):

  sweep_tau_b     10,000-row tau sweep of case B with --with-hopf
  sweep_delta_a   10,000-row delta sweep of case A at tau=0.03 with --with-hopf
  simulate_csv    simulate case A, tau=0.05, t_end=500, writing the CSV files
  simulate_batch  verdict + simulate + classify for 16 delays, library only

One client runs one command at a time (a closed loop), each CLI command in a
fresh ``python -m goodwin_delay.cli`` process, for S seconds and at least
three commands.  ``GOODWIN_DELAY_THREADS`` is removed from the children's
environment, so the serial path is measured.  Every timed process is
started by ``launch.py``, which reports its wall time, CPU time and peak RSS.

``--trace 0`` reports the end-to-end metrics, medians over the commands of
the run.  ``--trace 1`` reports the per-layer metrics from a traced
in-process run (``tracing.py``) whose outputs must be byte-identical to an
untraced command's.  Either way the outputs are checked, every command is
an operation that fails on a non-zero exit, a timeout, a wrong value or an
output that differs from the run's first command, and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it holds the provenance, which is also saved
with the metrics in ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 90
MIN_COMMANDS = 3
SETUP_PER_COMMAND = 2  # fresh imports timed for setup_s after each command
IMPORTTIME_RUNS = 5    # `python -X importtime` runs for the setup.* layer metrics

# name -> (unit, better); the order and the names are those of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "items_per_s": ("1/s", "higher"),
}
LAYER_SPANS = (
    "model.validate_parameters", "model.subsystem_coefficients", "model.equilibrium",
    "spectral.stability_verdict", "spectral.analyze_spectrum",
    "normal_form.hopf_analysis", "normal_form.eigen_pair",
    "normal_form.g_coefficients", "normal_form.solve_E1", "normal_form.solve_E2",
    "normal_form.lyapunov_quantities",
    "simulate.simulate", "simulate.classify_dynamics", "simulate.oscillation_period",
)
PER_LAYER = {
    **{f"{span}.{what}": (unit, "lower")
       for span in LAYER_SPANS for what, unit in (("calls", "count"), ("ms", "ms"))},
    "simulate.steps": ("count", "lower"),
    "simulate.us_per_step": ("us", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "setup.numpy_import_ms": ("ms", "lower"),
    "setup.package_import_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "src.lines": ("lines", "lower"),
    "malformed_cells": ("count", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "batch.verdict_agreement": ("count", "higher"),
}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_process(argv, cwd: Path, env: dict, log: Path,
                timeout: float = COMMAND_TIMEOUT_S) -> Proc:
    """Run argv to its end through ``launch.py``, which times it.

    Standard output and error go to LOG.stdout and LOG.stderr.
    """
    out_path, err_path = log.with_suffix(".stdout"), log.with_suffix(".stderr")
    launcher = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), repr(timeout), str(out_path),
         str(err_path), "--", *argv],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=timeout + COMMAND_TIMEOUT_S, check=True)
    doc = json.loads(launcher.stdout)
    return Proc(doc["code"], doc["wall_s"], doc["cpu_s"], doc["peak_rss_mb"],
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


@dataclass
class Sample:
    """One command of the measured loop."""

    proc: Proc
    wall_s: float          # the batch reports its own time, import excluded
    cpu_s: float
    digest: str | None     # hash of every output; None if the command failed


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy ms, package ms without numpy) from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            cumulative[name] = max(cumulative.get(name, 0), int(parts[1]))
    numpy_us = cumulative.get("numpy", 0)
    package_us = max((us for name, us in cumulative.items()
                      if name.split(".")[0] == "goodwin_delay"), default=0)
    return numpy_us / 1e3, (package_us - numpy_us) / 1e3


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """One run of one workload: its inputs, work directory and operation counts."""

    def __init__(self, inp, root: Path, seconds: float, workloads):
        self.inp = inp
        self.wl = workloads
        self.root = root
        self.seconds = seconds
        self.src = root / "src"
        self.work = root / ".bench_work" / inp.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / "config.json").write_text(json.dumps(inp.config()), encoding="utf-8")
        (self.work / "inputs.json").write_text(inp.to_json(), encoding="utf-8")
        self.env = {k: v for k, v in os.environ.items() if k != "GOODWIN_DELAY_THREADS"}
        self.env["PYTHONPATH"] = str(self.src)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict = {}     # metric -> its value for each command

    def op(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def python(self, args, log: str, cwd: Path | None = None, **kw) -> Proc:
        return run_process([sys.executable, *args], cwd or self.work, self.env,
                           self.work / log, **kw)

    def import_time(self, log: str) -> float:
        """Wall time of a fresh interpreter importing goodwin_delay.cli."""
        p = self.python(["-c", "import goodwin_delay.cli"], log)
        self.op(p.code == 0, f"import exited {p.code}: {p.stderr[-400:]}")
        return p.wall_s

    def import_layers(self) -> tuple[float, float]:
        numpy_ms, package_ms = [], []
        for i in range(IMPORTTIME_RUNS):
            p = self.python(["-X", "importtime", "-c", "import goodwin_delay.cli"],
                            f"importtime{i}")
            if self.op(p.code == 0, f"importtime exited {p.code}"):
                n, pkg = parse_importtime(p.stderr)
                numpy_ms.append(n)
                package_ms.append(pkg)
        return statistics.median(numpy_ms or [0.0]), statistics.median(package_ms or [0.0])

    def command(self, k: int) -> Sample:
        """Run the workload's command once, as a fresh process."""
        wl = self.wl
        if self.inp.kind == "batch":
            p = self.python([str(HERE / "batch.py"), str(self.work / "inputs.json")],
                            f"cmd{k}")
            try:
                doc = json.loads(p.stdout.splitlines()[-1])
                return Sample(p, doc["wall_s"], doc["cpu_s"],
                              wl.sha256(wl.records_text(doc["records"])) if p.code == 0 else None)
            except (ValueError, KeyError, IndexError):
                return Sample(p, p.wall_s, p.cpu_s, None)
        out = self.work / f"cmd{k}"
        out.mkdir()
        p = self.python(["-m", "goodwin_delay.cli",
                         *self.inp.cli_args(self.work / "config.json", ".")],
                        f"cmd{k}", cwd=out)
        digest = wl.outputs_digest(out, p.stdout) if p.code == 0 else None
        return Sample(p, p.wall_s, p.cpu_s, digest)

    def commands(self, seconds: float, least: int,
                 setup: list | None = None) -> list[Sample]:
        """The closed loop: one command after another for SECONDS.

        With SETUP, each command is followed by timed fresh imports, so that
        set-up is sampled across the whole run.
        """
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < least or time.perf_counter() < deadline:
            k = len(samples)
            samples.append(self.command(k))
            if k and self.inp.kind != "batch":
                shutil.rmtree(self.work / f"cmd{k}")
            if setup is not None:
                setup += [self.import_time(f"setup{k}.{j}") for j in range(SETUP_PER_COMMAND)]
        return samples

    def check(self, samples: list[Sample]):
        """Check the first command's outputs in full and the rest against it."""
        wl = self.wl
        first = samples[0]
        if first.digest is None:
            check = wl.Check(problems=["the first command failed"])
        elif self.inp.kind == "batch":
            check = wl.check_outputs(self.inp, self.work, first.proc.stdout)
        else:
            check = wl.check_outputs(self.inp, self.work / "cmd0", first.proc.stdout)
        for i, s in enumerate(samples):
            if s.digest is None:
                self.op(False, f"command {i} exited {s.proc.code}: {s.proc.stderr[-400:]}")
            elif i == 0:
                self.op(not check.problems, "; ".join(check.problems[:10]))
            else:
                self.op(s.digest == first.digest,
                        f"command {i}: outputs differ from command 0")
        reference = wl.check_reference()
        self.op(not reference.problems, "; ".join(reference.problems))
        return check

    def end_to_end(self) -> dict:
        """Medians over the run's commands, and over its imports for setup_s."""
        self.import_time("warmup")  # compiles the bytecode
        setup: list[float] = []
        samples = self.commands(self.seconds, MIN_COMMANDS, setup)
        self.samples = {"setup_s": setup,
                        **{k: [getattr(s, k) for s in samples] for k in ("wall_s", "cpu_s")},
                        "peak_rss_mb": [s.proc.peak_rss_mb for s in samples]}
        check = self.check(samples)
        items = max(check.items, 1)
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(s.wall_s for s in samples),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.proc.peak_rss_mb for s in samples),
            "items_per_s": statistics.median(items / s.wall_s for s in samples),
        }

    def per_layer(self, tracing) -> dict:
        wl = self.wl
        start = time.perf_counter()
        numpy_ms, package_ms = self.import_layers()
        samples = self.commands(0, 1)
        check = self.check(samples)
        reference = samples[0].digest
        # the traced run gets what is left of the run's seconds
        seconds = max(0.0, self.seconds - (time.perf_counter() - start))
        p = self.python([str(HERE / "tracing.py"), str(self.work / "inputs.json"),
                         str(self.work), repr(seconds)], "trace",
                        timeout=seconds + COMMAND_TIMEOUT_S)
        pairs, layers = [], {}
        if self.op(p.code == 0, f"traced run exited {p.code}: {p.stderr[-400:]}"):
            trace = json.loads((self.work / "trace.json").read_text(encoding="utf-8"))
            pairs = trace["pairs"]
            layers = tracing.summarize(trace["layers"])
        for i, pair in enumerate(pairs):
            self.op(pair["untraced_digest"] == reference,
                    f"in-process run {i}: outputs differ from the command's")
            self.op(pair["traced_digest"] == reference,
                    f"traced run {i}: outputs differ from the untraced command's")
        metrics = {}
        for span in LAYER_SPANS:
            metrics[f"{span}.calls"] = layers.get(span, {}).get("calls", 0)
            metrics[f"{span}.ms"] = layers.get(span, {}).get("ms", 0.0)
        steps = layers.get("simulate.steps", 0)
        metrics["simulate.steps"] = steps
        metrics["simulate.us_per_step"] = (
            1e3 * metrics["simulate.simulate.ms"] / steps if steps else 0.0)
        metrics["cli.self_ms"] = layers.get("cli.main", {}).get("ms", 0.0)
        metrics["cli.output_bytes"] = (
            0 if self.inp.kind == "batch" else wl.output_bytes(self.work / "cmd0"))
        metrics["setup.numpy_import_ms"] = numpy_ms
        metrics["setup.package_import_ms"] = package_ms
        if pairs:
            untraced = statistics.median(pair["untraced_s"] for pair in pairs)
            traced = statistics.median(pair["traced_s"] for pair in pairs)
            metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        else:
            metrics["trace.overhead_pct"] = 0.0
        metrics["src.lines"] = src_lines(self.src)
        metrics["malformed_cells"] = check.malformed
        metrics["fail_ratio"] = self.failed / self.attempted
        metrics["batch.verdict_agreement"] = (
            wl.agreement(json.loads(samples[0].proc.stdout.splitlines()[-1])["records"])
            if self.inp.kind == "batch" and samples[0].digest else 0)
        return metrics


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((src / "goodwin_delay").rglob("*.py")))


def provenance(bench: Bench, args) -> dict:
    import numpy

    return {
        "git_commit": git_commit(bench.root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": bench.inp.config_sha256(),
        "inputs_sha256": bench.inp.inputs_sha256(),
        "src_lines": src_lines(bench.src),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "goodwin_delay" / "cli.py").is_file():
        print("perfbench: no src/goodwin_delay here; run from the repository root",
              file=sys.stderr)
        return 2
    # The benchmark's modules import the package under test, so they are
    # imported only once its source is known to be here.
    sys.path.insert(0, str(root / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(workloads.make_inputs(args.workload, args.seed), root,
                  args.seconds, workloads)
    if args.trace:
        values, units = bench.per_layer(tracing), PER_LAYER
    else:
        values, units = bench.end_to_end(), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in units.items()}
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    prov = provenance(bench, args)
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "problems": bench.problems,
                    "samples": bench.samples, **result},
                   indent=2), encoding="utf-8")
    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
