"""Tests of the benchmark itself: inputs, checkers and the traced run.

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the package's own test run.  They
write under ``.bench_work/selftest/`` and use small versions of the
workloads, so they take a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from goodwin_delay import cli  # noqa: E402


@pytest.fixture
def work(request):
    path = ROOT / ".bench_work" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def small(workload: str, seed: int = 0) -> workloads.Inputs:
    """The workload at a size that runs in well under a second."""
    inp = workloads.make_inputs(workload, seed)
    if inp.kind == "sweep":
        return dataclasses.replace(inp, count=60)
    if inp.kind == "simulate":
        return dataclasses.replace(inp, t_end=20.0)
    return dataclasses.replace(inp, delays=inp.delays[::8], t_end=50.0)


def produce(inp: workloads.Inputs, work: Path) -> tuple[Path, str]:
    """Run the workload in-process; returns (output dir, stdout)."""
    out = work / "out"
    out.mkdir()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if inp.kind == "batch":
            print(json.dumps({"records": workloads.run_batch(inp, workloads.library_api())}))
        else:
            config = work / "config.json"
            config.write_text(json.dumps(inp.config()), encoding="utf-8")
            cwd = os.getcwd()
            os.chdir(out)  # the benchmark runs each command with --out .
            try:
                assert cli.main(inp.cli_args(config, ".")) == 0
            finally:
                os.chdir(cwd)
    return out, buf.getvalue()


def test_same_seed_gives_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
        assert (workloads.make_inputs(name, 7).inputs_sha256()
                == workloads.make_inputs(name, 7).inputs_sha256())


def test_seed_changes_values_not_sizes():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
        assert a.inputs_sha256() != b.inputs_sha256()
        assert a.config_sha256() == b.config_sha256()
        assert (a.start, a.init, a.delays) != (b.start, b.init, b.delays)
        assert (a.count, a.tau, a.t_end, len(a.delays)) == (b.count, b.tau, b.t_end, len(b.delays))
    batch = workloads.make_inputs("simulate_batch", 3)
    width = 0.04 / workloads.BATCH_DELAYS
    assert all(0.02 + i * width <= tau < 0.02 + (i + 1) * width
               for i, tau in enumerate(batch.delays))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checker_accepts_outputs(name, work):
    inp = small(name)
    out, stdout = produce(inp, work)
    check = workloads.check_outputs(inp, out, stdout)
    assert check.problems == []
    # numpy 2 writes the four --with-hopf numbers as np.float64(...)
    assert check.malformed == (4 * inp.count if inp.kind == "sweep" else 0)


def _rewrite(path: Path, row: int, column: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("column, edit", [
    (1, lambda cell: repr(float(cell) + 1e-9)),                    # beta_e
    (8, lambda cell: "stable" if cell == "unstable" else "unstable"),  # verdict
    (15, lambda cell: "SingularSystem"),                           # error
])
def test_checker_rejects_a_corrupted_sweep_row(column, edit, work):
    inp = small("sweep_delta_a")
    out, stdout = produce(inp, work)
    _rewrite(out / "sweep.csv", 41, column, edit)
    assert workloads.check_outputs(inp, out, stdout).problems


def test_checker_rejects_a_truncated_trajectory(work):
    inp = small("simulate_csv")
    out, stdout = produce(inp, work)
    path = out / "trajectory.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-5]) + "\n")
    assert workloads.check_outputs(inp, out, stdout).problems


def test_checker_rejects_phase_columns_that_differ(work):
    inp = small("simulate_csv")
    out, stdout = produce(inp, work)
    _rewrite(out / "phase.csv", 7, 0, lambda cell: repr(float(cell) * 2))
    assert workloads.check_outputs(inp, out, stdout).problems


def test_nonzero_exit_fails_the_operation():
    inp = dataclasses.replace(small("sweep_tau_b"), workload="selftest-exit", count=0)
    bench = run.Bench(inp, ROOT, 0, workloads)
    samples = bench.commands(0, 1)
    assert samples[0].proc.code == 1
    bench.check(samples)
    assert bench.failed == 1 and bench.attempted == 2


def test_traced_run_is_transparent(work):
    inp = small("sweep_tau_b")
    out, stdout = produce(inp, work)
    reference = workloads.outputs_digest(out, stdout)
    trace = tracing.trace_workload(inp, work, 0)
    assert {p["traced_digest"] for p in trace["pairs"]} == {reference}
    assert {p["untraced_digest"] for p in trace["pairs"]} == {reference}
    layers = tracing.summarize(trace["layers"])
    assert layers["model.validate_parameters"]["calls"] == inp.count + 1
    assert layers["normal_form.solve_E1"]["calls"] == inp.count
    assert layers["cli.main"]["calls"] == 1
    # the wrappers are gone once the traced run ends
    assert cli.simulate is workloads.simulate


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1832 |     150471 |       numpy",
        "import time:       540 |     198712 |   goodwin_delay",
        "import time:      5324 |     216175 | goodwin_delay.cli",
    ])
    assert run.parse_importtime(stderr) == (150.471, 65.704)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    assert spec["paths"] == [HERE.name]
