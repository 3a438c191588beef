"""Workload inputs, the commands they run, and the checks on their outputs.

Every workload is generated from the benchmark seed.  The seed moves the
values (a sweep grid's offset, a start state, the delays of a batch) and
never the sizes (rows, steps of the CLI run, delays per batch).

The checkers compare the program's outputs with direct library calls made
here, in the benchmark process, and with invariants of the model that hold
on every row.  They count, but do not reject, the numeric cells that
``float()`` cannot parse (``malformed``): with numpy 2 the ``--with-hopf``
columns of a sweep are written as ``np.float64(...)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from goodwin_delay.errors import NotInteriorWarning, NoOscillation
from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters
from goodwin_delay.normal_form import hopf_analysis
from goodwin_delay.simulate import (HistorySpec, classify_dynamics,
                                    oscillation_period, simulate)
from goodwin_delay.spectral import analyze_spectrum, stability_verdict

# The two parameter sets of the README and the acceptance tests.
CASES = {
    "A": dict(mu1=0.0, mu2=1.0, nu1=0.02, nu2=0.04, n=0.01, gamma1=0.01,
              gamma2=0.012, a1=0.9, a2=1.0, a3=0.99, b1=1.9, b2=0.0, b3=0.6,
              c=0.38, s_pi=0.24, s_w=0.04, delta=4.2),
    "B": dict(mu1=0.0186145, mu2=0.5, nu1=0.015, nu2=0.03, n=0.01, gamma1=0.0,
              gamma2=0.0, a1=0.9, a2=1.0, a3=1.0, b1=1.9, b2=0.0, b3=0.6,
              c=0.4, s_pi=0.24, s_w=0.04, delta=4.0),
}

# Published values the outputs must reproduce: (value, absolute tolerance).
REFERENCE = {
    "A.tau0": (0.0348488, 1e-6),
    "A.omega0": (0.708056, 1e-5),
    "B.tau0": (0.0196383, 5e-5),
}

WORKLOADS = ("sweep_tau_b", "sweep_delta_a", "simulate_csv", "simulate_batch")
SWEEP_ROWS = 10_000
BATCH_DELAYS = 16
SAMPLE_ROWS = 256          # sweep rows recomputed by direct library calls
TRAJECTORY_CHECKPOINTS = 1000  # compare every n-th trajectory row, and the last
HOPF_CRITICAL_TOL = 1e-9

TEXT_COLUMNS = {"h_case", "verdict", "direction", "orbit_stability", "error"}
SWEEP_COLUMNS = ["beta_e", "lambda_e", "p0", "r0", "q0", "h_case", "tau0",
                 "verdict", "c1_re", "c1_im", "mu2_bar", "beta2", "direction",
                 "orbit_stability", "error"]
# Columns of a tau sweep that do not depend on tau.
TAU_INVARIANT = [c for c in SWEEP_COLUMNS if c != "verdict"]
# The analytic verdict each trajectory classification confirms.
AGREES = {"stable": "decaying", "unstable": "growing", "hopf_critical": "sustained"}

_NP_FLOAT = re.compile(r"np\.float64\((.*)\)\Z")


@dataclass(frozen=True)
class Inputs:
    """Everything one workload feeds the program; all of it comes from the seed."""

    workload: str
    seed: int
    kind: str              # "sweep", "simulate" or "batch"
    case: str
    variant: str
    param: str = ""        # sweep axis
    start: float = 0.0
    stop: float = 0.0
    count: int = 0         # sweep rows
    tau: float = 0.0       # fixed delay of a simulation or a parameter sweep
    t_end: float = 0.0
    init: tuple = ()       # (beta, lambda) start state of the CLI simulation
    delays: tuple = ()     # batch delays

    def config(self) -> dict:
        return dict(CASES[self.case])

    def cli_args(self, config_path, out) -> list[str]:
        common = ["--config", str(config_path), "--variant", self.variant,
                  "--out", str(out)]
        if self.kind == "sweep":
            fixed_tau = [] if self.param == "tau" else ["--tau", repr(self.tau)]
            return ["sweep", *common, "--param", self.param,
                    "--start", repr(self.start), "--stop", repr(self.stop),
                    "--count", str(self.count), *fixed_tau, "--with-hopf"]
        if self.kind == "simulate":
            return ["simulate", *common, "--tau", repr(self.tau),
                    "--t-end", repr(self.t_end),
                    "--init", f"{self.init[0]!r},{self.init[1]!r}"]
        raise ValueError(f"{self.workload} runs no CLI command")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def config_sha256(self) -> str:
        """Hash of what the seed does not change: parameters, command, sizes."""
        fixed = dict(dataclasses.asdict(self), config=self.config())
        for seeded in ("seed", "start", "stop", "init", "delays"):
            fixed.pop(seeded)
        fixed["n_delays"] = len(self.delays)
        return sha256(json.dumps(fixed, sort_keys=True))

    def inputs_sha256(self) -> str:
        return sha256(self.to_json() + json.dumps(self.config(), sort_keys=True))


def load_inputs(text: str) -> Inputs:
    doc = json.loads(text)
    doc["init"] = tuple(doc["init"])
    doc["delays"] = tuple(doc["delays"])
    return Inputs(**doc)


def make_inputs(workload: str, seed: int) -> Inputs:
    """The inputs of one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_tau_b":
        # tau0 = 0.0196, so about half the rows are stable and half unstable
        shift = rng.random() * 0.04 / (SWEEP_ROWS - 1)
        return Inputs(workload, seed, "sweep", "B", "B", param="tau",
                      start=shift, stop=0.04 + shift, count=SWEEP_ROWS)
    if workload == "sweep_delta_a":
        shift = rng.random() * 1.5 / (SWEEP_ROWS - 1)
        return Inputs(workload, seed, "sweep", "A", "A", param="delta",
                      start=3.5 + shift, stop=5.0 + shift, count=SWEEP_ROWS,
                      tau=0.03)
    if workload == "simulate_csv":
        init = (0.95 + rng.uniform(-0.01, 0.01), 0.74 + rng.uniform(-0.01, 0.01))
        return Inputs(workload, seed, "simulate", "A", "A", tau=0.05,
                      t_end=500.0, init=init)
    if workload == "simulate_batch":
        # one delay from each of 16 equal bins of [0.02, 0.06]
        width = 0.04 / BATCH_DELAYS
        delays = tuple(0.02 + width * (i + rng.random()) for i in range(BATCH_DELAYS))
        return Inputs(workload, seed, "batch", "A", "A", t_end=500.0, delays=delays)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def library_api() -> SimpleNamespace:
    """The public library calls the batch makes, looked up through this object
    so that a traced run can hand in wrapped versions."""
    return SimpleNamespace(
        validate_parameters=validate_parameters,
        subsystem_coefficients=subsystem_coefficients,
        equilibrium=equilibrium,
        stability_verdict=stability_verdict,
        simulate=simulate,
        classify_dynamics=classify_dynamics,
    )


def run_batch(inp: Inputs, api: SimpleNamespace) -> list[dict]:
    """Verdict, trajectory and classification for each delay of the batch.

    The history is the CLI default, the equilibrium minus 0.05.
    """
    p = api.validate_parameters(inp.config())
    coeffs = api.subsystem_coefficients(p, inp.variant)
    eq = api.equilibrium(coeffs, p)
    history = HistorySpec(beta=eq.beta_e - 0.05, lambda_=eq.lambda_e - 0.05)
    records = []
    for tau in inp.delays:
        verdict = api.stability_verdict(p, inp.variant, tau)
        traj = api.simulate(coeffs, tau, history, inp.t_end)
        records.append({
            "tau": tau,
            "verdict": verdict.kind,
            "steps": len(traj.times) - 1,
            "classification": api.classify_dynamics(traj),
            "overflow": traj.overflow,
            "beta_end": float(traj.beta[-1]),
            "lambda_end": float(traj.lambda_[-1]),
        })
    return records


def records_text(records: list[dict]) -> str:
    return json.dumps(records, sort_keys=True)


def agreement(records: list[dict]) -> int:
    """Delays whose trajectory classification matches the analytic verdict."""
    return sum(AGREES.get(r["verdict"]) == r["classification"] for r in records)


def outputs_digest(out_dir: Path, stdout: str) -> str:
    """Hash of every file a command wrote, with its name, and of its stdout."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ checks


@dataclass
class Check:
    """What the checker found: problems fail the command, malformed cells are counted."""

    problems: list = dataclasses.field(default_factory=list)
    malformed: int = 0
    items: int = 0         # rows written, or integrator steps taken

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def parse_number(cell: str, check: Check) -> float:
    """float(cell); an ``np.float64(x)`` cell is counted as malformed and read as x."""
    try:
        return float(cell)
    except ValueError:
        m = _NP_FLOAT.match(cell)
        if m is None:
            raise
        check.malformed += 1
        return float(m.group(1))


def check_reference() -> Check:
    """The README's tau0 and omega0 for case A and tau0 for case B."""
    check = Check()
    for case in ("A", "B"):
        p = validate_parameters(CASES[case])
        coeffs = subsystem_coefficients(p, case)
        report = analyze_spectrum(equilibrium(coeffs, p), coeffs)
        got = {f"{case}.tau0": report.tau0, f"{case}.omega0": report.omega0}
        for key, (want, tol) in REFERENCE.items():
            if key in got:
                check.expect(got[key] is not None and abs(got[key] - want) <= tol,
                             f"{key} = {got[key]!r}, expected {want} +- {tol}")
    return check


def check_outputs(inp: Inputs, out_dir: Path, stdout: str) -> Check:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotInteriorWarning)
        try:
            if inp.kind == "sweep":
                return check_sweep(inp, out_dir, stdout)
            if inp.kind == "simulate":
                return check_simulate(inp, out_dir, stdout)
            return check_batch(inp, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Check(problems=[f"unreadable output: {type(exc).__name__}: {exc}"])


def _sweep_row_expected(inp: Inputs, value: float) -> dict:
    raw = inp.config()
    tau = inp.tau
    if inp.param == "tau":
        tau = value
    else:
        raw[inp.param] = value
    p = validate_parameters(raw)
    verdict = stability_verdict(p, inp.variant, tau)
    rep = verdict.report
    coeffs = subsystem_coefficients(p, inp.variant)
    eq = equilibrium(coeffs, p)
    hopf = hopf_analysis(eq, coeffs, rep)
    c = rep.coefficients
    return {
        inp.param: value, "beta_e": eq.beta_e, "lambda_e": eq.lambda_e,
        "p0": c.p0, "r0": c.r0, "q0": c.q0, "h_case": rep.h_case.tag,
        "tau0": rep.tau0, "verdict": verdict.kind,
        "c1_re": float(hopf.c1_0.real), "c1_im": float(hopf.c1_0.imag),
        "mu2_bar": float(hopf.mu2_bar), "beta2": float(hopf.beta2),
        "direction": hopf.direction, "orbit_stability": hopf.orbit_stability,
        "error": "",
    }


def check_sweep(inp: Inputs, out_dir: Path, stdout: str) -> Check:
    check = Check()
    lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    header = [inp.param] + SWEEP_COLUMNS
    if not check.expect(lines[:1] == [",".join(header)], f"header {lines[:1]}"):
        return check
    check.expect(len(lines) - 1 == inp.count,
                 f"{len(lines) - 1} rows, expected {inp.count}")
    check.expect(f"wrote {inp.count} rows" in stdout, f"stdout {stdout!r}")
    step = (inp.stop - inp.start) / (inp.count - 1) if inp.count > 1 else 0.0
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if not check.expect(len(cells) == len(header), f"row {i}: {len(cells)} cells"):
            continue
        row = {name: cell if name in TEXT_COLUMNS else parse_number(cell, check)
               for name, cell in zip(header, cells)}
        rows.append(row)
        x = row[inp.param]
        grid = inp.start + i * step
        check.expect(abs(x - grid) <= 1e-12 * max(1.0, abs(grid)),
                     f"row {i}: {inp.param}={x!r} off the grid value {grid!r}")
        check.expect(row["error"] == "", f"row {i}: error {row['error']!r}")
        # Stable below the first critical delay, unstable above it.
        tau = x if inp.param == "tau" else inp.tau
        if abs(tau - row["tau0"]) < HOPF_CRITICAL_TOL:
            want = "hopf_critical"
        else:
            want = "stable" if tau < row["tau0"] else "unstable"
        check.expect(row["verdict"] == want,
                     f"row {i}: verdict {row['verdict']} at tau={tau!r}, "
                     f"tau0={row['tau0']!r}")
        if inp.param == "tau" and rows:
            check.expect(all(row[c] == rows[0][c] for c in TAU_INVARIANT),
                         f"row {i}: a tau-invariant column differs from row 0")
    if len(rows) != inp.count:
        return check
    rng = random.Random(f"check:{inp.workload}:{inp.seed}")
    sample = {0, len(rows) - 1} | set(rng.sample(range(len(rows)),
                                                 min(SAMPLE_ROWS, len(rows))))
    for i in sorted(sample):
        want = _sweep_row_expected(inp, rows[i][inp.param])
        bad = [c for c in header if rows[i][c] != want[c]]
        check.expect(not bad, f"row {i}: {bad} differ from direct library calls")
    check.items = len(rows)
    return check


def check_simulate(inp: Inputs, out_dir: Path, stdout: str) -> Check:
    check = Check()
    coeffs = subsystem_coefficients(validate_parameters(inp.config()), inp.variant)
    traj = simulate(coeffs, inp.tau, HistorySpec(*inp.init), inp.t_end)
    want = (traj.times.tolist(), traj.beta.tolist(), traj.lambda_.tolist())
    n = len(want[0])

    lines = (out_dir / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    check.expect(lines[:1] == ["t,beta,lambda"], f"trajectory header {lines[:1]}")
    rows = lines[1:]
    if not check.expect(len(rows) == n, f"trajectory has {len(rows)} rows, "
                                        f"simulate() gives {n}"):
        return check
    for i, line in enumerate(rows):
        cells = line.split(",")
        if not check.expect(len(cells) == 3, f"trajectory row {i}: {line!r}"):
            continue
        values = [parse_number(c, check) for c in cells]
        if i % TRAJECTORY_CHECKPOINTS == 0 or i == n - 1:
            check.expect(values == [w[i] for w in want],
                         f"trajectory row {i}: {values} != simulate() {[w[i] for w in want]}")

    phase = out_dir / "phase.csv"
    if phase.exists():
        plines = phase.read_text(encoding="utf-8").splitlines()
        check.expect(plines[:1] == ["beta,lambda"], f"phase header {plines[:1]}")
        check.expect(plines[1:] == [r.split(",", 1)[1] for r in rows],
                     "phase.csv differs from the trajectory columns")

    def strict(token):
        raise ValueError(f"non-JSON number {token}")

    doc = json.loads((out_dir / "run.json").read_text(encoding="utf-8"),
                     parse_constant=strict)
    check.expect(doc["tau"] == inp.tau and doc["t_end"] == inp.t_end,
                 f"run.json tau/t_end {doc['tau']!r}/{doc['t_end']!r}")
    check.expect(doc["step"] == traj.step, f"run.json step {doc['step']!r}")
    check.expect(doc["overflow"] is False and not traj.overflow,
                 f"run.json overflow {doc['overflow']!r}")
    check.expect([doc["history"]["beta"], doc["history"]["lambda"]] == list(inp.init),
                 f"run.json history {doc['history']}")

    lines = stdout.splitlines()
    check.expect(f"classification: {classify_dynamics(traj)}" in lines,
                 f"stdout classification {stdout!r}")
    try:
        period = f"measured_period: {oscillation_period(traj)!r}"
    except NoOscillation:
        period = None
    check.expect(period is None or period in lines, f"stdout period {stdout!r}")
    check.items = n - 1
    return check


def check_batch(inp: Inputs, stdout: str) -> Check:
    check = Check()
    records = json.loads(stdout.splitlines()[-1])["records"]
    if not check.expect(len(records) == len(inp.delays),
                        f"{len(records)} batch records, expected {len(inp.delays)}"):
        return check
    check.expect([r["tau"] for r in records] == list(inp.delays),
                 "batch delays differ from the inputs")
    for r in records:
        check.expect(not r["overflow"] and math.isfinite(r["beta_end"])
                     and math.isfinite(r["lambda_end"]),
                     f"tau={r['tau']!r}: state not finite")
    # One seeded delay recomputed here by direct library calls.
    i = random.Random(f"check:{inp.workload}:{inp.seed}").randrange(len(records))
    one = dataclasses.replace(inp, delays=(inp.delays[i],))
    check.expect(run_batch(one, library_api()) == [records[i]],
                 f"batch record {i} differs from direct library calls")
    check.items = sum(r["steps"] for r in records)
    return check
