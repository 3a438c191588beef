"""Command-line front end: analyze / simulate / sweep.

Exit codes: 0 success, 1 configuration error, 2 analysis-precondition
failure, 3 simulation failure; each error class carries its own
(errors.py).  This module alone renders output, from the library's records,
with shortest round-trip float formatting, so identical configs produce
byte-identical outputs.  A sweep over a model parameter splits its rows
across the CPUs this process may run on, in forked children, and its
sweep.csv, stdout, stderr and failures are the same for any CPU count; a
tracer that wraps the library's functions in this process sees the calls of
the first chunk of rows and of any chunk it writes again for a child that
sent no count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, count, islice
from operator import attrgetter
from pathlib import Path

from . import __version__
from .errors import ConfigError, ConstraintViolation, GoodwinDelayError, NoOscillation
from .model import (PARAM_FIELDS, equilibrium, replace_field, subsystem_coefficients,
                    validate_parameters)
from .normal_form import hopf_analysis
# simulate is not called here: it stays a name of this module, which perfbench wraps
from .simulate import (HistorySpec, classify_dynamics, oscillation_period, simulate,
                       simulate_rows)
from .spectral import (analyze_spectrum, check_delay, check_depth, critical_delays,
                       verdict_at)

EXIT_OK = 0  # a failure exits with its error class's exit_code

MAX_SWEEP_POINTS = 1_000_000
# The fewest rows a sweep process takes: about 35 ms of work at ~70 us a row,
# against about 2 ms to fork and reap a child and copy its rows back, so a
# split pays only when every process has that much to do.
ROWS_PER_WORKER = 500
COPY_BUFFER = 8192  # bytes per read of a child's rows: the size of io's own buffers
SWEEP_COLUMNS = ["beta_e", "lambda_e", "p0", "r0", "q0", "h_case", "tau0", "verdict"]
HOPF_COLUMNS = ["c1_re", "c1_im", "mu2_bar", "beta2", "direction", "orbit_stability"]
# the HOPF_COLUMNS values of a HopfReport, in order
_hopf_values = attrgetter("c1_0.real", "c1_0.imag", "mu2_bar", "beta2", "direction",
                          "orbit_stability")


def _fmt(v) -> str:
    return "" if v is None else str(v)  # str(float) is the shortest round-trip repr


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")


def _open_csv(path: Path, header: list[str]):
    """PATH opened for writing, its header line written."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.write(",".join(header) + "\n")
    return fh


def _load_params(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, got {type(raw).__name__}")
    return validate_parameters(raw)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _warn_outside(eq) -> None:
    print(f"warning: equilibrium ({eq.beta_e}, {eq.lambda_e}) outside (0,1)^2",
          file=sys.stderr)


def _analysis(p, variant: str, with_hopf: bool, outside):
    """Coefficients -> equilibrium -> spectrum (-> Hopf report), each once;
    OUTSIDE(eq) reports an equilibrium outside (0,1)^2 before the spectrum."""
    coeffs = subsystem_coefficients(p, variant)
    eq = equilibrium(coeffs, p)
    if not eq.interior:
        outside(eq)
    report = analyze_spectrum(eq, coeffs)
    if with_hopf and report.tau0 is not None:
        return eq, report, hopf_analysis(eq, coeffs, report)
    return eq, report, None


def cmd_analyze(args) -> int:
    p = _load_params(args)
    check_depth(args.jmax)  # both before any output
    check_delay(args.tau)
    out = _outdir(args)
    eq, report, hopf = _analysis(p, args.variant, True, _warn_outside)
    verdict = verdict_at(report, args.tau)
    c, tau0 = report.coefficients, report.tau0
    # rung 1 of each ladder lies above its rung 0, so the interval needs that depth
    ladders = [critical_delays(c, w, max(args.jmax, 1)) for w in report.omegas]
    interval = None
    if report.stable_at_zero and tau0 is not None:
        interval = [tau0, min(t for ladder in ladders for t in ladder if t > tau0)]
    spectral = {
        "p0": c.p0, "r0": c.r0, "q0": c.q0,
        "h_case": report.h_case.tag,
        "omega": list(report.omegas),
        "tau_ladder": [list(ladder[:args.jmax + 1]) for ladder in ladders],
        "tau0": tau0, "omega0": report.omega0, "z0": report.z0,
        "h_prime_z0": report.h_prime_z0,
        "re_lambda_prime": report.re_lambda_prime,
        "stable_at_zero": report.stable_at_zero,
        "delay_independent": tau0 is None,
    }
    if report.h_case.note:
        spectral["h_case_note"] = report.h_case.note
    spectral["verdict"] = verdict.kind
    _write_json(out / "analysis.json", {
        "engine_version": __version__,
        "variant": args.variant,
        "tau": args.tau,
        "parameters": {k: getattr(p, k) for k in PARAM_FIELDS},
        "derived": {"g": p.derived.g, "rho0": p.derived.rho0, "rho1": p.derived.rho1},
        "equilibrium": {
            "beta_e": eq.beta_e, "lambda_e": eq.lambda_e,
            "interior": eq.interior, "lambda_star": eq.lambda_star,
        },
        "spectral": spectral,
        "instability_interval": interval,
        "hopf": (dict(zip(HOPF_COLUMNS, _hopf_values(hopf)),
                      period_estimate=hopf.period_estimate) if hopf else None),
    })
    print(f"equilibrium: beta_e={_fmt(eq.beta_e)} lambda_e={_fmt(eq.lambda_e)}"
          f" interior={eq.interior}")
    print(f"h_case: {report.h_case.tag}  stable_at_zero: {report.stable_at_zero}")
    if tau0 is not None:
        print(f"tau0: {_fmt(tau0)}  omega0: {_fmt(report.omega0)}"
              f"  h'(z0): {_fmt(report.h_prime_z0)}")
    else:
        print("tau0: none (delay-independent stability)")
    print(f"verdict at tau={_fmt(args.tau)}: {verdict.kind}")
    if hopf:
        print(f"hopf: c1(0)={hopf.c1_0!r} direction={hopf.direction}"
              f" orbit={hopf.orbit_stability}"
              f" period_estimate={_fmt(hopf.period_estimate)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    p = _load_params(args)
    coeffs = subsystem_coefficients(p, args.variant)
    eq = equilibrium(coeffs, p)
    if not eq.interior:
        _warn_outside(eq)
    if args.init is not None:
        try:
            b0, l0 = map(float, args.init.split(","))
        except ValueError:  # a wrong number of values, or one that is not a float
            raise ConfigError(f"--init must be 'beta,lambda', got {args.init!r}") from None
    else:
        # repo convention: the reference figures never state their start
        b0, l0 = eq.beta_e - 0.05, eq.lambda_e - 0.05
    # simulate_rows() rejects bad inputs before anything is written
    run = simulate_rows(coeffs, args.tau, HistorySpec(beta=b0, lambda_=l0),
                        args.t_end, step_hint=args.step)
    out = _outdir(args)
    # each block of rows is written as the integrator stores it; TRAJ keeps beta only
    with _open_csv(out / "trajectory.csv", ["t", "beta", "lambda"]) as fh:
        traj = run(lambda rows: fh.writelines("%r,%r,%r\n" % r for r in rows))
    sidecar = {
        "engine_version": __version__,
        "variant": args.variant,
        "tau": args.tau,
        "t_end": args.t_end,
        "step": traj.step,
        "overflow": traj.overflow,
        "history": {"kind": "constant", "beta": b0, "lambda": l0},
        "parameters": {k: getattr(p, k) for k in PARAM_FIELDS},
    }
    _write_json(out / "run.json", sidecar)
    label = classify_dynamics(traj)
    extra = " (overflow: run truncated)" if traj.overflow else ""
    print(f"classification: {label}{extra}")
    try:
        print(f"measured_period: {_fmt(oscillation_period(traj))}")
    except NoOscillation:
        pass
    return EXIT_OK


def _sweep_row(analysis, with_hopf: bool):
    """The (value, tau) -> line formatter of the sweep rows that share ANALYSIS,
    the (eq, report, hopf) triple or the GoodwinDelayError that stopped it. The
    cells that do not depend on tau are formatted once; an error blanks them."""
    hopf_cells = "," * len(HOPF_COLUMNS) if with_hopf else ""
    if isinstance(analysis, GoodwinDelayError):
        tail = f"{',' * len(SWEEP_COLUMNS)}{hopf_cells},{type(analysis).__name__}\n"
        return lambda value, tau: f"{value!r}{tail}"
    eq, report, hopf = analysis
    c = report.coefficients
    # floats as !r, which is str(float); tau0 may be None
    head = (f",{eq.beta_e!r},{eq.lambda_e!r},{c.p0!r},{c.r0!r},{c.q0!r}"
            f",{report.h_case.tag},{_fmt(report.tau0)},")
    if hopf is not None:
        hopf_cells = "," + ",".join(map(_fmt, _hopf_values(hopf)))
    tail = hopf_cells + ",\n"
    return lambda value, tau: f"{value!r}{head}{verdict_at(report, tau).kind}{tail}"


def _grid(args):
    """The sweep values start + i * step and then stop itself, generated so that
    no pass holds the grid; a one-point grid is start itself, -0.0 included."""
    if args.count == 1:
        return (args.start,)
    step = (args.stop - args.start) / (args.count - 1)
    return chain((args.start + i * step for i in range(args.count - 1)), (args.stop,))


def _workers(args) -> int:
    """How many processes share a sweep's rows: one per CPU this process may
    run on, with ROWS_PER_WORKER rows or more each.  A tau axis, whose rows
    share one analysis, and a platform without fork or affinity take one."""
    if args.param == "tau" or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), args.count // ROWS_PER_WORKER))


def _write_chunks(fh, out: Path, rows: int, workers: int, write_chunk) -> int:
    """Write rows 0..ROWS-1 to FH in WORKERS contiguous chunks; return the sum
    of write_chunk(fh, lo, hi) over them.  This process writes chunk 0 to FH; a
    forked child writes each later one to an unnamed file in OUT and then sends
    its count alone, or exits with none if anything fails.  In row order, a
    chunk with a count is copied to FH and one without is written again by this
    process, so that only this process fails, at the row and with the error of
    one process.  A tracer sees chunk 0 and any chunk written again.  Every
    child is reaped on every path."""
    bounds = [rows * k // workers for k in range(workers + 1)]
    children = []  # (pid, lo, hi, reply pipe, rows file), in row order, not yet reaped
    fds = []       # the descriptors this process must close
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            path = out / f".sweep.csv.{os.getpid()}.{lo}"  # unlinked once open
            fds.append(rows_fd := os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600))
            os.unlink(path)
            reply_r, reply_w = os.pipe()
            fds.append(reply_r)
            try:
                pid = os.fork()
                if pid == 0:  # the child: never returns into this process's frames
                    try:
                        with open(rows_fd, "w", encoding="utf-8", newline="\n") as rows_fh:
                            n = write_chunk(rows_fh, lo, hi)
                        os.write(reply_w, b"%d" % n)  # at most 20 bytes: one atomic write
                    finally:
                        os._exit(0)
            finally:
                os.close(reply_w)  # so the pipe ends when the child does
            children.append((pid, lo, hi, reply_r, rows_fd))
        total = write_chunk(fh, 0, bounds[1])
        while children:
            pid, lo, hi, reply_r, rows_fd = children[0]
            reply = os.read(reply_r, 20)  # the count, or b"" once the child is gone
            os.waitpid(pid, 0)
            del children[0]
            if reply:
                total += int(reply)
                fh.flush()  # the child's rows go straight to the binary buffer
                os.lseek(rows_fd, 0, os.SEEK_SET)
                while block := os.read(rows_fd, COPY_BUFFER):
                    fh.buffer.write(block)
            else:  # the child failed or was killed: write its rows, or fail, here
                total += write_chunk(fh, lo, hi)
        return total
    finally:
        if children:  # the sweep failed or was interrupted: stop the rest
            import signal  # only here, so that no sweep that succeeds imports it
            for pid, *_ in children:
                os.kill(pid, signal.SIGKILL)
            for pid, *_ in children:
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def cmd_sweep(args) -> int:
    p = _load_params(args)  # config-grade errors surface before the sweep
    if args.param != "tau" and args.param not in PARAM_FIELDS:
        raise ConstraintViolation("param", args.param, "a sweep axis name")
    if args.count < 1 or args.count > MAX_SWEEP_POINTS:
        raise ConstraintViolation("count", args.count,
                                  f"1 <= count <= {MAX_SWEEP_POINTS}")
    if not math.isfinite(args.stop - args.start):  # finite ends, and a grid step
        raise ConstraintViolation("range", (args.start, args.stop), "finite range")
    tau_axis = args.param == "tau"
    for tau in (args.start, args.stop) if tau_axis else (args.tau,):
        check_delay(tau)  # a tau grid lies between its ends
    out = _outdir(args)
    tally = count()  # of the outside equilibria of the chunk being written

    def analysis_at(value):
        """The row's (eq, report, hopf), or its error; a tau axis analyzes P as is."""
        try:
            row_p = p if tau_axis else replace_field(p, args.param, value)
            return _analysis(row_p, args.variant, args.with_hopf, lambda eq: next(tally))
        except GoodwinDelayError as exc:
            return exc

    if tau_axis:  # only the verdict depends on tau: analyze and format once
        row = _sweep_row(analysis_at(None), args.with_hopf)

    def write_chunk(fh, lo, hi):
        """Write rows lo..hi-1, each as it is formatted, and return how many have
        an equilibrium outside (0,1)^2.  TALLY starts again for each chunk, as the
        parent may write a second one; a tau axis is one chunk of one analysis."""
        nonlocal tally
        values = islice(_grid(args), lo, hi)
        if tau_axis:
            fh.writelines(row(tau, tau) for tau in values)
            return next(tally) * (hi - lo)
        tally = count()
        fh.writelines(_sweep_row(analysis_at(v), args.with_hopf)(v, args.tau) for v in values)
        return next(tally)

    header = [args.param, *SWEEP_COLUMNS, *(HOPF_COLUMNS if args.with_hopf else []), "error"]
    with _open_csv(out / "sweep.csv", header) as fh:
        outside = _write_chunks(fh, out, args.count, _workers(args), write_chunk)
    print(f"wrote {args.count} rows to {out / 'sweep.csv'}")
    if outside:
        print(f"{outside} rows have an equilibrium outside (0,1)^2", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 like other bad input, not 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goodwin-delay",
        description="Delay-induced Hopf bifurcation analysis of the "
                    "employment/wage-share growth-cycle subsystems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON parameter file")
        sp.add_argument("--variant", choices=("A", "B"), default="A")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("analyze", help="spectral + normal-form report")
    common(sp)
    sp.add_argument("--jmax", type=int, default=3,
                    help="rungs printed per crossing frequency, after the first")
    sp.add_argument("--tau", type=float, default=0.0)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("simulate", help="integrate a trajectory")
    common(sp)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--step", type=float, default=None,
                    help="bound on the step, not a node count (default 0.01)")
    sp.add_argument("--init", default=None,
                    help="initial state 'beta,lambda' (default: equilibrium - 0.05)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="CSV table over a parameter range")
    common(sp)
    sp.add_argument("--param", default="tau",
                    help="sweep axis: 'tau' or a parameter name")
    sp.add_argument("--start", type=float, required=True)
    sp.add_argument("--stop", type=float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--tau", type=float, default=0.0,
                    help="fixed delay when sweeping a model parameter")
    sp.add_argument("--with-hopf", dest="with_hopf", action="store_true")
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except GoodwinDelayError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:  # an unreadable or unparsable config, unwritable --out
        print(f"{ConfigError.kind} error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
