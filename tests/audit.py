"""Audit of the whole admissible box against the independent oracles.

Not a test: pytest does not collect this file.  CI runs it on one Python version,
after tier-1; run it from the repository root (about a minute at the defaults).  It
is seeded, and it exits 1 when any verdict mismatches the root count:

    PYTHONPATH=src python tests/audit.py

It draws DRAWS parameter sets of each variant over the validated box: the positive
fields of case A or B scaled by e^U(-4,4), a3, b3, c, s_pi and mu2 uniform on
their ranges and s_w uniform below s_pi (variant B takes the consistent mu1).
It adds EDGE_DRAWS case-A sets just inside the edge r0 = q0 (helpers.sample_edge_set).
For each set with a crossing it compares every first rung with the 200-bit
phase of mp_first_rungs, h'(z0) with the 200-bit +-sqrt(disc) of mp_h_prime (worst
on H4 and on H6 sets apart) and c1(0) with the Hassard reduction of hassard_c1.
Where tau0 <= 1e3, it also checks the verdicts at tau0*(1 -+ 1e-3) against the
argument-principle root count, reading unstable_at_zero as unstable.  On a set
unstable at zero it checks the verdict at the midpoint of the first two switches
(the rungs 0 and 1 of every crossing frequency, sorted) too, where that midpoint
is <= 1e3, and counts these mismatches apart.  No other verdict is checked:
rhp_root_count samples its axis at 2*R*tau points, and with fewer it counted no
root at 1.001*tau0 on sets with tau0 from 90 to 2e7, where the ladder puts a pair.

It prints the worst relative errors, the verdict mismatches of the sets stable
and unstable at zero and a histogram of (h case, interior, direction), where the
direction is "-" without a crossing and an error's class name where the analysis
raises.
"""

import collections
import math
import sys
import time

import numpy as np

from goodwin_delay.errors import GoodwinDelayError
from goodwin_delay.normal_form import hopf_analysis
from goodwin_delay.spectral import analyze_spectrum, critical_delays, verdict_at

from helpers import (CASE_A, CASE_B, build_set, consistent_mu1, hassard_c1, mp_first_rungs,
                     mp_h_prime, rhp_root_count, sample_edge_set)

SCALED = ("nu1", "nu2", "n", "gamma1", "gamma2", "a1", "a2", "b1", "delta")
VERDICT_TAU0_MAX = 1e3  # beyond, rhp_root_count needs millions of axis points
DRAWS = 20000  # per variant's box
EDGE_DRAWS = 5000
SEED = 0


def draw_box(rng, variant):
    """The raw fields of one draw over VARIANT's box."""
    raw = dict(CASE_A if variant == "A" else CASE_B)
    for k in SCALED:
        raw[k] *= math.exp(rng.uniform(-4.0, 4.0))
    for k in ("a3", "b3", "c", "s_pi", "mu2"):
        raw[k] = rng.uniform(0.0, 1.0)
    raw["s_w"] = raw["s_pi"] * rng.uniform(0.0, 1.0)
    if variant == "B":
        raw["mu1"] = consistent_mu1(raw)
    return raw


def audit(coeffs, eq, stats):
    """Check one set against the oracles into STATS; return its regime key."""
    try:
        rep = analyze_spectrum(eq, coeffs)
        if rep.tau0 is None:
            return rep.h_case.tag, eq.interior, "-"
        hopf = hopf_analysis(eq, coeffs, rep)
    except GoodwinDelayError as exc:
        return "?", eq.interior, type(exc).__name__
    stats["crossing"] += 1
    ref = mp_first_rungs(rep.coefficients)
    stats["rung"] = max(stats["rung"], *(abs(x - y) / y for x, y in zip(rep.first_rungs, ref)))
    ref = mp_h_prime(rep.coefficients, rep.z0)
    slope = "slope " + rep.h_case.tag
    stats[slope] = max(stats[slope], abs(rep.h_prime_z0 - ref) / abs(ref))
    ref = hassard_c1(eq, coeffs, rep.omega0, rep.tau0)
    stats["c1"] = max(stats["c1"], abs(hopf.c1_0 - ref) / abs(ref))
    if rep.tau0 <= VERDICT_TAU0_MAX:
        check_verdicts(rep, stats)
    return rep.h_case.tag, eq.interior, hopf.direction


def check_verdicts(rep, stats):
    """Compare verdict_at with the root count into STATS: "mismatches" on a set
    stable at zero, "unstable mismatches" on one unstable at zero."""
    taus = [rep.tau0 * (1.0 - 1e-3), rep.tau0 * (1.0 + 1e-3)]
    verdicts, mismatches = "verdicts", "mismatches"
    if not rep.stable_at_zero:
        verdicts, mismatches = "unstable verdicts", "unstable mismatches"
        switches = sorted(t for w in rep.omegas for t in critical_delays(rep.coefficients, w, 1))
        if (mid := (switches[0] + switches[1]) / 2.0) <= VERDICT_TAU0_MAX:
            taus.append(mid)
    for tau in taus:
        oracle = "stable" if rhp_root_count(*rep.coefficients, tau) == 0 else "unstable"
        kind = verdict_at(rep, tau)
        stats[verdicts] += 1
        stats[mismatches] += ("unstable" if kind == "unstable_at_zero" else kind) != oracle


def main():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    samples = {"A": (DRAWS, lambda: build_set(draw_box(rng, "A"), "A")),
               "B": (DRAWS, lambda: build_set(draw_box(rng, "B"), "B")),
               "edge": (EDGE_DRAWS, lambda: sample_edge_set(rng)[:3])}
    regimes = collections.Counter()
    mismatched = 0
    print(f"{'sample':<6} {'valid':>6} {'crossing':>8} {'worst rung':>11}     h' H4     h' H6 "
          f"{'worst c1':>9} {'verdict mismatches (tau0 <= 1e3)':>33}"
          f" {'unstable at zero':>18}")
    for name, (count, draw) in samples.items():
        stats = {"valid": 0, "crossing": 0, "rung": 0.0, "slope H4": 0.0, "slope H6": 0.0,
                 "c1": 0.0, "verdicts": 0, "mismatches": 0, "unstable verdicts": 0,
                 "unstable mismatches": 0}
        for _ in range(count):
            drawn = draw()
            if drawn is not None:
                stats["valid"] += 1
                regimes[(name, *audit(*drawn[1:], stats))] += 1
        print(f"{name:<6} {stats['valid']:>6} {stats['crossing']:>8} {stats['rung']:>11.2e} "
              f"{stats['slope H4']:>9.2e} {stats['slope H6']:>9.2e} {stats['c1']:>9.2e} "
              f"{stats['mismatches']:>24} of {stats['verdicts']:<6}"
              f" {stats['unstable mismatches']:>8} of {stats['unstable verdicts']:<6}")
        mismatched += stats["mismatches"] + stats["unstable mismatches"]
    print(f"\n{'sample':<6} {'h case':<6} {'interior':<8} {'direction':<22} {'sets':>6}")
    for (name, tag, interior, direction), n in sorted(regimes.items(), key=str):
        print(f"{name:<6} {tag:<6} {str(interior):<8} {direction:<22} {n:>6}")
    print(f"\n{time.perf_counter() - start:.1f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
