import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import goodwin_delay
from goodwin_delay import model, normal_form, simulate, spectral

# every result record and its fields, in the order that positional
# construction and unpacking follow
RECORD_FIELDS = {
    model.DerivedConstants: ("g", "rho0", "rho1"),
    model.ModelParameters: (*model.PARAM_FIELDS, "derived"),
    model.SubsystemCoefficients: ("variant", "beta0", "lambda0", "delta0",
                                  "growth_coupling", "wage_damping", "rho1"),
    model.Equilibrium: ("beta_e", "lambda_e", "interior", "lambda_star"),
    spectral.CharCoefficients: ("p0", "r0", "q0"),
    spectral.HCase: ("tag", "discriminant", "roots", "note"),
    spectral.SpectralReport: ("coefficients", "h_case", "stable_at_zero", "omegas",
                              "first_rungs", "tau0", "omega0", "z0", "h_prime_z0", "D",
                              "re_lambda_prime"),
    spectral.Verdict: ("kind", "report"),
    normal_form.HopfReport: ("c1_0", "mu2_bar", "beta2", "direction",
                             "orbit_stability", "period_estimate"),
    simulate.HistorySpec: ("beta", "lambda_"),
    simulate.Trajectory: ("beta", "lambda_", "step", "overflow"),
}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_ordered_and_immutable(cls):
    assert cls._fields == RECORD_FIELDS[cls]
    record = cls._make([None] * len(cls._fields))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_cli_import_loads_neither_dataclasses_nor_numpy():
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import goodwin_delay.cli
        added = set(sys.modules) - before
        print(sorted({"dataclasses", "numpy", "goodwin_delay.simulate"} & added))
    """)
    src = str(Path(goodwin_delay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
