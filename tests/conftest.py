import json

import pytest

from goodwin_delay.cli import main
from goodwin_delay.model import equilibrium, subsystem_coefficients, validate_parameters

from helpers import CASE_A, CASE_B


@pytest.fixture
def case_a_raw():
    return dict(CASE_A)


@pytest.fixture
def case_b_raw():
    return dict(CASE_B)


@pytest.fixture
def case_a():
    p = validate_parameters(dict(CASE_A))
    coeffs = subsystem_coefficients(p, "A")
    eq = equilibrium(coeffs, p)
    return p, coeffs, eq


@pytest.fixture
def case_b():
    p = validate_parameters(dict(CASE_B))
    coeffs = subsystem_coefficients(p, "B")
    eq = equilibrium(coeffs, p)
    return p, coeffs, eq


@pytest.fixture
def analysis_json(tmp_path):
    """Run `goodwin-delay analyze` on a parameter dict and CLI arguments, and
    return the analysis.json it writes."""
    def run(raw, *args):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["analyze", "--config", str(config), *args,
                     "--out", str(tmp_path)]) == 0
        return json.loads((tmp_path / "analysis.json").read_text())
    return run
