import math

import numpy as np
import pytest

from mcflow import verification
from mcflow.verification import (_check, check_maximal_surface_residual,
                                 run_identity_suite)


def test_a_check_is_the_dict_summary_json_writes(monkeypatch):
    monkeypatch.setattr(verification, "RANDOM_SAMPLES", 50)
    checks = run_identity_suite()
    assert [c["name"] for c in checks] == [
        "maximal_surface_residual", "strict_supersolution_identity",
        "translating_flat_identity", "translating_gradient_bound",
        "translating_boundary_slope", "graph_gradient_identity",
        "graph_inverse_identity", "radial_cartesian_consistency"]
    for check in checks:
        assert set(check) == {"name", "pass", "deviation", "tolerance",
                              "samples"}
        assert check["pass"] is True
    assert checks[5]["samples"] == 50  # the patched sample count
    assert run_identity_suite(dims=()) == []


def test_a_nan_deviation_is_the_worst_and_fails():
    assert _check("x", [0.0, math.nan, 1.0], 1e-10, 3)["pass"] is False
    assert math.isnan(_check("x", [math.nan, 0.0], 1e-10, 2)["deviation"])


@pytest.mark.parametrize("n", [78, 79])
def test_overflowing_profile_residual_fails(n):
    # r^(2n-2) overflows at r = 100: some residuals are NaN
    with np.errstate(over="ignore", invalid="ignore"):
        check = check_maximal_surface_residual(dims=(n,))
    assert check["pass"] is False
    assert math.isnan(check["deviation"])
    assert check["samples"] == 603
