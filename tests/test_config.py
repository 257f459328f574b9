import math

import pytest

from quadsphere.config import Config


@pytest.mark.parametrize("field", ["tol_margin", "tol_sign", "tol_slack"])
@pytest.mark.parametrize("value", [-1e-12, -1.0, math.nan, math.inf])
def test_rejects_negative_or_non_finite_tolerance(field, value):
    with pytest.raises(ValueError, match=field):
        Config(**{field: value})


def test_rejects_negative_seed():
    # numpy's generators reject a negative seed, so whether an input reached
    # the falsifier used to decide whether the seed was an error
    with pytest.raises(ValueError, match="seed"):
        Config(seed=-1)
    assert Config(seed=0).seed == 0


def test_rejects_negative_max_exact_dim():
    # a negative cap used to pass: analyze, minimize and copositive echoed
    # it, and pareto failed on the enumeration cap instead
    with pytest.raises(ValueError, match="max_exact_dim"):
        Config(max_exact_dim=-1)
    assert Config(max_exact_dim=0).max_exact_dim == 0


def test_samples_and_zero_tolerances():
    with pytest.raises(ValueError, match="samples"):
        Config(samples=0)
    cfg = Config(tol_margin=0.0, tol_sign=0.0, tol_slack=0.0, samples=1)
    assert cfg.as_dict()["samples"] == 1
