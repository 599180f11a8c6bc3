import math

import pytest

from truncert.walk_profiles import (
    WalkProfile,
    profile_dicke,
    profile_hubbard_holstein,
    profile_u1,
    speed_limit,
)


def test_profile_fields_frozen():
    p = WalkProfile(chi=2.0, r=0.5, label="x")
    with pytest.raises(AttributeError):
        p.chi = 3.0


@pytest.mark.parametrize("chi,r", [(-1.0, 0.5), (1.0, -0.1), (1.0, 1.0), (math.inf, 0.0)])
def test_profile_rejects_bad_parameters(chi, r):
    with pytest.raises(ValueError):
        WalkProfile(chi=chi, r=r, label="bad")


def test_hubbard_holstein_profile():
    p = profile_hubbard_holstein(0.5)
    assert p.chi == 1.0
    assert p.r == 0.5


def test_u1_profile_is_gauge_type():
    """Gauge links hop the electric field by one regardless of its value."""
    p = profile_u1(0.25, 1.0)
    assert p.r == 0.0
    assert p.chi == pytest.approx(4 * 0.25 + 2 * 1.0)


def test_dicke_profile_scales_with_sqrt_spins():
    p4 = profile_dicke(1.0, 4)
    p16 = profile_dicke(1.0, 16)
    assert p16.chi == pytest.approx(2.0 * p4.chi)
    assert p4.chi == pytest.approx(4.0)


def test_speed_limit_bosonic():
    # chi = 2, r = 1/2, lambda0 = 0: one over twice the edge norm.
    p = WalkProfile(chi=2.0, r=0.5, label="t")
    assert speed_limit(p, 0) == pytest.approx(0.25)
    assert speed_limit(p, 3) == pytest.approx(1.0 / (4.0 * 2.0))


def test_speed_limit_gauge_is_lambda_independent():
    p = WalkProfile(chi=3.0, r=0.0, label="t")
    assert speed_limit(p, 0) == speed_limit(p, 100) == pytest.approx(1.0 / 6.0)


def test_speed_limit_free_model_is_infinite():
    p = WalkProfile(chi=0.0, r=0.5, label="free")
    assert speed_limit(p, 5) == math.inf
