import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from galpha import (
    DissipationSpec,
    check_stability_conditions,
    derive,
    from_alphas,
)
from galpha.params import block_rows

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_derive_k1_no_dissipation():
    p = derive(DissipationSpec(1, (1.0,)))
    assert p.alpha_f == 0.5
    assert p.alpha[0] == 0.5  # alpha_m
    assert p.gamma[0] == 0.5
    assert p.beta[0] == 0.25


def test_derive_k1_max_dissipation():
    p = derive(DissipationSpec(1, (0.0,)))
    assert p.alpha_f == 1.0
    assert p.alpha[0] == 2.0
    assert p.gamma[0] == 1.5
    assert p.beta[0] == 1.0


def test_derive_k1_half():
    p = derive(DissipationSpec(1, (0.5,)))
    assert p.alpha_f == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert p.alpha[0] == pytest.approx(1.0, rel=1e-15)
    assert p.gamma[0] == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert p.beta[0] == pytest.approx(4.0 / 9.0, rel=1e-15)


def test_derive_k1_rejects_out_of_range():
    with pytest.raises(ValueError):
        derive(DissipationSpec(1, (-0.01,)))
    with pytest.raises(ValueError):
        derive(DissipationSpec(1, (1.01,)))


@pytest.mark.parametrize(
    "rho, alpha, alpha_f, gamma, beta",
    [
        ((0.0, 0.0), (2.0, 2.0), 1.0, (1.5, 1.5), (1.0, 1.0)),
        ((1.0, 1.0), (1.0, 0.5), 0.5, (0.5, 0.5), (0.25, 0.25)),
    ],
)
def test_derive_k2_endpoints(rho, alpha, alpha_f, gamma, beta):
    p = derive(DissipationSpec(2, rho))
    assert p.alpha == pytest.approx(alpha, rel=1e-15)
    assert p.alpha_f == pytest.approx(alpha_f, rel=1e-15)
    assert p.gamma == pytest.approx(gamma, rel=1e-15)
    assert p.beta == pytest.approx(beta, rel=1e-15)


def test_derive_k3_half():
    p = derive(DissipationSpec(3, (0.5, 0.5, 0.5)))
    assert p.alpha == pytest.approx((4 / 3, 4 / 3, 1.0), rel=1e-15)
    assert p.alpha_f == pytest.approx(2 / 3, rel=1e-15)
    assert p.gamma == pytest.approx((5 / 6, 5 / 6, 5 / 6), rel=1e-15)
    assert p.beta == pytest.approx((4 / 9, 4 / 9, 4 / 9), rel=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        DissipationSpec(0, ())
    with pytest.raises(ValueError):
        DissipationSpec(2, (0.5,))
    with pytest.raises(ValueError):
        DissipationSpec(2, (0.5, 1.5))


@given(st.integers(min_value=2, max_value=5), st.data())
def test_algebraic_invariants_hold(k, data):
    rho = tuple(data.draw(unit) for _ in range(k))
    p = derive(DissipationSpec(k, rho))
    for i in range(k - 1):
        assert p.gamma[i] == pytest.approx(p.alpha[i] - 0.5, rel=1e-15, abs=1e-15)
    assert p.gamma[-1] == pytest.approx(
        0.5 - p.alpha_f + p.alpha[-1], rel=1e-15, abs=1e-15
    )
    for b, g in zip(p.beta, p.gamma):
        assert b == pytest.approx(((2 * g + 1) / 4) ** 2, rel=1e-15, abs=1e-15)


@given(unit)
def test_k1_invariants_hold(rho):
    p = derive(DissipationSpec(1, (rho,)))
    am, af = p.alpha[0], p.alpha_f
    assert p.gamma[0] == pytest.approx(0.5 + am - af, rel=1e-15)
    assert p.beta[0] == pytest.approx(0.25 * (1 + am - af) ** 2, rel=1e-15)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_rho_parametrization_maps_into_stable_region(k, data):
    rho = tuple(data.draw(unit) for _ in range(k))
    p = derive(DissipationSpec(k, rho))
    report = check_stability_conditions(p)
    assert report.passed, report.violations


def test_stability_conditions_pass_example():
    p = from_alphas(2, (2.0, 1.0), 0.6)
    assert check_stability_conditions(p).passed


def test_stability_conditions_alpha1_violation():
    p = from_alphas(2, (0.9, 1.0), 0.6)
    report = check_stability_conditions(p)
    assert not report.passed
    assert report.violations == ("alpha_1 >= 1",)


def test_stability_conditions_alpha_f_violation():
    p = from_alphas(2, (2.0, 0.6), 0.7)
    report = check_stability_conditions(p)
    assert not report.passed
    assert report.violations == ("alpha_f <= alpha_2",)


def test_stability_conditions_name_every_violation_in_block_order():
    p = from_alphas(3, (0.5, 1.0, 0.2), 0.4)
    assert check_stability_conditions(p).violations == (
        "alpha_1 >= 1", "alpha_f >= 1/2", "alpha_f <= alpha_3")
    p = from_alphas(1, (0.5,), 0.5)  # the boundary alpha_f = 1/2 = alpha_m passes
    assert check_stability_conditions(p).passed


@pytest.mark.parametrize("field, value", [
    ("beta", (0.5, math.inf)),
    ("alpha_f", math.nan),
    ("alpha", (1.5, -math.inf)),
    ("gamma", (math.nan, 0.9)),
    ("c", (1.0, math.inf)),
])
def test_non_finite_coefficients_are_rejected(field, value):
    # rejected where the scheme is built, so no solve sees a non-finite row
    p = from_alphas(2, (1.5, 1.2), 0.7)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(p, **{field: value})


def test_json_serialization_round_trip():
    p = derive(DissipationSpec(2, (0.5, 0.5)))
    data = json.loads(json.dumps(p.to_json_dict()))
    assert set(data) == {"k", "rho", "alpha", "alpha_f", "beta", "gamma"}
    assert data["k"] == 2
    assert data["rho"] == [0.5, 0.5]
    assert data["alpha"] == [1.3333333333333333, 1.0]
    assert data["alpha_f"] == 0.6666666666666666


class TestBlockRows:
    """``block_rows`` is the one writer of the gamma, beta and coupling
    laws, for ``from_alphas`` and for the stability map's arrays alike."""

    @staticmethod
    def assert_rows_match(alpha, alpha_f):
        """The array law's rows equal ``from_alphas`` at each point, and
        the laws written out on Python floats, bit for bit and sign bit."""
        rows = block_rows(alpha, alpha_f)
        assert rows.shape == alpha.shape + (4,)
        assert np.array_equal(rows[..., 0], alpha)
        for i in range(len(alpha)):
            a, af = alpha[i].tolist(), float(alpha_f[i])
            p = from_alphas(len(a), a, af)
            want_gamma = [x - 0.5 for x in a[:-1]] + [0.5 - af + a[-1]]
            want_beta = [((2.0 * g + 1.0) / 4.0) ** 2 for g in want_gamma]
            want_c = [1.0] * (len(a) - 1) + [af]
            _, beta, gamma, c = rows[i].T
            for got, want in ((gamma, p.gamma), (beta, p.beta), (c, p.c),
                              (gamma, want_gamma), (beta, want_beta), (c, want_c)):
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_c_column_is_one_then_alpha_f(self):
        # signed zeros in alpha_f survive into the last coupling
        self.assert_rows_match(np.array([[1.5, 1.2, 0.9]] * 3), np.array([0.7, -0.0, 0.0]))

    def test_array_law_equals_from_alphas_point_by_point(self):
        rng = np.random.default_rng(2759)
        self.assert_rows_match(rng.uniform(-10.0, 10.0, (2000, 3)), rng.uniform(-10.0, 10.0, 2000))

    def test_array_law_rounds_like_python_at_2_759(self):
        # numpy's array ``** 2`` (and np.square) rounds this beta an ulp
        # away from Python's float ``** 2`` on some builds
        self.assert_rows_match(np.full((4, 2), 2.759), np.array([0.5, 1.0, 2.759, -3.0]))

    @pytest.mark.parametrize("big", [1e155, -1e160, 1e200, 1e300])
    def test_overflow_is_a_non_finite_row_but_raises_in_from_alphas(self, big):
        for alpha, alpha_f in (((big, 1.0), 0.6), ((1.5, big), 0.6), ((1.5, 1.0), -big)):
            beta = block_rows(np.array([alpha, (1.5, 1.0)]), np.array([alpha_f, 0.6]))[..., 1]
            assert not np.isfinite(beta[0]).all() and np.isfinite(beta[1]).all()
            with pytest.raises(OverflowError):
                from_alphas(2, alpha, alpha_f)
