"""Monotone-metric registry: constants, kernels, and pairwise weights."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import mc_function, metric_label, weight
from skewbounds.errors import DomainError, ValidationError
from skewbounds.metrics import (
    MetricSpec,
    make_metric,
    parse_metric,
    weight_matrix,
)

ALL_METRICS = [
    make_metric("wy"),
    make_metric("sld"),
    make_metric("wyd", 0.25),
    make_metric("wyd", 0.5),
    make_metric("wyd", 0.75),
]


class TestMakeMetric:
    def test_wyd_quarter(self):
        m = make_metric("wyd", 0.25)
        assert m.m_c == pytest.approx(3 / 16)

    def test_wyd_half_equals_wy(self):
        m = make_metric("wyd", 0.5)
        assert m.m_c == pytest.approx(0.25)
        assert m.m_c == make_metric("wy").m_c

    def test_sld_constant(self):
        assert make_metric("sld").m_c == pytest.approx(0.5)

    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(DomainError):
                make_metric("wyd", alpha)
        with pytest.raises(DomainError):
            make_metric("wyd")  # missing alpha
        with pytest.raises(DomainError):
            make_metric("wy", 0.5)  # spurious alpha
        with pytest.raises(DomainError):
            make_metric("bogus")


class TestParseMetric:
    @pytest.mark.parametrize("text", ["wy", "sld", "wyd:0.25", "wyd:0.5"])
    def test_roundtrip(self, text):
        assert metric_label(parse_metric(text)) == text

    @pytest.mark.parametrize("text", ["", "wyd", "wyd:", "wyd:1.5", "fisher"])
    def test_rejects(self, text):
        with pytest.raises(ValidationError):
            parse_metric(text)


class TestMcFunction:
    def test_wy_at_one_zero(self):
        assert mc_function(make_metric("wyd", 0.5), 1.0, 0.0) == pytest.approx(4.0)

    def test_normalization_on_diagonal(self):
        for m in ALL_METRICS:
            assert mc_function(m, 1.0, 1.0) == pytest.approx(1.0)
            assert mc_function(m, 0.5, 0.5) == pytest.approx(2.0)

    def test_sld_closed_form(self):
        assert mc_function(make_metric("sld"), 1.0, 3.0) == pytest.approx(0.5)

    def test_symmetry_and_positivity(self):
        grid = [0.05, 0.3, 1.0, 2.5]
        for m in ALL_METRICS:
            for x in grid:
                for y in grid:
                    c = mc_function(m, x, y)
                    assert c > 0
                    assert c == pytest.approx(mc_function(m, y, x), abs=1e-14)

    def test_undefined_at_origin(self):
        with pytest.raises(DomainError):
            mc_function(make_metric("wy"), 0.0, 0.0)

    def test_functional_equation(self):
        # f recovered via f(t) = 1/c(t, 1) must satisfy f(t) = t f(1/t)
        for m in ALL_METRICS:
            for t in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
                f_t = 1.0 / mc_function(m, t, 1.0)
                f_inv = 1.0 / mc_function(m, 1.0 / t, 1.0)
                assert abs(f_t - t * f_inv) <= 1e-12 * max(1.0, f_t)

    def test_mc_limit_constant(self):
        # m_c = lim_{t->0} f(t) with f(t) = 1/c(t,1)
        for m in ALL_METRICS:
            f_small = 1.0 / mc_function(m, 1e-13, 1.0)
            assert f_small == pytest.approx(m.m_c, rel=1e-3)


class TestWeight:
    def test_vanishes_on_diagonal_and_origin(self):
        for m in ALL_METRICS:
            assert weight(m, 0.7, 0.7) == 0.0
            assert weight(m, 0.0, 0.0) == 0.0

    def test_wy_at_one_zero(self):
        assert weight(make_metric("wyd", 0.5), 1.0, 0.0) == pytest.approx(0.5)

    def test_sld_at_one_zero(self):
        assert weight(make_metric("sld"), 1.0, 0.0) == pytest.approx(0.5)

    @given(
        x=st.floats(0.0, 1.0),
        y=st.floats(0.0, 1.0),
        alpha=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    )
    def test_symmetric_and_nonnegative(self, x, y, alpha):
        for m in (make_metric("wyd", alpha), make_metric("sld")):
            w = weight(m, x, y)
            assert w >= 0.0
            assert w == weight(m, y, x)  # exact: symmetric formula

    def test_quadratic_vanishing_near_diagonal(self):
        h = 1e-6
        for m in ALL_METRICS:
            for x in np.linspace(0.1, 1.0, 10):
                assert abs(weight(m, x, x + h)) <= 100.0 * h * h

    def test_wyd_closed_form_matches_kernel_form(self):
        rng = np.random.default_rng(21)
        for alpha in (0.25, 0.5, 0.75):
            m = make_metric("wyd", alpha)
            for _ in range(50):
                x, y = rng.uniform(0.01, 1.0, size=2)
                if abs(x - y) < 1e-12:
                    continue
                via_kernel = (m.m_c / 2) * mc_function(m, x, y) * (x - y) ** 2
                assert weight(m, x, y) == pytest.approx(via_kernel, abs=1e-12)

    def test_weight_matrix_matches_scalar(self):
        lam = np.array([0.0, 0.1, 0.35, 0.55])
        for m in ALL_METRICS:
            W = weight_matrix(m, lam)
            for i, x in enumerate(lam):
                for j, y in enumerate(lam):
                    assert W[i, j] == pytest.approx(weight(m, x, y), abs=1e-14)

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            weight(make_metric("wy"), -0.1, 0.5)
