import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgfem.quadrature import gauss_1d, tensor_quad


def _monomial_integral(k: int) -> float:
    # integral of x^k over [-1, 1]
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestGauss1d:
    def test_one_point_is_midpoint_rule(self):
        rule = gauss_1d(1)
        assert rule.points == pytest.approx([0.0], abs=0.0)
        assert rule.weights == pytest.approx([2.0], abs=0.0)

    def test_two_point_nodes_and_weights(self):
        rule = gauss_1d(2)
        x = 0.5773502691896257
        assert np.allclose(sorted(rule.points), [-x, x], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_for_polynomials_up_to_degree_2n_minus_1(self, n):
        rule = gauss_1d(n)
        for k in range(2 * n):
            val = float(np.dot(rule.weights, rule.points**k))
            assert val == pytest.approx(_monomial_integral(k), abs=1e-13)

    def test_weights_positive_and_sum_to_length(self):
        for n in range(1, 31):
            rule = gauss_1d(n)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(2.0, abs=1e-13)

    def test_nodes_symmetric_in_open_interval(self):
        for n in range(1, 31):
            pts = np.sort(gauss_1d(n).points)
            assert np.all(np.abs(pts) < 1.0)
            assert np.allclose(pts, -pts[::-1], atol=1e-14)

    @pytest.mark.parametrize("n", [0, -1, 31])
    def test_rejects_out_of_range_order(self, n):
        with pytest.raises(ValueError):
            gauss_1d(n)


class TestTensorQuad:
    def test_one_point_rule(self):
        rule = tensor_quad(1)
        assert rule.weights.shape == (1,)
        assert np.allclose(rule.points, [[0.0, 0.0]])
        assert rule.weights == pytest.approx([4.0])

    def test_integrates_x2y2_on_reference_square(self):
        rule = tensor_quad(2)
        x, y = rule.points[:, 0], rule.points[:, 1]
        val = float(np.dot(rule.weights, x**2 * y**2))
        assert val == pytest.approx(4.0 / 9.0, abs=1e-14)

    @given(
        n=st.integers(min_value=1, max_value=6),
        kx=st.integers(min_value=0, max_value=11),
        ky=st.integers(min_value=0, max_value=11),
    )
    def test_exact_for_tensor_monomials(self, n, kx, ky):
        if kx > 2 * n - 1 or ky > 2 * n - 1:
            return
        rule = tensor_quad(n)
        x, y = rule.points[:, 0], rule.points[:, 1]
        val = float(np.dot(rule.weights, x**kx * y**ky))
        exact = _monomial_integral(kx) * _monomial_integral(ky)
        assert val == pytest.approx(exact, abs=1e-12)

    def test_weights_sum_to_reference_area(self):
        for n in range(1, 8):
            assert tensor_quad(n).weights.sum() == pytest.approx(4.0, abs=1e-12)
