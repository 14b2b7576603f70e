from functools import reduce

import numpy as np
import pytest

from etklab.errors import StructuralError, ValidationError
from etklab.etk import (
    EtkKernel,
    etk_from_feature_set,
    etk_from_json,
    etk_to_json,
    evaluate,
    evaluate_real,
    gram_matrix,
    gram_matrix_real,
    linear_sum_etk,
    polynomial_etk,
    shift_invariant_etk,
    verify_psd,
)
from etklab.feature_maps import LocalFeatureSet, PreprocessingFn
from etklab.tensor_core import LPMPO, MPO, lpmpo_materialize, min_eig_ratio


def t_basis_kernel(num_sites, core, data_dim=None):
    data_dim = data_dim or num_sites
    fs = LocalFeatureSet(
        tuple(
            PreprocessingFn(kind="coordinate", input_dim=data_dim, index=k % data_dim)
            for k in range(num_sites)
        )
    )
    return etk_from_feature_set(fs, core, basis="T")


class TestEvaluate:
    def test_identity_core_diagonal_one(self, rng):
        k = t_basis_kernel(3, np.eye(27, dtype=complex))
        for _ in range(5):
            x = rng.uniform(-np.pi, np.pi, 3)
            assert abs(evaluate(k, x, x) - 1.0) < 1e-12

    def test_product_core_factorizes(self, rng):
        ds = [np.diag(rng.uniform(0.1, 1.0, 3)).astype(complex) for _ in range(3)]
        core = MPO([d.reshape(1, 3, 3, 1) for d in ds])
        k = t_basis_kernel(3, core)
        x = rng.uniform(-np.pi, np.pi, 3)
        x2 = rng.uniform(-np.pi, np.pi, 3)
        val = evaluate(k, x, x2)
        factors = []
        for site, d in enumerate(ds):
            bra = k.site_features[site](x)
            ket = k.site_features[site](x2)
            factors.append(bra.conj() @ d @ ket)
        assert abs(val - np.prod(factors)) < 1e-12

    def test_lpmpo_route_vs_dense(self, rng):
        sites = []
        bonds = [1, 2, 2, 2, 1]
        for i in range(4):
            shape = (bonds[i], 3, 2, bonds[i + 1])
            sites.append(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
        lp = LPMPO(sites)
        k_lp = t_basis_kernel(4, lp)
        k_dense = t_basis_kernel(4, lpmpo_materialize(lp))
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, 4)
            x2 = rng.uniform(-np.pi, np.pi, 4)
            a = evaluate(k_lp, x, x2)
            b = evaluate(k_dense, x, x2)
            assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)

    def test_conjugate_symmetry(self, rng):
        core = rng.standard_normal((27, 27))
        core = (core @ core.T).astype(complex)
        k = t_basis_kernel(3, core)
        for _ in range(50):
            x = rng.uniform(-np.pi, np.pi, 3)
            x2 = rng.uniform(-np.pi, np.pi, 3)
            assert abs(evaluate(k, x, x2) - np.conj(evaluate(k, x2, x))) < 1e-12

    def test_dim_mismatch(self):
        k = t_basis_kernel(2, np.eye(9, dtype=complex))
        with pytest.raises(StructuralError):
            evaluate(k, np.zeros(3), np.zeros(2))


class TestGramMatrix:
    def test_single_point(self, rng):
        k = t_basis_kernel(2, np.eye(9, dtype=complex))
        x = rng.uniform(-np.pi, np.pi, 2)
        g = gram_matrix(k, [x])
        assert g.shape == (1, 1)
        assert abs(g[0, 0] - evaluate(k, x, x)) < 1e-14

    def test_identity_core_unit_diagonal(self, rng):
        k = t_basis_kernel(2, np.eye(9, dtype=complex))
        xs = [rng.uniform(-np.pi, np.pi, 2) for _ in range(5)]
        g = gram_matrix(k, xs)
        assert np.abs(np.diagonal(g) - 1.0).max() < 1e-12

    def test_gram_psd(self, rng):
        m = rng.standard_normal((9, 9))
        core = (m @ m.T).astype(complex)
        k = t_basis_kernel(2, core)
        xs = [rng.uniform(-np.pi, np.pi, 2) for _ in range(20)]
        g = gram_matrix_real(k, xs)
        assert min_eig_ratio(g.astype(complex)) >= -1e-8

    def test_gram_real_owns_its_data(self, rng):
        # a view of the complex Gram would keep twice the bytes alive
        k = t_basis_kernel(2, np.eye(9, dtype=complex))
        g = gram_matrix_real(k, [rng.uniform(-np.pi, np.pi, 2) for _ in range(4)])
        assert g.dtype == np.float64 and g.flags.owndata and g.base is None


class TestPolynomialEtk:
    def test_simple_arithmetic(self):
        k = polynomial_etk(2, 1.0, 1)
        assert abs(evaluate_real(k, np.array([2.0]), np.array([3.0])) - 49.0) < 1e-10

    def test_plain_dot_product(self, rng):
        k = polynomial_etk(1, 0.0, 3)
        x = rng.standard_normal(3)
        x2 = rng.standard_normal(3)
        assert abs(evaluate_real(k, x, x2) - x @ x2) < 1e-12

    def test_random_against_closed_form(self, rng):
        k = polynomial_etk(3, 0.7, 3)
        for _ in range(50):
            x = rng.standard_normal(3)
            x2 = rng.standard_normal(3)
            expect = (0.7 + x @ x2) ** 3
            got = evaluate_real(k, x, x2)
            assert abs(got - expect) <= 1e-10 * max(abs(expect), 1.0)


class TestLinearSumEtk:
    def test_single_kernel_identity_weight(self, rng):
        k1 = polynomial_etk(2, 0.5, 2)
        ks = linear_sum_etk([k1], [1.0])
        x = rng.standard_normal(2)
        x2 = rng.standard_normal(2)
        assert abs(
            evaluate_real(ks, x, x2) - evaluate_real(k1, x, x2)
        ) < 1e-10

    def test_two_linear_kernels(self):
        k1 = polynomial_etk(1, 0.0, 1)
        k2 = polynomial_etk(1, 0.0, 1)
        ks = linear_sum_etk([k1, k2], [2.0, 3.0])
        one = np.array([1.0])
        assert abs(evaluate_real(ks, one, one) - 5.0) < 1e-10

    def test_three_random_constituents(self, rng):
        kernels = [
            polynomial_etk(1, 0.3, 2),
            polynomial_etk(2, 0.9, 2),
            polynomial_etk(3, 0.1, 2),
        ]
        weights = [0.5, 1.5, 2.5]
        ks = linear_sum_etk(kernels, weights)
        for _ in range(30):
            x = rng.standard_normal(2)
            x2 = rng.standard_normal(2)
            expect = sum(
                w * evaluate_real(k, x, x2) for w, k in zip(weights, kernels)
            )
            assert abs(evaluate_real(ks, x, x2) - expect) <= 1e-10 * max(
                abs(expect), 1.0
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            linear_sum_etk([polynomial_etk(1, 0.0, 1)], [-1.0])


class TestShiftInvariantEtk:
    def test_degree_one_closed_form(self, rng):
        g0, g1 = 0.7, 0.4
        k = shift_invariant_etk([g0, g1])
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, 1)
            x2 = rng.uniform(-np.pi, np.pi, 1)
            expect = g0 + g1 * np.cos(x[0] - x2[0])
            assert abs(evaluate_real(k, x, x2) - expect) < 1e-10

    def test_equal_arguments_sum(self, rng):
        coeffs = [0.2, 0.3, 0.1, 0.05]
        k = shift_invariant_etk(coeffs)
        x = rng.uniform(-np.pi, np.pi, 1)
        assert abs(evaluate_real(k, x, x) - sum(coeffs)) < 1e-10

    def test_degree_four_random(self, rng):
        coeffs = rng.uniform(0.0, 1.0, 5)
        k = shift_invariant_etk(coeffs)
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, 1)
            x2 = rng.uniform(-np.pi, np.pi, 1)
            delta = x[0] - x2[0]
            expect = coeffs[0] + sum(
                coeffs[j] * np.cos(j * delta) for j in range(1, 5)
            )
            assert abs(evaluate_real(k, x, x2) - expect) < 1e-10

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            shift_invariant_etk([0.5, -0.1])


class TestVerifyPsd:
    def test_identity_core(self):
        k = t_basis_kernel(2, np.eye(9, dtype=complex))
        assert verify_psd(k)["status"] == "psd"

    def test_negative_eigenvalue_detected(self):
        core = np.eye(9, dtype=complex)
        core[0, 0] = -1.0
        k = t_basis_kernel(2, core)
        assert verify_psd(k)["status"] == "not_psd"

    def test_lpmpo_true_by_construction(self, rng):
        sites = [
            rng.standard_normal((1, 3, 2, 2)),
            rng.standard_normal((2, 3, 2, 1)),
        ]
        k = t_basis_kernel(2, LPMPO(sites))
        report = verify_psd(k)
        assert report["status"] == "psd"
        assert "construction" in report["reason"]


class TestSerialization:
    def test_roundtrip(self, rng):
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        core = m @ m.conj().T
        k = t_basis_kernel(2, core)
        back = etk_from_json(etk_to_json(k))
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, 2)
            x2 = rng.uniform(-np.pi, np.pi, 2)
            assert abs(evaluate(k, x, x2) - evaluate(back, x, x2)) < 1e-12
