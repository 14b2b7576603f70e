import math

import numpy as np
import pytest

from etklab.errors import ValidationError
from etklab.learning import (
    Dataset,
    TailoredTarget,
    cross_gram,
    default_ridge,
    default_schedule,
    generate_dataset,
    kernel_target_alignment,
    krr_fit,
    krr_predict,
    learning_comparison_experiment,
    learning_curve,
    self_gram,
    tailored_target,
    target_count,
)
from etklab.single_layer import (
    HAAR_MODEL,
    single_layer_spectrum,
    spectrum_to_mercer,
)


def haar_like_decomposition(n, rng):
    psi2 = rng.dirichlet(np.ones(2**n))
    return spectrum_to_mercer(single_layer_spectrum(psi2))


class TestKrrFit:
    def test_identity_gram_small_ridge(self, rng):
        y = rng.standard_normal(5)
        model = krr_fit(np.eye(5), y, 1e-12)
        assert np.abs(model.dual_coef - y).max() < 1e-10

    def test_single_sample(self):
        model = krr_fit(np.array([[2.0]]), np.array([3.0]), 0.5)
        assert abs(model.dual_coef[0] - 3.0 / 2.5) < 1e-14

    def test_residual(self, rng):
        m = rng.standard_normal((12, 12))
        g = m @ m.T
        y = rng.standard_normal(12)
        model = krr_fit(g, y, 1e-6)
        res = np.linalg.norm((g + 1e-6 * np.eye(12)) @ model.dual_coef - y)
        assert res <= 1e-8 * np.linalg.norm(y)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            krr_fit(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(ValidationError):
            krr_fit(np.eye(2), np.zeros(3), 1e-6)


class TestKrrPredict:
    def test_interpolation_limit(self, rng):
        dec = haar_like_decomposition(2, rng)
        X = rng.uniform(-np.pi, np.pi, (8, 2))
        y = rng.standard_normal(8)
        g = self_gram(dec, X)
        # make the Gram strictly positive definite for exact interpolation
        g = g + 1e-10 * np.eye(8)
        model = krr_fit(g, y, 1e-12, train_inputs=X)
        pred = krr_predict(model, dec, X)
        assert np.abs(pred - y).max() < 1e-5

    def test_zero_coefficients(self, rng):
        dec = haar_like_decomposition(2, rng)
        X = rng.uniform(-np.pi, np.pi, (4, 2))
        model = krr_fit(np.eye(4), np.zeros(4), 1e-6, train_inputs=X)
        pred = krr_predict(model, dec, rng.uniform(-np.pi, np.pi, (3, 2)))
        assert np.abs(pred).max() == 0.0

    def test_matches_direct_formula(self, rng):
        dec = haar_like_decomposition(2, rng)
        X = rng.uniform(-np.pi, np.pi, (6, 2))
        y = rng.standard_normal(6)
        g = self_gram(dec, X)
        model = krr_fit(g, y, 1e-6, train_inputs=X)
        X_new = rng.uniform(-np.pi, np.pi, (5, 2))
        pred = krr_predict(model, dec, X_new)
        k = cross_gram(dec, X_new, X)
        direct = np.array(
            [sum(model.dual_coef[i] * k[j, i] for i in range(6)) for j in range(5)]
        )
        assert np.abs(pred - direct).max() < 1e-12


class TestTailoredTarget:
    def test_term_count(self, rng):
        assert target_count(3) == 7
        dec = haar_like_decomposition(3, rng)
        target = tailored_target(dec, target_count(3), rng)
        assert target.num_terms == 7

    def test_single_term(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 1, rng)
        assert target.num_terms == 1

    def test_value_at_origin(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 4, rng)
        val = target(np.zeros((1, 2)))[0]
        assert abs(val - np.sqrt(target.coefficients).sum()) < 1e-12

    def test_one_point_gives_shape_one(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 4, rng)
        assert target(np.zeros(2)).shape == (1,)
        assert target(np.zeros((1, 2))).shape == (1,)

    def test_too_many_terms(self, rng):
        dec = haar_like_decomposition(1, rng)
        with pytest.raises(ValidationError):
            tailored_target(dec, 100, rng)


class TestGenerateDataset:
    def test_split_counts(self, rng):
        dec = haar_like_decomposition(3, rng)
        target = tailored_target(dec, 7, rng)
        data = generate_dataset(target, 3, 54, 0.2, 17)
        assert data.test_idx.size == math.ceil(0.2 * 54) == 11
        assert data.train_idx.size == 43

    def test_deterministic(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 3, rng)
        a = generate_dataset(target, 2, 20, 0.2, 5)
        b = generate_dataset(target, 2, 20, 0.2, 5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_target_bound(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 4, rng)
        data = generate_dataset(target, 2, 30, 0.2, 7)
        bound = np.sqrt(target.coefficients).sum() + 1e-12
        assert np.abs(data.targets).max() <= bound

    def test_json_roundtrip(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 3, rng)
        data = generate_dataset(target, 2, 20, 0.2, 5)
        back = Dataset.from_json(data.to_json())
        assert np.abs(back.inputs - data.inputs).max() == 0.0
        assert np.array_equal(back.test_idx, data.test_idx)


class TestLearningCurve:
    def test_zero_target(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 3, rng)
        data = generate_dataset(target, 2, 30, 0.2, 7)
        data.targets = np.zeros_like(data.targets)
        table = learning_curve(dec, data, [5, 10, 20])
        assert all(mse == 0.0 for mse in table.column("mse"))

    def test_no_nans_and_all_sizes(self, rng):
        dec = haar_like_decomposition(2, rng)
        target = tailored_target(dec, 3, rng)
        data = generate_dataset(target, 2, 30, 0.2, 7)
        schedule = default_schedule(data.train_idx.size, 5)
        table = learning_curve(dec, data, schedule)
        assert table.column("m") == schedule
        assert not any(np.isnan(v) for v in table.column("mse"))

    def test_default_ridge_scale(self):
        assert abs(default_ridge(2.0 * np.eye(4)) - 2e-8) < 1e-20


class TestAlignment:
    def test_rank_one_match(self, rng):
        y = rng.standard_normal(6)
        assert abs(kernel_target_alignment(np.outer(y, y), y) - 1.0) < 1e-12

    def test_orthogonal(self):
        v = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert abs(kernel_target_alignment(np.outer(v, v), y)) < 1e-14

    def test_bounded(self, rng):
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            g = m @ m.T
            y = rng.standard_normal(5)
            a = kernel_target_alignment(g, y)
            assert -1.0 - 1e-12 <= a <= 1.0 + 1e-12


class TestComparisonExperiment:
    def test_counting_contract(self):
        models = [HAAR_MODEL, {"kind": "concentrated", "s": 2}]
        table = learning_comparison_experiment(
            2, models, 3, 7, schedule_points=5
        )
        # schedules may deduplicate; every (model, instance) contributes the
        # same number of rows
        per_cell = len(table.rows) // 6
        assert len(table.rows) == 6 * per_cell
        assert per_cell <= 5

    def test_determinism(self):
        models = [HAAR_MODEL]
        a = learning_comparison_experiment(2, models, 2, 9, schedule_points=4)
        b = learning_comparison_experiment(2, models, 2, 9, schedule_points=4)
        assert a.to_csv() == b.to_csv()

    def test_zero_target_mode(self):
        table = learning_comparison_experiment(
            2, [HAAR_MODEL], 1, 3, schedule_points=3, zero_target=True
        )
        assert all(mse == 0.0 for mse in table.column("mse"))
