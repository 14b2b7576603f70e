import numpy as np
import pytest

from etklab.errors import ValidationError
from etklab.etk import etk_from_feature_set, feature_matrix
from etklab.feature_maps import (
    LocalFeatureSet,
    PreprocessingFn,
    eval_local_E,
    eval_local_T,
    fourier_factor,
    fourier_gram,
    isometry_P,
)

SQ2 = np.sqrt(2.0)


def coord(d=1, index=0):
    return PreprocessingFn(kind="coordinate", input_dim=d, index=index)


class TestPreprocessingFn:
    def test_coordinate(self):
        fn = coord(3, 1)
        assert fn(np.array([1.0, 2.0, 3.0])) == 2.0

    def test_affine(self):
        fn = PreprocessingFn(
            kind="affine", input_dim=2, weights=(2.0, -1.0), bias=0.5
        )
        assert abs(fn(np.array([1.0, 3.0])) - (2.0 - 3.0 + 0.5)) < 1e-15

    def test_zero(self):
        fn = PreprocessingFn(kind="zero", input_dim=4)
        assert fn(np.zeros(4)) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            PreprocessingFn(kind="coordinate", input_dim=2, index=2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            PreprocessingFn(kind="fourier", input_dim=1)

    def test_non_finite_weights_and_bias(self):
        with pytest.raises(ValidationError, match="finite"):
            PreprocessingFn(kind="affine", input_dim=2, weights=(1.0, np.nan))
        with pytest.raises(ValidationError, match="finite"):
            PreprocessingFn(kind="affine", input_dim=1, weights=(1.0,), bias=np.inf)

    def test_json_roundtrip(self):
        fn = PreprocessingFn(
            kind="affine", input_dim=3, weights=(1.0, 0.0, 2.0), bias=-1.0
        )
        back = PreprocessingFn.from_json_dict(fn.to_json_dict())
        x = np.array([0.3, -0.7, 1.1])
        assert abs(fn(x) - back(x)) < 1e-15


class TestEvalLocalT:
    def test_phi_zero(self):
        t = eval_local_T(coord(), np.array([0.0]))
        assert np.abs(t - np.array([1.0, 1.0, 0.0]) / SQ2).max() < 1e-15

    def test_phi_half_pi(self):
        t = eval_local_T(coord(), np.array([np.pi / 2]))
        assert np.abs(t - np.array([1.0, 0.0, 1.0]) / SQ2).max() < 1e-15

    def test_unit_norm_affine(self, rng):
        fn = PreprocessingFn(
            kind="affine", input_dim=3, weights=(0.3, 1.7, -2.2), bias=0.9
        )
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, 3)
            assert abs(np.linalg.norm(eval_local_T(fn, x)) - 1.0) < 1e-14


class TestEvalLocalE:
    def test_phi_zero(self):
        e = eval_local_E(coord(), np.array([0.0]))
        assert np.abs(e - np.ones(4)).max() < 1e-15

    def test_phi_pi(self):
        e = eval_local_E(coord(), np.array([np.pi]))
        assert np.abs(e - np.array([1, -1, -1, 1])).max() < 1e-12

    def test_e_equals_2pt(self, rng):
        p = isometry_P()
        fn = PreprocessingFn(
            kind="affine", input_dim=2, weights=(1.3, -0.4), bias=0.2
        )
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, 2)
            e = eval_local_E(fn, x)
            t = eval_local_T(fn, x)
            assert np.abs(e - 2.0 * (p @ t)).max() < 1e-14


class TestIsometryP:
    def test_isometry(self):
        p = isometry_P()
        assert np.abs(p.conj().T @ p - np.eye(3)).max() < 1e-15

    def test_first_column(self):
        p = isometry_P()
        assert np.abs(p[:, 0] - np.array([1, 0, 0, 1]) / SQ2).max() < 1e-15

    def test_pp_dagger_projector(self):
        p = isometry_P()
        w = np.sort(np.linalg.eigvalsh(p @ p.conj().T))
        assert np.abs(w - np.array([0.0, 1.0, 1.0, 1.0])).max() < 1e-13


def product_feature(fs, x, basis):
    """Per-site local features of one point: the one-row feature_matrix of a
    kernel on the feature set."""
    dim = {"T": 3, "E": 4}[basis] ** fs.num_sites
    kernel = etk_from_feature_set(fs, np.eye(dim), basis=basis)
    return [f[0] for f in feature_matrix(kernel, [x])]


class TestProductFeature:
    def test_two_zero_maps(self):
        fs = LocalFeatureSet(
            (PreprocessingFn(kind="zero", input_dim=1),) * 2
        )
        vecs = product_feature(fs, np.zeros(1), basis="T")
        assert len(vecs) == 2
        for v in vecs:
            assert np.abs(v - np.array([1.0, 1.0, 0.0]) / SQ2).max() < 1e-15

    def test_single_map_matches_local(self, rng):
        fs = LocalFeatureSet((coord(),))
        x = rng.uniform(-np.pi, np.pi, 1)
        (v,) = product_feature(fs, x, basis="E")
        assert np.abs(v - eval_local_E(fs.maps[0], x)).max() < 1e-15

    def test_full_product_unit_norm(self, rng):
        from functools import reduce

        maps = tuple(coord(4, k % 4) for k in range(5))
        fs = LocalFeatureSet(maps)
        x = rng.uniform(-np.pi, np.pi, 4)
        vecs = product_feature(fs, x, basis="T")
        full = reduce(np.kron, vecs)
        assert abs(np.linalg.norm(full) - 1.0) < 1e-13


def fourier_eval(m, omega, x):
    """Values sum_s M[c, s] e^{i Omega[s].x} of every row c at one point."""
    return m @ np.exp(1j * omega @ np.asarray(x, dtype=float))


class TestTrigComponents:
    def test_local_matches_numeric(self, rng):
        fn = PreprocessingFn(
            kind="affine", input_dim=2, weights=(1.5, -0.7), bias=0.3
        )
        for basis, local in (("T", eval_local_T), ("E", eval_local_E)):
            m, omega = fourier_factor(fn, basis=basis)
            for _ in range(10):
                x = rng.uniform(-np.pi, np.pi, 2)
                vals = fourier_eval(m, omega, x)
                assert np.abs(vals - local(fn, x)).max() < 1e-13

    def test_trig_inner_exact_fourier(self):
        # rows cos x and cos 2x over the terms e^{ix}, e^{-ix}, e^{2ix}, e^{-2ix}
        factor = (np.array([[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]]),
                  np.array([[1.0], [-1.0], [2.0], [-2.0]]))
        g = fourier_gram([factor])
        # <cos x, cos x> = 1/2 on [-pi, pi] with uniform measure
        assert abs(g[0, 0] - 0.5) < 1e-15
        # orthogonal to a different integer frequency
        assert abs(g[0, 1]) < 1e-15

    def test_trig_inner_matches_quadrature(self, rng):
        # non-integer frequencies exercise the sinc-based overlap
        m = np.array([[0.7 + 0.2j, 0.1, 0, 0], [0, 0, 0.5, -0.3j]])
        omega = np.array([[1.3], [-0.4], [0.9], [2.2]])
        xs, ws = np.polynomial.legendre.leggauss(200)
        xs = xs * np.pi
        num = 0.0
        for x, w in zip(xs, ws):
            a, b = fourier_eval(m, omega, [x])
            num += w / 2.0 * np.conj(a) * b
        assert abs(fourier_gram([(m, omega)])[0, 1] - num) < 1e-10

    def test_mul_and_conj(self):
        # two sites: (cos x, sin x) and (1, 0.25i e^{2ix}); the Gram of their
        # four products, conj(first) times second, against quadrature
        site_a = (np.array([[0.5, 0.5], [0.5j, -0.5j]]), np.array([[-1.0], [1.0]]))
        site_b = (np.array([[1.0, 0], [0, 0.25j]]), np.array([[0.0], [2.0]]))
        xs, ws = np.polynomial.legendre.leggauss(40)
        xs = xs * np.pi
        num = np.zeros((4, 4), dtype=complex)
        for x, w in zip(xs, ws):
            f = np.kron(fourier_eval(*site_a, [x]), fourier_eval(*site_b, [x]))
            num += w / 2.0 * np.outer(f.conj(), f)
        assert np.abs(fourier_gram([site_a, site_b]) - num).max() < 1e-14
