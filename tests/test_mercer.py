from functools import reduce

import numpy as np
import pytest

from conftest import hadamard_circuit, random_circuit
from etklab.errors import ValidationError
from etklab.etk import etk_from_feature_set, evaluate
from etklab.feature_maps import LocalFeatureSet, PreprocessingFn
from etklab.mercer import (
    FunctionBasis,
    basis_from_etk,
    eigenfunction_gram,
    mercer_decompose,
    reconstruct_kernel,
)
from etklab.quantum import etk_from_circuit, simulate_kernel
from oracles import (
    diagonalize,
    gram_schmidt_basis,
    isometry_P,
    pad_L,
    transform_truncate,
)


def fourier_basis(coeffs, freqs, exact=True):
    """Basis of the functions sum_t coeffs[i, t] e^{i freqs[t] x} on [-pi, pi],
    with its Fourier factor (exact Gram) or without (quadrature Gram)."""
    c = np.asarray(coeffs, dtype=complex)
    om = np.asarray(freqs, dtype=float).reshape(c.shape[1], 1)
    return FunctionBasis(
        lambda X: [np.exp(1j * X @ om.T) @ c.T],
        data_dim=1,
        fourier=[(c, om)] if exact else None,
    )


def random_trig_etk(rng, num_sites=3):
    """ETK on T-basis sites with random affine pre-processing and PSD core."""
    maps = tuple(
        PreprocessingFn(
            kind="affine",
            input_dim=2,
            weights=tuple(rng.uniform(-2, 2, 2)),
            bias=float(rng.uniform(-1, 1)),
        )
        for _ in range(num_sites)
    )
    dim = 3**num_sites
    m = rng.standard_normal((dim, dim))
    core = (m @ m.T).astype(complex)
    core /= np.trace(core)
    return etk_from_feature_set(LocalFeatureSet(maps), core, basis="T")


class TestGramSchmidt:
    def test_already_orthonormal_fourier(self):
        basis = fourier_basis(np.eye(3), [0, -1, 1])
        gs = gram_schmidt_basis(basis)
        assert gs.rank == 3
        assert np.abs(gs.l_tilde - np.eye(3)).max() < 1e-12

    def test_duplicated_component(self):
        basis = fourier_basis([[1.0], [1.0]], [1])
        gs = gram_schmidt_basis(basis)
        assert gs.rank == 1
        assert gs.dependent == [1]
        assert abs(gs.alphas[0, 0] - 1.0) < 1e-10

    def test_random_polynomials_quadrature(self, rng):
        coeffs = rng.standard_normal((4, 4))

        def poly(c):
            return lambda x: complex(np.polyval(c, x[0] / np.pi))

        funcs = [poly(c) for c in coeffs]
        basis = FunctionBasis(
            lambda X: [np.array([[f(x) for f in funcs] for x in X], dtype=complex)],
            data_dim=1,
        )
        gs = gram_schmidt_basis(basis)
        assert gs.rank == 4
        # Gram of the orthonormalized basis must be the identity
        g_e = gs.l_tilde @ gs.gram @ gs.l_tilde.conj().T
        assert np.abs(g_e - np.eye(4)).max() < 1e-8


class TestPadL:
    def test_full_rank_equals_l_tilde(self):
        basis = fourier_basis(np.eye(2), [0, 1])
        gs = gram_schmidt_basis(basis)
        assert np.abs(pad_L(gs) - gs.l_tilde).max() < 1e-12

    def test_single_layer_four_by_four(self):
        # E-basis components of one site: (1, e^{ix}, e^{-ix}, 1); the fourth
        # duplicates the first, giving -1 in the (4, 1) slot of L.
        basis = fourier_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], [0, 1, -1])
        gs = gram_schmidt_basis(basis)
        L = pad_L(gs)
        expect = np.eye(4, dtype=complex)
        expect[3, 0] = -1.0
        assert np.abs(L - expect).max() < 1e-10

    def test_dependent_component_vanishes(self, rng):
        basis = fourier_basis([[1, 0], [0, 1], [2.0, 0.5]], [0, 1])
        gs = gram_schmidt_basis(basis)
        L = pad_L(gs)
        perm = gs.perm
        for _ in range(50):
            x = rng.uniform(-np.pi, np.pi, 1)
            fvals = basis.eval_components(x)[perm]
            transformed = L @ fvals
            assert abs(transformed[-1]) < 1e-8


class TestTransformTruncate:
    def test_identity_L(self, rng):
        basis = fourier_basis(np.eye(3), [0, 1, -1])
        gs = gram_schmidt_basis(basis)
        c = rng.standard_normal((3, 3)).astype(complex)
        c = c + c.conj().T
        assert np.abs(transform_truncate(c, gs) - c).max() < 1e-12

    def test_hadamard_single_layer(self):
        # E-basis core of the W=H circuit is I/4 on components
        # (1, e^{ix}, e^{-ix}, 1); the reduced core is diag(1/2, 1/4, 1/4).
        basis = fourier_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], [0, 1, -1])
        gs = gram_schmidt_basis(basis)
        c_tilde = transform_truncate(np.eye(4, dtype=complex) / 4.0, gs)
        assert np.abs(c_tilde - np.diag([0.5, 0.25, 0.25])).max() < 1e-10


class TestDiagonalize:
    def test_diagonal_input(self):
        basis = fourier_basis(np.eye(3), [0, 1, -1])
        gs = gram_schmidt_basis(basis)
        dec = diagonalize(np.diag([0.2, 0.5, 0.3]).astype(complex), gs, basis)
        assert np.abs(dec.eigenvalues - np.array([0.5, 0.3, 0.2])).max() < 1e-12

    def test_trace_preserved(self, rng):
        basis = fourier_basis(np.eye(4), [0, 1, -1, 2])
        gs = gram_schmidt_basis(basis)
        m = rng.standard_normal((4, 4))
        c = (m @ m.T).astype(complex)
        dec = diagonalize(c, gs, basis)
        assert abs(dec.eigenvalues.sum() - np.trace(c).real) < 1e-10

    def test_non_hermitian_rejected(self):
        basis = fourier_basis(np.eye(2), [0, 1])
        gs = gram_schmidt_basis(basis)
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError):
            diagonalize(bad, gs, basis)


class TestFullPipeline:
    def test_hadamard_spectrum(self):
        kernel = etk_from_circuit(hadamard_circuit())
        dec, gs = mercer_decompose(kernel)
        assert np.abs(
            dec.eigenvalues - np.array([0.5, 0.25, 0.25])
        ).max() < 1e-10

    def test_hadamard_reconstruction(self, rng):
        kernel = etk_from_circuit(hadamard_circuit())
        dec, _ = mercer_decompose(kernel)
        x = np.array([0.3])
        assert abs(reconstruct_kernel(dec, x, x) - 1.0) < 1e-8
        assert abs(reconstruct_kernel(dec, np.array([0.0]), np.array([np.pi]))) < 1e-8

    def test_quantum_etk_reconstruction(self, rng):
        circ = random_circuit(2, 2, rng, data_dim=2)
        kernel = etk_from_circuit(circ)
        dec, gs = mercer_decompose(kernel)
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, 2)
            x2 = rng.uniform(-np.pi, np.pi, 2)
            rec = reconstruct_kernel(dec, x, x2)
            assert abs(rec - simulate_kernel(circ, x, x2)) < 1e-8
        g = eigenfunction_gram(dec, gs)
        assert np.abs(g - np.eye(dec.rank)).max() < 1e-8

    def test_random_trig_etk_reconstruction(self, rng):
        kernel = random_trig_etk(rng)
        dec, gs = mercer_decompose(kernel)
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, 2)
            x2 = rng.uniform(-np.pi, np.pi, 2)
            assert abs(
                reconstruct_kernel(dec, x, x2) - evaluate(kernel, x, x2)
            ) < 1e-8
        g = eigenfunction_gram(dec, gs)
        assert np.abs(g - np.eye(dec.rank)).max() < 1e-6

    def test_e_basis_matches_t_basis(self, rng):
        # C_E = (x)P/2 C_T (x)P/2^dag gives the same kernel on E = 2 P T
        circ = random_circuit(1, 2, rng)
        kernel_t = etk_from_circuit(circ)
        p = reduce(np.kron, [isometry_P() / 2.0] * 2)
        core_e = p @ kernel_t.dense_core() @ p.conj().T
        kernel_e = etk_from_feature_set(circ.feature_set(), core_e, basis="E")
        dec_t, _ = mercer_decompose(kernel_t)
        dec_e, _ = mercer_decompose(kernel_e)
        basis_e = basis_from_etk(kernel_e)
        gs_e = gram_schmidt_basis(basis_e)
        assert gs_e.rank == 9
        oracle = diagonalize(transform_truncate(core_e, gs_e), gs_e)
        nonzero = oracle.eigenvalues[np.abs(oracle.eigenvalues) > 1e-11]
        assert dec_e.rank == nonzero.size == 4
        assert np.abs(dec_e.eigenvalues - nonzero).max() < 1e-12
        assert np.abs(dec_e.eigenvalues - dec_t.eigenvalues).max() < 1e-12
        for _ in range(50):
            x, x2 = rng.uniform(-np.pi, np.pi, (2, 2))
            rec = reconstruct_kernel(dec_e, x, x2)
            assert abs(rec - simulate_kernel(circ, x, x2)) < 1e-9

    def test_eigenvalues_nonnegative(self, rng):
        kernel = random_trig_etk(rng)
        dec, _ = mercer_decompose(kernel)
        assert dec.eigenvalues.min() >= -1e-10 * dec.eigenvalues.max()

    def test_spectrum_invariant_under_component_order(self, rng):
        basis = fourier_basis(np.eye(3), [0, 1, -1])
        m = rng.standard_normal((3, 3))
        c = (m @ m.T).astype(complex)
        gs = gram_schmidt_basis(basis)
        dec = diagonalize(transform_truncate(c, gs), gs, basis)

        perm = [2, 0, 1]
        basis_p = fourier_basis(np.eye(3)[perm], [0, 1, -1])
        c_p = c[np.ix_(perm, perm)]
        gs_p = gram_schmidt_basis(basis_p)
        dec_p = diagonalize(transform_truncate(c_p, gs_p), gs_p, basis_p)
        assert np.abs(dec.eigenvalues - dec_p.eigenvalues).max() < 1e-9


class TestProviders:
    """The two inner products of FunctionBasis.gram: exact Fourier and
    Gauss-Legendre quadrature."""

    def test_quadrature_matches_analytic(self):
        analytic = fourier_basis(np.eye(3), [0, 1, -1]).gram()
        quad_basis = fourier_basis(np.eye(3), [0, 1, -1], exact=False)
        assert np.abs(quad_basis.gram() - analytic).max() < 1e-10

    def test_basis_from_etk_prefers_analytic(self, rng):
        kernel = random_trig_etk(rng, num_sites=2)
        basis = basis_from_etk(kernel)
        assert basis.fourier is not None
        dec, _ = mercer_decompose(kernel)
        assert dec.basis_description == "analytic-fourier"
