"""Property tests of mercer_decompose against the four-step oracle.

mercer_decompose solves one Hermitian eigenproblem in frequency (or
component) coordinates.  The paper's four-step construction (Gram-Schmidt,
padding, core transform, diagonalization) is the oracle, in oracles.py.  On every kernel drawn here the two must give the same nonzero
eigenvalues to 1e-12 of the largest, and the new route must reconstruct the
kernel to 1e-8 and have eigenfunctions orthonormal to 1e-6.

The kernels are the feature-set kernels of test_fourier_gram.py (exact sinc
Gram), polynomial kernels (Gauss-Legendre quadrature Gram), shift-invariant
kernels and circuit kernels.  For a circuit kernel K(x, x) = 1, so the
eigenvalues sum to 1, and it is a linear kernel on vec rho(x), so at most
4^n of them are nonzero.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_circuit
from etklab.etk import polynomial_etk, shift_invariant_etk
from etklab.mercer import (
    basis_from_etk,
    eigenfunction_gram,
    mercer_decompose,
    reconstruct_kernel,
)
from etklab.quantum import etk_from_circuit, simulate_kernel
from oracles import diagonalize, gram_schmidt_basis, transform_truncate
from test_acceptance import kernel_values
from test_fourier_gram import INT_WEIGHTS, REAL_WEIGHTS, SHAPES, kernels


def oracle_eigenvalues(kernel) -> np.ndarray:
    gs = gram_schmidt_basis(basis_from_etk(kernel))
    return diagonalize(transform_truncate(kernel.dense_core(), gs), gs).eigenvalues


def assert_matches_oracle(kernel, rng):
    """Eigenvalues against the oracle, reconstruction and orthonormality;
    returns the decomposition."""
    dec, gs = mercer_decompose(kernel)
    oracle = oracle_eigenvalues(kernel)
    # pad both with zeros: eigenvalues below the cutoff are dropped, not
    # moved, so the padded, sorted spectra must agree entry by entry
    size = max(oracle.size, dec.rank)
    got = np.sort(np.pad(dec.eigenvalues, (0, size - dec.rank)))
    want = np.sort(np.pad(oracle, (0, size - oracle.size)))
    top = np.abs(want).max(initial=1.0)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * top
    x, x2 = rng.uniform(-np.pi, np.pi, (2, 20, kernel.data_dim))
    direct = kernel_values(kernel, x, x2)
    rec = np.array([reconstruct_kernel(dec, a, b) for a, b in zip(x, x2)])
    assert np.abs(rec - direct).max() <= 1e-8 * max(np.abs(direct).max(), 1.0)
    gram = eigenfunction_gram(dec, gs)
    assert np.abs(gram - np.eye(dec.rank)).max(initial=0.0) <= 1e-6
    return dec


@pytest.mark.parametrize("basis, sites", SHAPES)
@settings(max_examples=5)
@given(data=st.data())
def test_integer_frequency_kernels(basis, sites, data):
    kernel = data.draw(kernels(basis, sites, INT_WEIGHTS))
    assert_matches_oracle(kernel, np.random.default_rng(0))


@pytest.mark.parametrize("basis, sites", SHAPES)
@settings(max_examples=5)
@given(data=st.data())
def test_real_frequency_kernels(basis, sites, data):
    kernel = data.draw(kernels(basis, sites, REAL_WEIGHTS, kinds=("affine", "zero")))
    assert_matches_oracle(kernel, np.random.default_rng(1))


@settings(max_examples=8)
@given(
    degree=st.integers(1, 3),
    offset=st.floats(0.0, 2.0),
    data_dim=st.integers(1, 2),
)
def test_polynomial_kernels_by_quadrature(degree, offset, data_dim):
    kernel = polynomial_etk(degree, offset, data_dim)
    dec = assert_matches_oracle(kernel, np.random.default_rng(2))
    assert dec.omega is None and dec.basis_description == "quadrature"


@settings(max_examples=10)
@given(coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_shift_invariant_kernels(coeffs):
    dec = assert_matches_oracle(shift_invariant_etk(coeffs), np.random.default_rng(3))
    # closed form: gamma_0 on the constant, gamma_j / 2 on cos(jx) and sin(jx)
    closed = np.array([coeffs[0]] + [c / 2.0 for c in coeffs[1:] for _ in (0, 1)])
    got = np.pad(dec.eigenvalues, (0, closed.size - dec.rank))
    assert np.abs(np.sort(got) - np.sort(closed)).max() <= 1e-12 * max(coeffs + [1.0])


@settings(max_examples=12)
@given(
    n=st.integers(1, 2),
    layers=st.integers(1, 2),
    repeat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_circuit_kernels(n, layers, repeat, seed):
    rng = np.random.default_rng(seed)
    circ = random_circuit(n, layers, rng, data_dim=n if repeat else None)
    dec = assert_matches_oracle(etk_from_circuit(circ), rng)
    assert abs(dec.eigenvalues.sum() - 1.0) <= 1e-12
    assert dec.rank <= 4**n


def test_six_site_circuit_reconstructs_statevector():
    rng = np.random.default_rng(6)
    circ = random_circuit(2, 3, rng, data_dim=2)
    dec, _ = mercer_decompose(etk_from_circuit(circ))
    assert abs(dec.eigenvalues.sum() - 1.0) <= 1e-12
    assert dec.rank <= 16
    for x, x2 in rng.uniform(-np.pi, np.pi, (50, 2, 2)):
        assert abs(reconstruct_kernel(dec, x, x2) - simulate_kernel(circ, x, x2)) <= 1e-9
