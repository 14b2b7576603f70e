"""Property tests of circuit extraction, ``build_core_CT``'s interpolation
on the 3^N grid of site angles.

Oracles: ``oracles.dense_core_CT`` (the 4^N vertical tensor product of the
dense A = O' (Hadamard) rho^T), which shares no code with extraction, and the
statevector fidelity from ``simulate_kernel`` and batched ``simulate_states``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_circuit
from etklab.learning import cross_gram
from etklab.quantum import (
    build_core_CT,
    etk_from_circuit,
    simulate_kernel,
    simulate_states,
)
from etklab.tensor_core import min_eig_ratio
from oracles import dense_core_CT

seeds = st.integers(0, 2**32 - 1)
# (n, L) with n <= 3 and N = n L <= 5: every N up to the dense oracle's cap
small_shapes = st.sampled_from(
    [(n, layers) for n in (1, 2, 3) for layers in range(1, 6) if n * layers <= 5]
)
# n <= 3, L <= 3: up to N = 9 sites, kept to extraction's N <= 7
ptm_shapes = st.sampled_from(
    [(n, layers) for n in (1, 2, 3) for layers in (1, 2, 3) if n * layers <= 7]
)


def circuit(seed, shape, data_dim=None):
    n, layers = shape
    return random_circuit(n, layers, np.random.default_rng(seed), data_dim=data_dim)


@settings(max_examples=20)
@given(seed=seeds, shape=small_shapes)
def test_matches_dense_route(seed, shape):
    circ = circuit(seed, shape)
    dense = dense_core_CT(circ)
    ptm = build_core_CT(circ)
    assert np.abs(ptm - dense).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=20)
@given(seed=seeds, shape=ptm_shapes)
def test_core_is_real_symmetric_psd(seed, shape):
    ct = build_core_CT(circuit(seed, shape))
    assert np.isrealobj(ct)
    assert np.array_equal(ct, ct.T)
    assert min_eig_ratio(ct.astype(complex)) >= -1e-10


def assert_matches_statevector(circ, rng, m=6):
    kernel = etk_from_circuit(circ)
    X = rng.uniform(-np.pi, np.pi, (m, circ.data_dim))
    X2 = rng.uniform(-np.pi, np.pi, (m, circ.data_dim))
    oracle = np.array([[simulate_kernel(circ, x, y) for y in X2] for x in X])
    assert np.abs(cross_gram(kernel, X, X2) - oracle).max() <= 1e-9


@settings(max_examples=20)
@given(seed=seeds, shape=ptm_shapes, data_dim=st.integers(1, 3))
def test_etk_matches_statevector(seed, shape, data_dim):
    # data_dim < N makes several sites read the same coordinate
    circ = circuit(seed, shape, data_dim=min(data_dim, shape[0] * shape[1]))
    assert_matches_statevector(circ, np.random.default_rng(seed))


def test_etk_matches_statevector_at_seven_sites():
    rng = np.random.default_rng(7)
    circ = random_circuit(1, 7, rng)
    assert_matches_statevector(circ, rng)


@pytest.mark.parametrize("n", [6, 7])
def test_single_layer_matches_batched_statevector(n):
    # L = 1: 4^n > 3^n, so extraction applies T^-1 to K_grid itself; the
    # 50 x 50 cross Gram holds the 50 pairs (X[i], X2[i]) and all others
    rng = np.random.default_rng(n)
    circ = random_circuit(n, 1, rng)
    X, X2 = rng.uniform(-np.pi, np.pi, (2, 50, circ.data_dim))
    oracle = np.abs(simulate_states(circ, X).conj() @ simulate_states(circ, X2).T) ** 2
    assert np.abs(cross_gram(etk_from_circuit(circ), X, X2) - oracle).max() <= 1e-9


@pytest.mark.parametrize("shape", [(1, 4), (2, 2), (1, 5)])
def test_auto_takes_the_ptm_route(shape):
    # the kernel carries the extracted core unchanged
    circ = circuit(3, shape)
    core = etk_from_circuit(circ).core
    assert np.array_equal(core, build_core_CT(circ))
