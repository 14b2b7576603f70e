"""Property tests of the array Fourier Gram and the Mercer pipeline built on it.

The component Gram of random feature-set kernels (coordinate, affine and zero
maps, repeated coordinates, T and E bases, N <= 4 sites) is checked against
oracles that use neither ``fourier_factor`` nor ``fourier_gram``:

* integer frequencies: the mean over the uniform grid with 2 W_d + 1 points
  per coordinate, W_d = sum_k |w_kd|, which is exact for products of two
  components;
* real frequencies: each component expanded term by term from the feature
  definitions, and a per-pair sum of sinc overlaps.

The Mercer decomposition of the same kernels must reconstruct the kernel and
have orthonormal eigenfunctions.  Real weights come from {0, +-1.3, +-6.1},
so distinct site-summed frequencies differ by at least 0.9 in some
coordinate.  Closely spaced real frequencies make the component Gram so
ill-conditioned that Gram-Schmidt on it is not accurate in double precision;
the eigenproblem in frequency coordinates needs no inverse of that Gram, and
test_close_real_frequencies_stay_orthonormal checks it on rank-3 cores.  With
a full-rank core the smallest kept eigenvalue is about 1e-11 of the largest
and the eigenfunction Gram is off I by up to about 2e-5, a known limit that no
test asserts.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etklab.etk import etk_from_feature_set, feature_matrix
from etklab.feature_maps import LocalFeatureSet, PreprocessingFn
from etklab.mercer import basis_from_etk, eigenfunction_gram, mercer_decompose
from etklab.mercer import reconstruct_kernel
from etklab.tensor_core import kron_rows
from test_acceptance import kernel_values

GRAM_TOL = 1e-12

# Each local feature as (coefficient, s) terms of e^{i s phi}.
R2 = np.sqrt(2.0)
SITE_TERMS = {
    "T": [
        [(1 / R2, 0)],
        [(1 / (2 * R2), 1), (1 / (2 * R2), -1)],
        [(1 / (2j * R2), 1), (-1 / (2j * R2), -1)],
    ],
    "E": [[(1.0, 0)], [(1.0, 1)], [(1.0, -1)], [(1.0, 0)]],
}

INT_WEIGHTS = st.integers(-2, 2).map(float)
REAL_WEIGHTS = st.sampled_from([-6.1, -1.3, 0.0, 1.3, 6.1])


# (basis, sites): the E basis stops at three sites to keep the oracle fast
SHAPES = [("T", 1), ("T", 2), ("T", 3), ("T", 4), ("E", 1), ("E", 2), ("E", 3)]


@st.composite
def kernels(draw, basis, sites, weights, kinds=("coordinate", "affine", "zero")):
    """A feature-set kernel with random maps and a random PSD core."""
    data_dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = []
    for _ in range(sites):
        kind = draw(st.sampled_from(kinds))
        if kind == "coordinate":
            index = draw(st.integers(0, data_dim - 1))
            maps.append(PreprocessingFn(kind, data_dim, index=index))
        elif kind == "affine":
            w = tuple(draw(weights) for _ in range(data_dim))
            b = rng.uniform(-np.pi, np.pi)
            maps.append(PreprocessingFn(kind, data_dim, weights=w, bias=b))
        else:
            maps.append(PreprocessingFn(kind, data_dim))
    dim = (3 if basis == "T" else 4) ** sites
    m = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    core = m @ m.conj().T
    return etk_from_feature_set(LocalFeatureSet(tuple(maps)), core / np.trace(core).real, basis)


def line(fn):
    """(w, b) with phi(x) = w.x + b."""
    if fn.kind == "coordinate":
        return np.eye(fn.input_dim)[fn.index], 0.0
    if fn.kind == "affine":
        return np.array(fn.weights), fn.bias
    return np.zeros(fn.input_dim), 0.0


def grid_gram(kernel):
    """Gram as the mean over the exact uniform grid (integer frequencies)."""
    width = sum(np.abs(line(fn)[0]) for fn in kernel.feature_set.maps)
    axes = [-np.pi + 2 * np.pi * np.arange(m) / m for m in 2 * width.astype(int) + 1]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    f = kron_rows(feature_matrix(kernel, grid))
    return f.conj().T @ f / len(grid)


def sinc_gram(kernel):
    """Gram by expanding every component into terms, pair by pair."""
    sites = []
    for fn in kernel.feature_set.maps:
        w, b = line(fn)
        sites.append([[(c * np.exp(1j * s * b), s * w) for c, s in feature]
                      for feature in SITE_TERMS[kernel.basis]])
    comps = []
    for feats in itertools.product(*sites):
        terms = list(itertools.product(*feats))
        comps.append((np.array([np.prod([c for c, _ in t]) for t in terms]),
                      np.array([sum(w for _, w in t) for t in terms])))
    g = np.empty((len(comps), len(comps)), dtype=complex)
    for p, (ca, wa) in enumerate(comps):
        for q, (cb, wb) in enumerate(comps):
            overlap = np.prod(np.sinc(wb[None, :, :] - wa[:, None, :]), axis=2)
            g[p, q] = ca.conj() @ overlap @ cb
    return g


def assert_gram(kernel, oracle):
    got = basis_from_etk(kernel).gram()
    assert np.abs(got - oracle).max() <= GRAM_TOL * np.abs(oracle).max()


def assert_mercer(kernel, rng):
    dec, gs = mercer_decompose(kernel)
    x, x2 = rng.uniform(-np.pi, np.pi, (2, 20, kernel.data_dim))
    rec = [reconstruct_kernel(dec, a, b) for a, b in zip(x, x2)]
    assert np.abs(np.array(rec) - kernel_values(kernel, x, x2)).max() <= 1e-8
    assert np.abs(eigenfunction_gram(dec, gs) - np.eye(dec.rank)).max() <= 1e-6


@pytest.mark.parametrize("basis, sites", SHAPES)
@settings(max_examples=5)
@given(data=st.data())
def test_gram_matches_exact_grid(basis, sites, data):
    kernel = data.draw(kernels(basis, sites, INT_WEIGHTS))
    assert_gram(kernel, grid_gram(kernel))
    assert_mercer(kernel, np.random.default_rng(0))


@pytest.mark.parametrize("basis, sites", SHAPES)
@settings(max_examples=5)
@given(data=st.data())
def test_gram_matches_sinc_sum(basis, sites, data):
    kernel = data.draw(kernels(basis, sites, REAL_WEIGHTS, kinds=("affine", "zero")))
    assert_gram(kernel, sinc_gram(kernel))
    assert_mercer(kernel, np.random.default_rng(1))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("w3", [-1.65, -1.69, -1.7, -1.71, -1.75])
def test_close_real_frequencies_stay_orthonormal(w3, seed):
    # (x, x, w3 x): site-summed frequencies as close as 0.25 apart make the
    # component Gram nearly singular (smallest eigenvalue 3.8e-14 of the
    # largest at w3 = -1.7)
    maps = (
        PreprocessingFn("coordinate", 1),
        PreprocessingFn("coordinate", 1),
        PreprocessingFn("affine", 1, weights=(w3,)),
    )
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((27, 3)) + 1j * rng.standard_normal((27, 3))
    core = m @ m.conj().T
    kernel = etk_from_feature_set(LocalFeatureSet(maps), core / np.trace(core).real, "T")
    dec, gs = mercer_decompose(kernel)
    assert dec.rank == 3
    assert np.abs(eigenfunction_gram(dec, gs) - np.eye(dec.rank)).max() <= 1e-6
