"""Property tests of the batched Gram path against a per-pair oracle.

The oracle materializes the core with ``dense_core()`` and contracts it with
the Kronecker product of ``local_vectors`` for one pair of points at a time,
so it shares neither the batched feature layer nor the MPO/LPMPO sweeps.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etklab.errors import StructuralError, ValidationError
from etklab.etk import (
    etk_from_feature_set,
    feature_matrix,
    gram_matrix,
    gram_matrix_real,
    linear_sum_etk,
    polynomial_etk,
    shift_invariant_etk,
)
from etklab.feature_maps import LocalFeatureSet, PreprocessingFn, isometry_P
from etklab.learning import cross_gram
from etklab.tensor_core import GRAM_BLOCK_ROWS, LPMPO, MPO

REL_TOL = 1e-12


def oracle(kernel, X, Y):
    core = kernel.dense_core()
    fx = [reduce(np.kron, kernel.local_vectors(x)) for x in X]
    fy = [reduce(np.kron, kernel.local_vectors(y)) for y in Y]
    return np.array([[a.conj() @ core @ b for b in fy] for a in fx])


def assert_close(got, expect):
    scale = np.abs(expect).max()
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= REL_TOL * scale


def random_map(kind, data_dim, site, rng):
    if kind == "coordinate":
        return PreprocessingFn("coordinate", data_dim, index=site % data_dim)
    if kind == "affine":
        return PreprocessingFn(
            "affine", data_dim, weights=tuple(rng.standard_normal(data_dim)),
            bias=float(rng.standard_normal()),
        )
    return PreprocessingFn("zero", data_dim)


def real_core(core_kind, n_sites, rng, chi=2, purification=2):
    """A core with real kernel values in the T basis: real symmetric dense or
    MPO, or a real LPMPO (C = X X^T)."""
    if core_kind == "dense":
        m = rng.standard_normal((3**n_sites, 3**n_sites))
        return m + m.T
    bonds = [1] + [chi] * (n_sites - 1) + [1]
    if core_kind == "mpo":
        sites = [rng.standard_normal((bonds[k], 3, 3, bonds[k + 1])) for k in range(n_sites)]
        return MPO([t + t.transpose(0, 2, 1, 3) for t in sites])
    return LPMPO(
        [rng.standard_normal((bonds[k], 3, purification, bonds[k + 1]))
         for k in range(n_sites)]
    )


def to_e_basis(core):
    """The E-basis core with the same kernel: E = 2 P T per site, so
    C_E = (x)P C_T (x)P^dagger / 4^N."""
    p = isometry_P()
    if isinstance(core, MPO):
        return MPO([np.einsum("rs,asub,cu->arcb", p, t, p.conj()) / 4 for t in core.sites])
    if isinstance(core, LPMPO):
        return LPMPO([np.einsum("rs,asqb->arqb", p, t) / 2 for t in core.sites])
    n_sites = round(np.log(core.shape[0]) / np.log(3))
    p_full = reduce(np.kron, [p] * n_sites)
    return p_full @ core @ p_full.conj().T / 4**n_sites


def feature_set_kernel(core_kind, basis, map_kinds, data_dim, rng):
    fs = LocalFeatureSet(
        tuple(random_map(k, data_dim, i, rng) for i, k in enumerate(map_kinds))
    )
    core = real_core(core_kind, len(map_kinds), rng)
    if basis == "E":
        core = to_e_basis(core)
    return etk_from_feature_set(fs, core, basis=basis)


def callable_kernel(kind, data_dim, rng):
    if kind == "polynomial":
        return polynomial_etk(int(rng.integers(1, 4)), float(rng.uniform(0, 2)), data_dim)
    if kind == "linear_sum":
        parts = [polynomial_etk(k, float(rng.uniform(0, 1)), data_dim) for k in (1, 2)]
        return linear_sum_etk(parts, rng.uniform(0, 2, 2))
    return shift_invariant_etk(rng.uniform(0, 1, int(rng.integers(1, 6))))


def check_grams(kernel, X, Y):
    g = gram_matrix(kernel, list(X))
    assert np.array_equal(g, g.conj().T)
    assert_close(g, oracle(kernel, X, X))
    assert np.array_equal(gram_matrix_real(kernel, X), g.real)
    assert_close(cross_gram(kernel, X, Y), oracle(kernel, X, Y).real)


@pytest.mark.parametrize("basis", ["T", "E"])
@pytest.mark.parametrize("core_kind", ["dense", "mpo", "lpmpo"])
@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    map_kinds=st.lists(st.sampled_from(["coordinate", "affine", "zero"]),
                       min_size=1, max_size=3),
    data_dim=st.integers(1, 3),
    m=st.integers(1, 5),
    m2=st.integers(1, 4),
)
def test_feature_set_kernels_match_oracle(seed, core_kind, basis, map_kinds,
                                          data_dim, m, m2):
    rng = np.random.default_rng(seed)
    kernel = feature_set_kernel(core_kind, basis, map_kinds, data_dim, rng)
    X = rng.uniform(-np.pi, np.pi, (m, data_dim))
    Y = rng.uniform(-np.pi, np.pi, (m2, data_dim))
    check_grams(kernel, X, Y)


@pytest.mark.parametrize("kind", ["polynomial", "linear_sum", "shift_invariant"])
@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    data_dim=st.integers(1, 3),
    m=st.integers(1, 5),
    m2=st.integers(1, 4),
)
def test_callable_feature_kernels_match_oracle(seed, kind, data_dim, m, m2):
    rng = np.random.default_rng(seed)
    kernel = callable_kernel(kind, data_dim, rng)
    X = rng.standard_normal((m, kernel.data_dim))
    Y = rng.standard_normal((m2, kernel.data_dim))
    check_grams(kernel, X, Y)


@pytest.mark.parametrize("core_kind", ["dense", "mpo", "lpmpo"])
def test_more_rows_than_one_block(core_kind):
    rng = np.random.default_rng(7)
    kernel = feature_set_kernel(core_kind, "T", ["coordinate", "affine"], 2, rng)
    X = rng.uniform(-np.pi, np.pi, (GRAM_BLOCK_ROWS + 3, 2))
    Y = rng.uniform(-np.pi, np.pi, (GRAM_BLOCK_ROWS + 1, 2))
    check_grams(kernel, X, Y)


def test_callable_sites_called_once_per_point():
    kernel = polynomial_etk(2, 1.0, 2)
    calls = []
    feat = kernel.site_features[0]
    kernel.site_features = [lambda x: calls.append(1) or feat(x)] * 2
    gram_matrix(kernel, np.zeros((6, 2)))
    assert len(calls) == 2 * 6


def test_feature_matrix_rejects_bad_rows():
    kernel = polynomial_etk(2, 1.0, 2)
    with pytest.raises(StructuralError):
        feature_matrix(kernel, np.zeros((3, 3)))
    with pytest.raises(StructuralError):
        feature_matrix(kernel, np.zeros(2))
    with pytest.raises(ValidationError):
        feature_matrix(kernel, np.array([[0.0, np.nan]]))
    with pytest.raises(ValidationError):
        feature_matrix(kernel, np.array([[np.inf, 0.0]]))
