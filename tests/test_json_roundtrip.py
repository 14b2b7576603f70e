"""Property tests: circuits, dense kernels, MPOs and LPMPOs survive a JSON
round trip exactly.

JSON writes floats by repr, so every entry must come back bit for bit and a
second serialization must reproduce the first text.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from etklab.etk import etk_from_feature_set, etk_from_json, etk_to_json
from etklab.feature_maps import LocalFeatureSet, PreprocessingFn
from etklab.quantum import StandardFormCircuit
from etklab.single_layer import haar_unitary
from etklab.tensor_core import LPMPO, MPO, mpo_from_json, mpo_to_json

FINITE = st.floats(allow_nan=False, allow_infinity=False)
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def maps(draw, input_dim):
    kind = draw(st.sampled_from(["coordinate", "affine", "zero"]))
    if kind == "coordinate":
        return PreprocessingFn(kind, input_dim, index=draw(st.integers(0, input_dim - 1)))
    if kind == "affine":
        weights = tuple(draw(FINITE) for _ in range(input_dim))
        return PreprocessingFn(kind, input_dim, weights=weights, bias=draw(FINITE))
    return PreprocessingFn(kind, input_dim)


@st.composite
def circuits(draw):
    n, layers, dim = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return StandardFormCircuit(
        n=n,
        unitaries=[haar_unitary(n, rng) for _ in range(layers)],
        encodings=[[draw(maps(dim)) for _ in range(n)] for _ in range(layers)],
    )


@st.composite
def dense_kernels(draw):
    basis, sites, dim = draw(st.sampled_from("TE")), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    size = (3 if basis == "T" else 4) ** sites
    core = draw(hnp.arrays(complex, (size, size), elements=COMPLEX))
    fs = LocalFeatureSet(tuple(draw(maps(dim)) for _ in range(sites)))
    return etk_from_feature_set(fs, core, basis, psd_verified=draw(st.booleans()))


@st.composite
def site_tensors(draw):
    """Rank-4 site tensors (chi_l, d, d', chi_r) with open boundary bonds."""
    sites = draw(st.integers(1, 3))
    bonds = [1] + [draw(st.integers(1, 3)) for _ in range(sites - 1)] + [1]
    shapes = [(bonds[k], draw(st.integers(1, 3)), draw(st.integers(1, 3)), bonds[k + 1])
              for k in range(sites)]
    return [draw(hnp.arrays(complex, shape, elements=COMPLEX)) for shape in shapes]


def same_arrays(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
    )


@settings(max_examples=25)
@given(circ=circuits())
def test_circuit_roundtrip(circ):
    text = circ.to_json()
    back = StandardFormCircuit.from_json(text)
    assert back.n == circ.n
    assert same_arrays(back.unitaries, circ.unitaries)
    assert back.encodings == circ.encodings
    assert back.to_json() == text


@settings(max_examples=25)
@given(kernel=dense_kernels())
def test_dense_kernel_roundtrip(kernel):
    text = etk_to_json(kernel)
    back = etk_from_json(text)
    assert np.array_equal(back.core, kernel.core)
    assert back.feature_set == kernel.feature_set
    assert (back.basis, back.psd_verified) == (kernel.basis, kernel.psd_verified)
    assert etk_to_json(back) == text


@settings(max_examples=25)
@given(sites=site_tensors(), lpmpo=st.booleans())
def test_operator_roundtrip(sites, lpmpo):
    op = LPMPO(sites) if lpmpo else MPO(sites)
    text = mpo_to_json(op)
    back = mpo_from_json(text)
    assert type(back) is type(op)
    assert same_arrays(back.sites, op.sites)
    assert mpo_to_json(back) == text
