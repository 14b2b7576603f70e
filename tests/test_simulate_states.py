"""Property tests of the batched statevector ``simulate_states``.

The reference builds U(x) = S_L(x) W_L ... S_1(x) W_1 as a dense 2^n x 2^n
matrix for one row at a time, with S_j(x) the Kronecker product of the
single-qubit rotations e^{-i phi Z / 2}, and reads off its first column.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etklab.errors import StructuralError, ValidationError
from etklab.feature_maps import PreprocessingFn
from etklab.quantum import (
    StandardFormCircuit,
    simulate_kernel,
    simulate_states,
    trace_form_kernel,
)
from etklab.single_layer import haar_unitary

seeds = st.integers(0, 2**32 - 1)
shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))
data_dims = st.integers(1, 3)


def random_map(data_dim, rng):
    kind = rng.choice(["coordinate", "affine", "zero"])
    if kind == "coordinate":  # data_dim < n L repeats coordinates
        index = int(rng.integers(data_dim))
        return PreprocessingFn("coordinate", data_dim, index=index)
    if kind == "affine":
        return PreprocessingFn(
            "affine", data_dim, weights=tuple(rng.standard_normal(data_dim)),
            bias=float(rng.standard_normal()),
        )
    return PreprocessingFn("zero", data_dim)


def random_circuit(seed, shape, data_dim):
    rng = np.random.default_rng(seed)
    n, layers = shape
    return StandardFormCircuit(
        n=n,
        unitaries=[haar_unitary(n, rng) for _ in range(layers)],
        encodings=[
            [random_map(data_dim, rng) for _ in range(n)] for _ in range(layers)
        ],
    ), rng


def reference_state(circ, x):
    u = np.eye(2**circ.n, dtype=complex)
    for w, row in zip(circ.unitaries, circ.encodings):
        rotations = [np.diag(np.exp([-0.5j * fn(x), 0.5j * fn(x)])) for fn in row]
        s = reduce(np.kron, rotations)
        u = s @ w @ u
    return u[:, 0]


def points(circ, rng, m):
    return rng.uniform(-np.pi, np.pi, (m, circ.data_dim))


@settings(max_examples=20)
@given(seed=seeds, shape=shapes, data_dim=data_dims, m=st.integers(1, 4))
def test_rows_match_dense_reference(seed, shape, data_dim, m):
    circ, rng = random_circuit(seed, shape, data_dim)
    X = points(circ, rng, m)
    states = simulate_states(circ, X)
    assert states.shape == (m, 2**circ.n)
    expect = np.array([reference_state(circ, x) for x in X])
    assert np.abs(states - expect).max() <= 1e-13


@settings(max_examples=20)
@given(seed=seeds, shape=shapes, data_dim=data_dims, m=st.integers(2, 5))
def test_batch_matches_one_row_calls(seed, shape, data_dim, m):
    circ, rng = random_circuit(seed, shape, data_dim)
    X = points(circ, rng, m)
    one_row = np.vstack([simulate_states(circ, x[None]) for x in X])
    assert np.abs(simulate_states(circ, X) - one_row).max() <= 1e-13


@settings(max_examples=20)
@given(seed=seeds, shape=shapes, data_dim=data_dims)
def test_kernel_matches_trace_form(seed, shape, data_dim):
    circ, rng = random_circuit(seed, shape, data_dim)
    for x, x2 in points(circ, rng, 6).reshape(3, 2, -1):
        expect = trace_form_kernel(circ, x, x2)
        assert abs(simulate_kernel(circ, x, x2) - expect) <= 1e-12


def test_bad_rows_raise():
    circ, rng = random_circuit(5, (2, 2), 3)
    X = points(circ, rng, 3)
    with pytest.raises(StructuralError):
        simulate_states(circ, X[:, :2])
    X[1, 0] = np.nan
    with pytest.raises(ValidationError):
        simulate_states(circ, X)
