"""Standard-form encoding circuits, a statevector fidelity oracle, and the
extraction pipeline turning a circuit into its exact ETK core.

A standard-form circuit is U(x) = S_L(x) W_L ... S_1(x) W_1 (W_1 acts first),
with fixed unitaries W_j and diagonal encoding layers
S_j(x) = (x)_k e^{-i phi_jk(x) Z_k / 2}.  Qubit 1 is the most significant bit
of the statevector index; layer 1 is the most significant block of the
flattened N = nL site index.

The extraction chain builds dense operators O', rho, A = O' (Hadamard) rho^T
on 2^N dimensions, then the 3^N x 3^N real symmetric PSD core C_T, either via
the 4^N intermediate C = A^T (vertical tensor) A and the per-site isometry P,
or via rescaled Pauli-transfer-matrix traces over {I, X, Y} strings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import ResourceCapError, StructuralError, ValidationError
from .etk import EtkKernel, etk_from_feature_set
from .feature_maps import LocalFeatureSet, PreprocessingFn, isometry_P
from .tensor_core import (
    DEFAULT_DENSE_CAP,
    SiteStructure,
    hadamard_product,
    vertical_tensor_product,
)

STATEVECTOR_CAP_QUBITS = 12
DENSE_ROUTE_MAX_SITES = 5
PTM_ROUTE_MAX_SITES = 7


@dataclass
class StandardFormCircuit:
    """n qubits, L layers: fixed unitaries W_j and an L x n encoding grid."""

    n: int
    unitaries: list[np.ndarray]
    encodings: list[list[PreprocessingFn]]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one qubit")
        dim = 2**self.n
        self.unitaries = [np.asarray(w, dtype=complex) for w in self.unitaries]
        if len(self.unitaries) != len(self.encodings):
            raise StructuralError("one encoding row per layer required")
        for w in self.unitaries:
            if w.shape != (dim, dim):
                raise StructuralError(f"unitary must be {dim}x{dim}")
            if np.abs(w.conj().T @ w - np.eye(dim)).max() > 1e-12:
                raise ValidationError("fixed unitary is not unitary within 1e-12")
        for row in self.encodings:
            if len(row) != self.n:
                raise StructuralError("each layer needs n pre-processing functions")
        dims = {fn.input_dim for row in self.encodings for fn in row}
        if len(dims) != 1:
            raise ValidationError("all encodings must share the data dimension")

    @property
    def num_layers(self) -> int:
        return len(self.unitaries)

    @property
    def num_sites(self) -> int:
        return self.n * self.num_layers

    @property
    def data_dim(self) -> int:
        return self.encodings[0][0].input_dim

    def feature_set(self) -> LocalFeatureSet:
        """Flattened layer-major site order: k = (j-1) n + qubit."""
        return LocalFeatureSet(
            tuple(fn for row in self.encodings for fn in row)
        )

    def layer_diag(self, j: int, x: np.ndarray) -> np.ndarray:
        """Diagonal of S_j(x) as a 2^n vector (qubit 1 most significant)."""
        d = np.ones(1, dtype=complex)
        for fn in self.encodings[j]:
            phi = fn(x)
            d = np.kron(d, np.array([np.exp(-1j * phi / 2), np.exp(1j * phi / 2)]))
        return d

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "L": self.num_layers,
                "W": [
                    np.column_stack([w.real.ravel(), w.imag.ravel()])
                    .ravel()
                    .tolist()
                    for w in self.unitaries
                ],
                "phi": [
                    [fn.to_json_dict() for fn in row] for row in self.encodings
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "StandardFormCircuit":
        d = json.loads(text)
        n = int(d["n"])
        dim = 2**n
        ws = []
        for j, flat in enumerate(d["W"]):
            arr = np.asarray(flat, dtype=float)
            if arr.shape != (2 * dim * dim,):
                raise StructuralError(
                    f"circuit field W[{j}] must hold 2*4^n = {2 * dim * dim} "
                    f"floats, got shape {arr.shape}"
                )
            ws.append((arr[0::2] + 1j * arr[1::2]).reshape(dim, dim))
        encodings = [
            [PreprocessingFn.from_json_dict(f) for f in row] for row in d["phi"]
        ]
        return cls(n=n, unitaries=ws, encodings=encodings)


def coordinate_circuit(
    n: int,
    unitaries: list[np.ndarray],
    data_dim: Optional[int] = None,
) -> StandardFormCircuit:
    """Circuit whose site k reads coordinate k mod data_dim.

    With the default data_dim = n * L every site gets its own coordinate;
    smaller values of data_dim repeat coordinates across sites.
    """
    num_layers = len(unitaries)
    if data_dim is None:
        data_dim = n * num_layers
    encodings = [
        [
            PreprocessingFn(
                kind="coordinate", input_dim=data_dim, index=(j * n + q) % data_dim
            )
            for q in range(n)
        ]
        for j in range(num_layers)
    ]
    return StandardFormCircuit(n=n, unitaries=unitaries, encodings=encodings)


def simulate_kernel(
    circ: StandardFormCircuit,
    x: np.ndarray,
    x2: np.ndarray,
    cap_qubits: int = STATEVECTOR_CAP_QUBITS,
) -> float:
    """Fidelity kernel |<0| U(x)^dag U(x') |0>|^2 by exact statevector."""
    if circ.n > cap_qubits:
        raise ResourceCapError(
            f"{circ.n} qubits exceeds statevector cap {cap_qubits}"
        )
    v1 = _run_circuit(circ, np.asarray(x, dtype=float))
    v2 = _run_circuit(circ, np.asarray(x2, dtype=float))
    return float(abs(np.vdot(v1, v2)) ** 2)


def _run_circuit(circ: StandardFormCircuit, x: np.ndarray) -> np.ndarray:
    v = np.zeros(2**circ.n, dtype=complex)
    v[0] = 1.0
    for j in range(circ.num_layers):
        v = circ.unitaries[j] @ v
        v = circ.layer_diag(j, x) * v
    return v


# ---------------------------------------------------------------------------
# Extraction chain

def _phi_projector(n: int) -> np.ndarray:
    """Unnormalized maximally entangled |Phi><Phi| = sum |ii><jj| on 2n qubits."""
    dim = 2**n
    vec = np.eye(dim, dtype=complex).ravel()  # |Phi> = sum_i |i>|i>
    return np.outer(vec, vec)


def _check_site_cap(num_sites: int, cap: int, what: str):
    if (2**num_sites) ** 2 > cap:
        raise ResourceCapError(
            f"{what} on {num_sites} sites exceeds the dense cap {cap}"
        )


def build_O_prime(circ: StandardFormCircuit, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Fixed-unitary observable O' on 2^N; Hermitian PSD."""
    n, L = circ.n, circ.num_layers
    _check_site_cap(circ.num_sites, cap, "O'")
    ident = np.eye(2**n, dtype=complex)
    phi = _phi_projector(n)
    factors = []
    for j in range(1, (L - 1) // 2 + 1 if L % 2 else L // 2 + 1):
        w = circ.unitaries[2 * j - 1]  # W_{2j}
        m = np.kron(w.conj().T, ident) @ phi @ np.kron(w, ident)
        factors.append(m)
    if L % 2:
        factors.append(ident)
    return reduce(np.kron, factors)


def build_rho(circ: StandardFormCircuit, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Initial-state operator rho on 2^N; Hermitian PSD."""
    n, L = circ.n, circ.num_layers
    _check_site_cap(circ.num_sites, cap, "rho")
    ident = np.eye(2**n, dtype=complex)
    phi = _phi_projector(n)
    w1 = circ.unitaries[0]
    psi = w1[:, 0]
    factors = [np.outer(psi, psi.conj())]
    upper = (L - 1) // 2 if L % 2 else L // 2 - 1
    for j in range(1, upper + 1):
        w = circ.unitaries[2 * j]  # W_{2j+1}
        m = np.kron(ident, w) @ phi @ np.kron(ident, w.conj().T)
        factors.append(m)
    if L % 2 == 0:
        factors.append(ident)
    return reduce(np.kron, factors)


def build_A(circ: StandardFormCircuit, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """A = O' (Hadamard) rho^T; Hermitian PSD by the Schur product theorem."""
    return hadamard_product(build_O_prime(circ, cap), build_rho(circ, cap).T)


def full_diag_vector(circ: StandardFormCircuit, x: np.ndarray) -> np.ndarray:
    """Diagonal of S(x) = (x)_j S_j(x) as a 2^N vector."""
    x = np.asarray(x, dtype=float)
    return reduce(
        np.kron, [circ.layer_diag(j, x) for j in range(circ.num_layers)]
    )


def trace_form_kernel(circ: StandardFormCircuit, x, x2) -> float:
    """|Tr[rho S^dag(x) O' S(x')]|^2 = |<S(x)| A |S(x')>|^2 (oracle route)."""
    a = build_A(circ)
    s1 = full_diag_vector(circ, np.asarray(x, dtype=float))
    s2 = full_diag_vector(circ, np.asarray(x2, dtype=float))
    return float(abs(s1.conj() @ a @ s2) ** 2)


def _trit_strings(num_sites: int) -> np.ndarray:
    """(3^N, N) array of trit digits, site 1 most significant."""
    idx = np.arange(3**num_sites)
    out = np.empty((idx.size, num_sites), dtype=np.int64)
    for k in range(num_sites - 1, -1, -1):
        out[:, k] = idx % 3
        idx = idx // 3
    return out


def _pauli_apply_block(
    a: np.ndarray, trits: np.ndarray, transpose: bool
) -> np.ndarray:
    """Rows vec(P_i A) (or vec((P_i A)^T)) for a block of {I,X,Y} strings.

    Left-multiplying by a Pauli string over {I, X, Y} is a row permutation
    with phases: X flips a bit; Y flips a bit with phase -i (bit 0) / +i.
    """
    num_sites = trits.shape[1]
    dim = 2**num_sites
    rows = np.arange(dim)
    bit_vals = 1 << np.arange(num_sites - 1, -1, -1)  # site 1 most significant
    out = np.empty((trits.shape[0], dim * dim), dtype=complex)
    for t in range(trits.shape[0]):
        s = trits[t]
        flip = int(np.sum(bit_vals[s != 0]))
        ymask = int(np.sum(bit_vals[s == 2]))
        ny = int(np.count_nonzero(s == 2))
        parity = _popcount(rows & ymask) & 1
        phases = ((-1.0) ** parity) * ((-1j) ** ny)
        b = phases[:, None] * a[rows ^ flip, :]
        out[t] = (b.T if transpose else b).ravel()
    return out


def _popcount(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    v = arr.copy()
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


def build_core_CT(
    circ: StandardFormCircuit,
    route: str = "ptm",
    cap: int = DEFAULT_DENSE_CAP,
    chunk: int = 256,
) -> np.ndarray:
    """Real symmetric PSD core C_T (3^N x 3^N) of the circuit's ETK."""
    num_sites = circ.num_sites
    if route == "dense":
        if num_sites > DENSE_ROUTE_MAX_SITES:
            raise ResourceCapError(
                f"dense route supports up to {DENSE_ROUTE_MAX_SITES} sites "
                f"(got {num_sites}); try route='ptm'"
            )
        a = build_A(circ, cap)
        structure = SiteStructure((2,) * num_sites)
        c = vertical_tensor_product(a.T, a, structure)
        p_full = reduce(np.kron, [isometry_P()] * num_sites)
        ct = (4**num_sites) * (p_full.conj().T @ c @ p_full)
    elif route == "ptm":
        if num_sites > PTM_ROUTE_MAX_SITES:
            raise ResourceCapError(
                f"ptm route supports up to {PTM_ROUTE_MAX_SITES} sites "
                f"(got {num_sites})"
            )
        a = build_A(circ, cap)
        trits = _trit_strings(num_sites)
        m = trits.shape[0]
        ct = np.empty((m, m), dtype=complex)
        scale = float(2**num_sites)
        for i0 in range(0, m, chunk):
            v1 = _pauli_apply_block(a, trits[i0 : i0 + chunk], transpose=False)
            for j0 in range(0, m, chunk):
                v2 = _pauli_apply_block(a, trits[j0 : j0 + chunk], transpose=True)
                ct[i0 : i0 + chunk, j0 : j0 + chunk] = scale * (v1 @ v2.T)
    else:
        raise ValidationError(f"unknown route {route!r}")
    imag = np.abs(ct.imag).max()
    scale = max(np.abs(ct).max(), 1e-300)
    if imag > 1e-9 * scale:
        raise ValidationError(f"core has unexpected imaginary part {imag:.3e}")
    ct = ct.real
    return (ct + ct.T) / 2.0


def etk_from_circuit(
    circ: StandardFormCircuit, route: str = "auto", cap: int = DEFAULT_DENSE_CAP
) -> EtkKernel:
    """Exact ETK with trig local features and core C_T; evaluation of this
    kernel reproduces the statevector fidelity."""
    if route == "auto":
        route = "dense" if circ.num_sites <= DENSE_ROUTE_MAX_SITES else "ptm"
    ct = build_core_CT(circ, route=route, cap=cap)
    return etk_from_feature_set(
        circ.feature_set(), ct.astype(complex), basis="T", psd_verified=True
    )
