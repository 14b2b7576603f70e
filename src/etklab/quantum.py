"""Standard-form encoding circuits, a statevector fidelity oracle, and the
extraction pipeline turning a circuit into its exact ETK core.

A standard-form circuit is U(x) = S_L(x) W_L ... S_1(x) W_1 (W_1 acts first),
with fixed unitaries W_j and diagonal encoding layers
S_j(x) = (x)_k e^{-i phi_jk(x) Z_k / 2}.  Qubit 1 is the most significant bit
of the statevector index; layer 1 is the most significant block of the
flattened N = nL site index.

The statevector oracle ``simulate_states`` runs all data rows at once from
the site angles of ``LocalFeatureSet.angles``, as ``etk.feature_matrix`` does,
with qubit signs s = 1 - 2 bit; ``simulate_kernel`` is its two-row case.

The extraction chain turns the operators O', rho and A = O' (Hadamard) rho^T
on 2^N dimensions into the 3^N x 3^N real symmetric PSD core C_T.  O' and rho
are Kronecker products of rank-one factors and one identity I_{2^n}, so
A = U U^dagger with U only 2^N x 2^n wide.  The production route "ptm" (taken
by "auto" for every N <= 7) computes C_T[i, j] = 2^N Tr(P_i A P_j A) over
{I, X, Y} strings from U alone, in O(3^N 2^N 2^n + 9^N 4^n).  The route
"dense" (N <= 5) is the test oracle: it forms the 4^N intermediate
C = A^T (vertical tensor) A and applies the per-site isometry P.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import ResourceCapError, StructuralError, ValidationError
from .etk import EtkKernel, _sample_rows, etk_from_feature_set
from .feature_maps import LocalFeatureSet, PreprocessingFn, int_from_json, isometry_P
from .tensor_core import (
    DEFAULT_DENSE_CAP,
    SiteStructure,
    complex_entries,
    complex_from_entries,
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
            if not np.isfinite(w).all():
                raise ValidationError("fixed unitary entries must be finite")
            if np.abs(w.conj().T @ w - np.eye(dim)).max() > 1e-12:
                raise ValidationError("fixed unitary is not unitary within 1e-12")
        for row in self.encodings:
            if len(row) != self.n:
                raise StructuralError("each layer needs n pre-processing functions")
        self.feature_set()  # all encodings must share the data dimension

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "L": self.num_layers,
                "W": [complex_entries(w) for w in self.unitaries],
                "phi": [
                    [fn.to_json_dict() for fn in row] for row in self.encodings
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "StandardFormCircuit":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"circuit JSON is malformed: {exc}") from exc
        n = int_from_json(d["n"], "circuit field n")
        ws = [
            complex_from_entries(flat, (2**n, 2**n), f"circuit field W[{j}]")
            for j, flat in enumerate(d["W"])
        ]
        encodings = [
            [PreprocessingFn.from_json_dict(f, f"circuit field phi[{j}][{q}]")
             for q, f in enumerate(row)]
            for j, row in enumerate(d["phi"])
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


def simulate_states(
    circ: StandardFormCircuit, X, cap_qubits: int = STATEVECTOR_CAP_QUBITS
) -> np.ndarray:
    """States U(x)|0> of every row of X, as an (m, 2^n) array.

    Each layer is one matmul and one phase multiply on all rows, v <- (v @
    W_j^T) * exp(-i/2 Phi_j s^T), with Phi_j layer j's (m, n) site angles and
    s the (2^n, n) qubit signs s = 1 - 2 bit, qubit 1 the most significant.
    """
    if circ.n > cap_qubits:
        raise ResourceCapError(f"{circ.n} qubits exceeds statevector cap {cap_qubits}")
    X = _sample_rows(X, circ.data_dim)
    phi = circ.feature_set().angles(X).reshape(len(X), circ.num_layers, circ.n)
    signs = 1 - 2 * ((np.arange(2**circ.n)[:, None] >> np.arange(circ.n)[::-1]) & 1)
    v = np.zeros((len(X), 2**circ.n), dtype=complex)
    v[:, 0] = 1.0
    for j, w in enumerate(circ.unitaries):
        v = (v @ w.T) * np.exp(-0.5j * (phi[:, j] @ signs.T))
    return v


def simulate_kernel(
    circ: StandardFormCircuit, x, x2, cap_qubits: int = STATEVECTOR_CAP_QUBITS
) -> float:
    """Fidelity |<0| U(x)^dag U(x') |0>|^2, the two-row case of simulate_states."""
    v = simulate_states(circ, [x, x2], cap_qubits)
    return float(abs(np.vdot(v[0], v[1])) ** 2)


# ---------------------------------------------------------------------------
# Extraction chain

def _check_site_cap(num_sites: int, cap: int, what: str):
    if (2**num_sites) ** 2 > cap:
        raise ResourceCapError(
            f"{what} on {num_sites} sites exceeds the dense cap {cap}"
        )


def _O_prime_factor(circ: StandardFormCircuit) -> np.ndarray:
    """V_O with O' = V_O V_O^dagger: the Kronecker product of one column
    (W_{2j}^dagger (x) I)|Phi> per layer pair, |Phi> = sum_i |ii>, then
    I_{2^n} when L is odd."""
    eye = [np.eye(2**circ.n, dtype=complex)] if circ.num_layers % 2 else []
    cols = [w.conj().T.reshape(-1, 1) for w in circ.unitaries[1::2]]
    return reduce(np.kron, cols + eye)


def _rho_factor(circ: StandardFormCircuit) -> np.ndarray:
    """V_rho with rho = V_rho V_rho^dagger: the Kronecker product of
    psi = W_1|0>, one column (I (x) W_{2j+1})|Phi> per layer pair, then
    I_{2^n} when L is even."""
    eye = [] if circ.num_layers % 2 else [np.eye(2**circ.n, dtype=complex)]
    cols = [w.T.reshape(-1, 1) for w in circ.unitaries[2::2]]
    return reduce(np.kron, [circ.unitaries[0][:, :1]] + cols + eye)


def build_O_prime(circ: StandardFormCircuit, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Fixed-unitary observable O' on 2^N; Hermitian PSD."""
    _check_site_cap(circ.num_sites, cap, "O'")
    v = _O_prime_factor(circ)
    return v @ v.conj().T


def build_rho(circ: StandardFormCircuit, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Initial-state operator rho on 2^N; Hermitian PSD."""
    _check_site_cap(circ.num_sites, cap, "rho")
    v = _rho_factor(circ)
    return v @ v.conj().T


def build_A(circ: StandardFormCircuit, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """A = O' (Hadamard) rho^T; Hermitian PSD by the Schur product theorem."""
    return hadamard_product(build_O_prime(circ, cap), build_rho(circ, cap).T)


def factor_A(circ: StandardFormCircuit) -> np.ndarray:
    """U (2^N x 2^n) with A = U U^dagger: U[r, (s, t)] = V_O[r, s] conj(V_rho[r, t]).

    Exactly one of V_O, V_rho carries the factor I_{2^n}; the other is one
    column, so rank(A) <= 2^n.
    """
    vo, vr = _O_prime_factor(circ), _rho_factor(circ)
    return (vo[:, :, None] * vr.conj()[:, None, :]).reshape(vo.shape[0], -1)


def full_diag_vector(circ: StandardFormCircuit, x: np.ndarray) -> np.ndarray:
    """Diagonal of S(x): kron over sites k of (e^{-i phi_k/2}, e^{i phi_k/2})."""
    phi = circ.feature_set().angles(np.asarray(x, dtype=float)[None])[0]
    return reduce(np.kron, [np.exp([-0.5j * p, 0.5j * p]) for p in phi])


def trace_form_kernel(circ: StandardFormCircuit, x, x2) -> float:
    """|Tr[rho S^dag(x) O' S(x')]|^2 = |<S(x)| A |S(x')>|^2 (oracle route)."""
    a = build_A(circ)
    s1, s2 = full_diag_vector(circ, x), full_diag_vector(circ, x2)
    return float(abs(s1.conj() @ a @ s2) ** 2)


# Per site, (sigma v)[b] = phase[t, b] v[src[t, b]] for sigma_t in (I, X, Y).
_SITE_SRC = np.array([[0, 1], [1, 0], [1, 0]])
_SITE_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j]])


def _pauli_rows(num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase), both (3^N, 2^N), with (P_i v)[r] = phase[i, r] v[src[i, r]]
    for every string i over {I, X, Y}; site 1 is the most significant digit
    of both i and r."""
    src = np.zeros((1, 1), dtype=np.intp)
    phase = np.ones((1, 1), dtype=complex)
    for _ in range(num_sites):
        src = 2 * src[:, None, :, None] + _SITE_SRC[None, :, None, :]
        src = src.reshape(3 * phase.shape[0], -1)
        phase = np.kron(phase, _SITE_PHASE)
    return src, phase


def build_core_CT(
    circ: StandardFormCircuit,
    route: str = "ptm",
    cap: int = DEFAULT_DENSE_CAP,
) -> np.ndarray:
    """Real symmetric PSD core C_T (3^N x 3^N) of the circuit's ETK.

    Route "ptm": C_T[i, j] = 2^N Tr(P_i A P_j A) = 2^N Tr(E_i E_j) with
    E_i = U^dagger P_i U from A = U U^dagger (``factor_A``), so
    C_T = 2^N Re(E E^dagger) for E reshaped to (3^N, 4^n); cost
    O(3^N 2^N 2^n + 9^N 4^n).  E is built in blocks of at most 3^N x 2^N
    entries, which is one block unless L = 1.  Route "dense" (the oracle)
    contracts the 4^N intermediate C = A^T (vertical tensor) A with the
    per-site isometry P.
    """
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
        u = factor_A(circ)
        src, phase = _pauli_rows(num_sites)
        rows, dim = u.shape
        step = max(1, rows // dim)  # blocks of E hold at most 3^N x 2^N
        ct = None
        for a0 in range(0, dim, step):
            # rows a0 .. a0 + step - 1 of every E_i, gathered for all i at once
            e = np.hstack(
                [(phase * u[src, a]).conj() @ u for a in range(a0, min(a0 + step, dim))]
            )
            block = e @ e.conj().T
            ct = block if ct is None else ct + block
        ct *= 2.0**num_sites
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
    kernel reproduces the statevector fidelity.  Route "auto" is "ptm"."""
    if route == "auto":
        route = "ptm"
    ct = build_core_CT(circ, route=route, cap=cap)
    return etk_from_feature_set(
        circ.feature_set(), ct.astype(complex), basis="T", psd_verified=True
    )
