"""Standard-form encoding circuits, a statevector fidelity oracle, and the
extraction pipeline turning a circuit into its exact ETK core.

A standard-form circuit is U(x) = S_L(x) W_L ... S_1(x) W_1 (W_1 acts first),
with fixed unitaries W_j and diagonal encoding layers
S_j(x) = (x)_k e^{-i phi_jk(x) Z_k / 2}.  Qubit 1 is the most significant bit
of the statevector index; layer 1 is the most significant block of the
flattened N = nL site index.

``site_states`` runs the circuit at given (m, N) site angles, all rows at
once, with qubit signs s = 1 - 2 bit.  The statevector oracle
``simulate_states`` is its case at the site angles of data rows
(``LocalFeatureSet.angles``, as ``etk.feature_matrix`` uses), and
``simulate_kernel`` is the two-row case of that.

``build_core_CT`` builds the 3^N x 3^N real symmetric PSD core C_T, N <= 7,
by exact interpolation.  With one angle per site,
K(phi, phi') = t(phi)^(x)N^T C_T t(phi')^(x)N for t = (1, cos, sin)/sqrt(2),
so the kernel on the 3^N grid of site angles g = (0, 2pi/3, 4pi/3) per site
fixes C_T through the invertible 3 x 3 matrix T of rows t(g_a).  It needs
only the 3^N grid states.  Best of 3 on 2 vCPUs it takes 0.01-0.03 s at
N = 6, 0.12-0.19 s for n = 1, L = 7 and 0.36-0.6 s for n = 7, L = 1.  The
tests check it against a dense oracle that shares no code with it (the 4^N
vertical tensor product of A = O' (Hadamard) rho^T, in tests/oracles.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ResourceCapError, StructuralError, ValidationError
from .etk import EtkKernel, _sample_rows, etk_from_feature_set
from .feature_maps import LocalFeatureSet, PreprocessingFn, int_from_json, trig_features
from .tensor_core import complex_entries, complex_from_entries

STATEVECTOR_CAP_QUBITS = 12
DENSE_ROUTE_MAX_SITES = 5  # the dense test oracle's limit; the bench reads it
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


def site_states(
    circ: StandardFormCircuit, phi, cap_qubits: int = STATEVECTOR_CAP_QUBITS
) -> np.ndarray:
    """States U|0> at the (m, N) site angles phi, as an (m, 2^n) array.

    Each layer is one matmul and one phase multiply on all rows, v <- (v @
    W_j^T) * exp(-i/2 Phi_j s^T), with Phi_j layer j's (m, n) site angles and
    s the (2^n, n) qubit signs s = 1 - 2 bit, qubit 1 the most significant.
    """
    if circ.n > cap_qubits:
        raise ResourceCapError(f"{circ.n} qubits exceeds statevector cap {cap_qubits}")
    phi = np.asarray(phi, dtype=float).reshape(-1, circ.num_layers, circ.n)
    signs = 1 - 2 * ((np.arange(2**circ.n)[:, None] >> np.arange(circ.n)[::-1]) & 1)
    v = np.zeros((len(phi), 2**circ.n), dtype=complex)
    v[:, 0] = 1.0
    for j, w in enumerate(circ.unitaries):
        v = (v @ w.T) * np.exp(-0.5j * (phi[:, j] @ signs.T))
    return v


def simulate_states(
    circ: StandardFormCircuit, X, cap_qubits: int = STATEVECTOR_CAP_QUBITS
) -> np.ndarray:
    """States U(x)|0> of every row of X, as an (m, 2^n) array: site_states at
    the rows' site angles."""
    X = _sample_rows(X, circ.data_dim)
    return site_states(circ, circ.feature_set().angles(X), cap_qubits)


def simulate_kernel(
    circ: StandardFormCircuit, x, x2, cap_qubits: int = STATEVECTOR_CAP_QUBITS
) -> float:
    """Fidelity |<0| U(x)^dag U(x') |0>|^2, the two-row case of simulate_states."""
    v = simulate_states(circ, [x, x2], cap_qubits)
    return float(abs(np.vdot(v[0], v[1])) ** 2)


# ---------------------------------------------------------------------------
# Extraction

# Site-angle grid g = (0, 2pi/3, 4pi/3) and the inverse of T, whose row a is
# the local feature t(g_a) = (1, cos g_a, sin g_a)/sqrt(2).
_GRID = 2.0 * np.pi / 3.0 * np.arange(3)
_T_INV = np.linalg.inv(trig_features(_GRID))


def _per_site(m: np.ndarray, x: np.ndarray, num_sites: int) -> np.ndarray:
    """(m (x) ... (x) m) @ x for a 3 x 3 m and x with 3^N rows, one site at a
    time; site 1 is the most significant digit of the row index."""
    cols = x.shape[1]
    for k in range(num_sites):
        x = m @ x.reshape(3**k, 3, -1)
    return x.reshape(-1, cols)


def build_core_CT(circ: StandardFormCircuit) -> np.ndarray:
    """Real symmetric PSD core C_T (3^N x 3^N) of the circuit's ETK, N <= 7.

    Interpolation on the 3^N grid of site angles g^N: each site angle enters
    the kernel only at frequencies -1, 0, 1, so
    K_grid = T^(x)N C_T T^(x)N^T fixes C_T = (T^-1)^(x)N K_grid (T^-1)^(x)N^T,
    with T^-1 applied one site at a time.  K_grid = Z Z^dagger, where row g
    of Z is psi(g) (x) conj psi(g) for the grid states psi(g) = U(g)|0>.
    When 4^n < 3^N (L >= 2), C_T = F F^dagger with F = (T^-1)^(x)N Z
    (3^N x 4^n), in O(9^N 4^n); otherwise (L = 1) T^-1 goes on both sides of
    K_grid = |conj(V) V^T|^2 itself, in O(9^N (2^n + N)).
    """
    num_sites = circ.num_sites
    if num_sites > PTM_ROUTE_MAX_SITES:
        raise ResourceCapError(
            f"circuit extraction supports up to {PTM_ROUTE_MAX_SITES} sites "
            f"(got {num_sites})"
        )
    grid = _GRID[np.indices((3,) * num_sites).reshape(num_sites, -1).T]
    v = site_states(circ, grid)
    if 4**circ.n < 3**num_sites:
        z = (v[:, :, None] * v.conj()[:, None, :]).reshape(len(v), -1)
        f = _per_site(_T_INV, z, num_sites)
        ct = f @ f.conj().T
    else:
        k_grid = np.abs(v.conj() @ v.T) ** 2
        ct = _per_site(_T_INV, _per_site(_T_INV, k_grid, num_sites).T, num_sites)
    imag = np.abs(ct.imag).max()
    scale = max(np.abs(ct).max(), 1e-300)
    if imag > 1e-9 * scale:
        raise ValidationError(f"core has unexpected imaginary part {imag:.3e}")
    ct = ct.real
    return (ct + ct.T) / 2.0


def etk_from_circuit(circ: StandardFormCircuit) -> EtkKernel:
    """Exact ETK with trig local features and core C_T; evaluation of this
    kernel reproduces the statevector fidelity."""
    ct = build_core_CT(circ)
    return etk_from_feature_set(
        circ.feature_set(), ct.astype(complex), basis="T", psd_verified=True
    )
