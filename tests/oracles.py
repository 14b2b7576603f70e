"""Test oracles: independent routes to what etklab computes in production.

Each oracle here reaches the same result as a production path by a different
construction, so that a bug in one does not pass both:

* the dense circuit route, ``dense_core_CT``: C_T from the 4^N intermediate
  C = A^T (vertical tensor) A with A = O' (Hadamard) rho^T, contracted with
  the per-site isometry P.  It shares no code with
  ``quantum.build_core_CT``, which interpolates on the 3^N site-angle grid;
* the trace form of the circuit kernel, ``trace_form_kernel``,
  |<S(x)| A |S(x')>|^2 on the 2^N diagonal of the encoding layers, against
  the statevector fidelity;
* the paper's four-step Mercer construction, against
  ``mercer.mercer_decompose``'s one eigenproblem: (1) Gram-Schmidt of the
  components in coefficient space, detecting linear dependence
  (``gram_schmidt_basis``); (2) padding of the orthonormalizing map to an
  invertible lower-triangular L (``pad_L``); (3) the core transform
  C_hat = (L^dag)^{-1} C L^{-1}, truncated to the independent block
  (``transform_truncate``); (4) diagonalization (``diagonalize``);
* the per-row loop of ``single_layer._canonical_positive``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from etklab.errors import ResourceCapError, StructuralError, ValidationError
from etklab.mercer import FunctionBasis, MercerDecomposition
from etklab.quantum import DENSE_ROUTE_MAX_SITES, StandardFormCircuit
from etklab.tensor_core import SiteStructure


def is_hermitian(m: np.ndarray, rtol: float = 1e-12) -> bool:
    scale = max(np.abs(m).max(), 1e-300)
    return np.abs(m - m.conj().T).max() <= rtol * scale


def isometry_P() -> np.ndarray:
    """The constant 4x3 isometry with E = 2 P T; satisfies P^dag P = I_3.

    Columns are the column-major vectorizations of I, X, Y over sqrt(2).
    """
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0j],
            [0.0, 1.0, -1.0j],
            [1.0, 0.0, 0.0],
        ],
        dtype=complex,
    ) / np.sqrt(2.0)


def vertical_tensor_product(
    a: np.ndarray, b: np.ndarray, structure: SiteStructure
) -> np.ndarray:
    """Site-interleaving tensor product: odd legs of the result index a,
    even legs index b.  Equals P (a kron b) P^T for the interleaving
    permutation P."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dims = structure.local_dims
    total = structure.total_dim
    if a.shape != (total, total) or b.shape != (total, total):
        raise StructuralError("operands must be square with matching site dims")
    n = len(dims)
    k = np.kron(a, b)
    # rows of kron(a, b): (a-site legs..., b-site legs...); interleave them
    t = k.reshape(dims + dims + dims + dims)
    order = []
    for i in range(n):
        order += [i, n + i]
    order += [2 * n + j for j in order[: 2 * n]]
    t = np.transpose(t, order)
    return t.reshape(total * total, total * total)


def hadamard_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise StructuralError(f"shape mismatch {a.shape} vs {b.shape}")
    return a * b


# ---------------------------------------------------------------------------
# The dense circuit route

def build_O_prime(circ: StandardFormCircuit) -> np.ndarray:
    """Fixed-unitary observable O' = V V^dagger on 2^N; Hermitian PSD.  V is
    the Kronecker product of one column (W_{2j}^dagger (x) I)|Phi> per layer
    pair, |Phi> = sum_i |ii>, then I_{2^n} when L is odd."""
    eye = [np.eye(2**circ.n, dtype=complex)] if circ.num_layers % 2 else []
    v = reduce(np.kron, [w.conj().T.reshape(-1, 1) for w in circ.unitaries[1::2]] + eye)
    return v @ v.conj().T


def build_rho(circ: StandardFormCircuit) -> np.ndarray:
    """Initial-state operator rho = V V^dagger on 2^N; Hermitian PSD.  V is
    the Kronecker product of psi = W_1|0>, one column (I (x) W_{2j+1})|Phi>
    per layer pair, then I_{2^n} when L is even."""
    eye = [] if circ.num_layers % 2 else [np.eye(2**circ.n, dtype=complex)]
    cols = [w.T.reshape(-1, 1) for w in circ.unitaries[2::2]]
    v = reduce(np.kron, [circ.unitaries[0][:, :1]] + cols + eye)
    return v @ v.conj().T


def build_A(circ: StandardFormCircuit) -> np.ndarray:
    """A = O' (Hadamard) rho^T; Hermitian PSD by the Schur product theorem."""
    return hadamard_product(build_O_prime(circ), build_rho(circ).T)


def full_diag_vector(circ: StandardFormCircuit, x: np.ndarray) -> np.ndarray:
    """Diagonal of S(x): kron over sites k of (e^{-i phi_k/2}, e^{i phi_k/2})."""
    phi = circ.feature_set().angles(np.asarray(x, dtype=float)[None])[0]
    return reduce(np.kron, [np.exp([-0.5j * p, 0.5j * p]) for p in phi])


def trace_form_kernel(circ: StandardFormCircuit, x, x2) -> float:
    """|Tr[rho S^dag(x) O' S(x')]|^2 = |<S(x)| A |S(x')>|^2."""
    a = build_A(circ)
    s1, s2 = full_diag_vector(circ, x), full_diag_vector(circ, x2)
    return float(abs(s1.conj() @ a @ s2) ** 2)


def dense_core_CT(circ: StandardFormCircuit) -> np.ndarray:
    """Real symmetric core C_T (3^N x 3^N) by the dense route, N <= 5:
    4^N P^dag C P with the 4^N intermediate C = A^T (vertical tensor) A and
    the per-site isometry P."""
    num_sites = circ.num_sites
    if num_sites > DENSE_ROUTE_MAX_SITES:
        raise ResourceCapError(
            f"dense route supports up to {DENSE_ROUTE_MAX_SITES} sites "
            f"(got {num_sites})"
        )
    a = build_A(circ)
    c = vertical_tensor_product(a.T, a, SiteStructure((2,) * num_sites))
    p_full = reduce(np.kron, [isometry_P()] * num_sites)
    ct = (4**num_sites) * (p_full.conj().T @ c @ p_full)
    imag = np.abs(ct.imag).max()
    if imag > 1e-9 * max(np.abs(ct).max(), 1e-300):
        raise ValidationError(f"core has unexpected imaginary part {imag:.3e}")
    ct = ct.real
    return (ct + ct.T) / 2.0


# ---------------------------------------------------------------------------
# The four-step Mercer construction
#
# Step 1: Gram-Schmidt in coefficient space

@dataclass
class GramSchmidtResult:
    l_tilde: np.ndarray  # (rank, rank) lower-triangular over independents
    rank: int
    independent: list[int]  # original component indices, in processed order
    dependent: list[int]
    alphas: np.ndarray  # (num_dependent, rank): F_dep = sum alphas . F_indep
    basis: FunctionBasis  # the orthonormalized components

    @property
    def perm(self) -> list[int]:
        return self.independent + self.dependent

    @property
    def num_components(self) -> int:
        return self.rank + len(self.dependent)

    @property
    def gram(self) -> np.ndarray:
        """Component Gram in original order, recomputed from the basis: a
        kept result does not hold the num_components^2 matrix."""
        return self.basis.gram()


def gram_schmidt_basis(basis: FunctionBasis, dep_tol: float = 1e-8) -> GramSchmidtResult:
    """Orthonormalize the components against their Gram matrix.

    Components whose residual norm falls below dep_tol times their own norm
    are declared linearly dependent and expanded over the independents, and
    so are components whose own norm is at rounding level (zero functions).
    """
    if dep_tol <= 0:
        raise ValidationError("dep_tol must be positive")
    g = basis.gram()
    d = g.shape[0]
    # Euclidean embedding of the components: columns w_i of sqrt(G) satisfy
    # w_i^dag w_j = G_ij exactly, so residual norms are computed stably even
    # when G is singular.
    lam, q = np.linalg.eigh(g)
    # rounding-level eigenvalues would seed spurious directions after the
    # square root, so clip them relative to the largest eigenvalue
    floor = max(d, 1) * np.finfo(float).eps * max(lam.max(), 0.0)
    lam = np.where(lam > floor, lam, 0.0)
    w = (np.sqrt(lam)[:, None]) * q.conj().T  # column i embeds component i
    ortho: list[np.ndarray] = []  # orthonormal embedded vectors
    rows: list[np.ndarray] = []  # matching coefficient vectors over components
    independent: list[int] = []
    dependent: list[int] = []
    alpha_rows: list[np.ndarray] = []
    for i in range(d):
        v = w[:, i].copy()
        c = np.zeros(d, dtype=complex)
        c[i] = 1.0
        for _ in range(2):  # re-orthogonalization for numerical stability
            for qvec, rvec in zip(ortho, rows):
                coef = qvec.conj() @ v
                v = v - coef * qvec
                c = c - coef * rvec
        norm = np.linalg.norm(v)
        own = np.linalg.norm(w[:, i])
        # a zero function has an exactly zero Gram row, but eigh's rounding
        # leaves its column at about eps * sqrt(lam.max()), not at zero; any
        # column below sqrt(floor) is within what the clipping discards
        if norm <= dep_tol * own or own <= np.sqrt(floor):
            dependent.append(i)
            alpha, *_ = np.linalg.lstsq(
                w[:, independent], w[:, i], rcond=None
            )
            alpha_rows.append(alpha)
        else:
            ortho.append(v / norm)
            rows.append(c / norm)
            independent.append(i)
    rank = len(independent)
    l_tilde = np.zeros((rank, rank), dtype=complex)
    for a, r in enumerate(rows):
        l_tilde[a] = r[independent]
    # a dependent found early only involves the independents seen before it;
    # pad its expansion with zeros up to the final rank
    alphas = np.zeros((len(alpha_rows), rank), dtype=complex)
    for a, row in enumerate(alpha_rows):
        alphas[a, : row.size] = row
    return GramSchmidtResult(
        l_tilde=l_tilde,
        rank=rank,
        independent=independent,
        dependent=dependent,
        alphas=alphas,
        basis=basis,
    )


# Step 2: padding

def pad_L(gs: GramSchmidtResult) -> np.ndarray:
    """Invertible lower-triangular L over permuted order (independents first):
    top block l_tilde, dependent row i carrying -alpha and a unit diagonal.
    L |F_perm(x)> = (e_1(x), ..., e_rank(x), 0, ..., 0)."""
    d = gs.num_components
    out = np.zeros((d, d), dtype=complex)
    out[: gs.rank, : gs.rank] = gs.l_tilde
    for a in range(len(gs.dependent)):
        out[gs.rank + a, : gs.rank] = -gs.alphas[a]
        out[gs.rank + a, gs.rank + a] = 1.0
    return out


# Step 3: core transform and truncation

def transform_truncate(core: np.ndarray, gs: GramSchmidtResult) -> np.ndarray:
    """C_tilde = upper-left rank block of (L^dag)^{-1} C_perm L^{-1}."""
    core = np.asarray(core, dtype=complex)
    d = gs.num_components
    if core.shape != (d, d):
        raise ValidationError("core dimension does not match component count")
    perm = gs.perm
    c_perm = core[np.ix_(perm, perm)]
    big_l = pad_L(gs)
    cond = np.linalg.cond(big_l)
    if cond > 1e12:
        warnings.warn(f"orthonormalizer is ill-conditioned (cond={cond:.2e})")
    linv = np.linalg.inv(big_l)
    c_hat = linv.conj().T @ c_perm @ linv
    return c_hat[: gs.rank, : gs.rank]


# Step 4: diagonalization

def diagonalize(
    c_tilde: np.ndarray,
    gs: GramSchmidtResult,
    basis: Optional[FunctionBasis] = None,
    basis_description: str = "",
) -> MercerDecomposition:
    """Spectral decomposition C_tilde = U^dag D U with sorted spectrum."""
    c_tilde = np.asarray(c_tilde, dtype=complex)
    scale = max(np.abs(c_tilde).max(), 1e-300)
    if np.abs(c_tilde - c_tilde.conj().T).max() > 1e-10 * scale:
        raise ValidationError("transformed core is not Hermitian")
    w, v = np.linalg.eigh((c_tilde + c_tilde.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    w = w[order]
    u = v.conj().T[order]  # rows: eigenfunction coefficients over e-basis
    coeffs = np.zeros((gs.rank, gs.num_components), dtype=complex)
    coeffs[:, gs.independent] = u @ gs.l_tilde  # over independent components
    return MercerDecomposition(
        eigenvalues=w,
        coeffs=coeffs,
        basis=basis,
        basis_description=basis_description,
    )


# ---------------------------------------------------------------------------
# Single-layer bookkeeping

def canonical_positive(omega: np.ndarray) -> np.ndarray:
    """Mask of frequency vectors whose first nonzero entry is +1, row by row."""
    keep = np.zeros(omega.shape[0], dtype=bool)
    for i, w in enumerate(omega):
        nz = np.nonzero(w)[0]
        keep[i] = nz.size > 0 and w[nz[0]] > 0
    return keep
