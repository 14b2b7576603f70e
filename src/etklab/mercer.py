"""Mercer decomposition of entangled tensor kernels by one eigenproblem.

Write the ETK K(x, x') = <F(x)| C |F(x')> over coordinate functions g with
F = P g, so that K(x, x') = g(x)^dag Q g(x') with Q = P^dag C P, and let S be
the Gram of g under the declared measure.  Then eigh(S^1/2 Q S^1/2) =
V Lambda V^dag gives B = Q S^1/2 V Lambda^-1 with Q = B Lambda B^dag and
B^dag S B = I: eigenfunction k is sum_p conj(B[p, k]) g_p(x), and the
eigenvalues are Lambda.  S^1/2 needs no inverse, so a near-singular S only
shrinks directions that Q's range then ignores.

When every site has a Fourier form, g are the exponentials e^{i Omega_p . x}
over the K distinct site-summed frequencies (feature_maps.fourier_form) and S
is their exact sinc matrix under the uniform measure on [-pi, pi]^d (the
identity for integer frequencies).  Otherwise g are the components themselves
(P = I) and S is their Gram from an inner-product provider: tensorized
Gauss-Legendre quadrature or Monte Carlo.

The paper's four-step construction stays below as the test oracle:
(1) Gram-Schmidt orthonormalization of the components in coefficient space,
detecting linear dependence; (2) padding of the orthonormalizing map to an
invertible lower-triangular L; (3) core transform
C_hat = (L^dag)^{-1} C L^{-1} and truncation to the independent block;
(4) diagonalization.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .etk import EtkKernel, feature_matrix
from .feature_maps import fourier_factor, fourier_form, fourier_gram, sinc_matrix
from .tensor_core import kron_rows

# Eigenvalues with |lambda| at most this fraction of the largest are dropped.
EIG_CUTOFF = 1e-13


# ---------------------------------------------------------------------------
# Inner-product providers

class AnalyticFourierProvider:
    """Exact inner products of trigonometric polynomials under the uniform
    measure on [-pi, pi]^d."""

    kind = "analytic-fourier"

    def gram(self, basis: "FunctionBasis") -> np.ndarray:
        if basis.fourier is None:
            raise ValidationError(
                "analytic Fourier provider needs trigonometric components"
            )
        return fourier_gram(basis.fourier)


class QuadratureProvider:
    """Tensorized Gauss-Legendre quadrature on [-pi, pi]^d (d <= 3)."""

    kind = "quadrature"

    def __init__(self, nodes_per_dim: int = 32):
        self.nodes_per_dim = nodes_per_dim

    def points_weights(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        if dim > 3:
            raise ValidationError("quadrature provider supports dim <= 3")
        t, w = np.polynomial.legendre.leggauss(self.nodes_per_dim)
        x1 = np.pi * t
        w1 = w / 2.0  # normalized uniform measure per dimension
        grids = np.meshgrid(*([x1] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        wts = np.ones(pts.shape[0])
        for k in range(dim):
            wts *= np.meshgrid(*([w1] * dim), indexing="ij")[k].ravel()
        return pts, wts

    def gram(self, basis: "FunctionBasis") -> np.ndarray:
        pts, wts = self.points_weights(basis.data_dim)
        f = basis.eval_matrix(pts)
        return f.conj().T @ (wts[:, None] * f)


class MonteCarloProvider:
    """Uniform Monte Carlo inner products on [-pi, pi]^d."""

    kind = "monte-carlo"

    def __init__(self, samples: int = 100_000, seed: int = 0):
        self.samples = samples
        self.seed = seed

    def points_weights(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        pts = rng.uniform(-np.pi, np.pi, size=(self.samples, dim))
        wts = np.full(self.samples, 1.0 / self.samples)
        return pts, wts

    def gram(self, basis: "FunctionBasis") -> np.ndarray:
        pts, wts = self.points_weights(basis.data_dim)
        f = basis.eval_matrix(pts)
        return f.conj().T @ (wts[:, None] * f)


@dataclass
class FunctionBasis:
    """Component functions with a declared inner-product provider.

    The components are the Kronecker products of per-site values:
    features(X) returns one (m, d_k) array per site for the (m, data_dim)
    rows X, and component i has site 1 as its most significant index digit.
    fourier optionally gives the same sites as (M_k, Omega_k) factors (see
    feature_maps.fourier_factor) for exact Fourier inner products.
    """

    features: Callable[[np.ndarray], list[np.ndarray]]
    data_dim: int
    provider: object
    fourier: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None

    def eval_matrix(self, pts: np.ndarray) -> np.ndarray:
        """(num_points, num_components) matrix of component values."""
        return kron_rows(self.features(np.atleast_2d(np.asarray(pts, dtype=float))))

    def eval_components(self, x: np.ndarray) -> np.ndarray:
        """Component values at one point, the one-row case of eval_matrix."""
        return self.eval_matrix(x)[0]

    def gram(self) -> np.ndarray:
        g = self.provider.gram(self)
        g = (g + g.conj().T) / 2.0
        w = np.linalg.eigvalsh(g)
        if w.min() < -1e-8 * max(abs(np.trace(g).real), 1e-300):
            raise ValidationError("inner-product provider is indefinite")
        return g


def basis_from_etk(kernel: EtkKernel, provider: Optional[object] = None) -> FunctionBasis:
    """Component-function basis of an ETK's product feature map.

    Uses exact Fourier inner products when every site has a Fourier form,
    otherwise Gauss-Legendre quadrature.
    """
    if kernel.feature_set is not None:
        fs = kernel.feature_set
        features = partial(fs.features, basis=kernel.basis)
        fourier = [fourier_factor(fn, kernel.basis) for fn in fs.maps]
    else:
        features = partial(feature_matrix, kernel)
        fourier = kernel.site_trig
    if provider is None:
        provider = (
            AnalyticFourierProvider() if fourier is not None else QuadratureProvider()
        )
    return FunctionBasis(features, kernel.data_dim, provider, fourier)


# ---------------------------------------------------------------------------
# The decomposition

@dataclass
class MercerDecomposition:
    """Eigenvalues (non-increasing) with orthonormal eigenfunctions;
    mercer_decompose keeps the nonzero eigenvalues only.

    Eigenfunction i is sum_p coeffs[i, p] g_p(x) over the coordinate
    functions g: the exponentials e^{i omega[p] . x} when omega (K x d) is set,
    otherwise the components of basis.
    """

    eigenvalues: np.ndarray
    coeffs: np.ndarray
    omega: Optional[np.ndarray] = None
    basis: Optional[FunctionBasis] = None
    basis_description: str = ""

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    def eigenfunction_matrix(self, X: np.ndarray) -> np.ndarray:
        """(m, rank) eigenfunction values at the (m, data_dim) rows X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.omega is not None:
            return np.exp(1j * X @ self.omega.T) @ self.coeffs.T
        if self.basis is None:
            raise ValidationError("decomposition carries no evaluable basis")
        return self.basis.eval_matrix(X) @ self.coeffs.T

    def eigenfunctions_at(self, x: np.ndarray) -> np.ndarray:
        """Eigenfunction values at one point, the one-row case of
        eigenfunction_matrix."""
        return self.eigenfunction_matrix(x)[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "eigenvalues": self.eigenvalues.tolist(),
                "basis": self.basis_description,
                "rank": int(self.rank),
            }
        )


def mercer_decompose(
    kernel: EtkKernel,
    provider: Optional[object] = None,
    dep_tol: float = 1e-8,
) -> tuple[MercerDecomposition, Optional[FunctionBasis]]:
    """Mercer decomposition of an ETK with a materializable core.

    Takes the frequency coordinates when the basis has Fourier factors and
    the analytic provider, the components and the provider's Gram otherwise
    (see the module docstring).  Eigenvalues with |lambda| <= EIG_CUTOFF times
    the largest are dropped, so rank counts the nonzero eigenvalues only.
    dep_tol is accepted for existing callers and does not change the result:
    no Gram-Schmidt dependence test runs on this route.

    Returns (dec, dec.basis): the pair keeps the shape of the four-step
    pipeline's (decomposition, Gram-Schmidt result); the second value is None
    for frequency coordinates.
    """
    if dep_tol <= 0:
        raise ValidationError("dep_tol must be positive")
    basis = basis_from_etk(kernel, provider=provider)
    core = np.asarray(kernel.dense_core(), dtype=complex)
    if basis.fourier is not None and isinstance(basis.provider, AnalyticFourierProvider):
        omega, p = fourier_form(basis.fourier)
        q, s = p.conj().T @ core @ p, sinc_matrix(omega)
    else:
        omega, q, s = None, core, basis.gram()
    w, u = np.linalg.eigh(s)
    half = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    a = half @ q @ half
    lam, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    lam, v = lam[::-1], v[:, ::-1]
    keep = np.abs(lam) > EIG_CUTOFF * np.abs(lam).max()
    lam, v = lam[keep], v[:, keep]
    b = q @ half @ v / lam
    dec = MercerDecomposition(
        eigenvalues=lam,
        coeffs=b.conj().T,
        omega=omega,
        basis=None if omega is not None else basis,
        basis_description=getattr(basis.provider, "kind", "custom"),
    )
    return dec, dec.basis


def reconstruct_kernel(dec: MercerDecomposition, x, x2) -> complex:
    """sum_i gamma_i conj(e_i(x)) e_i(x')."""
    f1 = dec.eigenfunctions_at(np.asarray(x, dtype=float))
    f2 = dec.eigenfunctions_at(np.asarray(x2, dtype=float))
    return complex(np.sum(dec.eigenvalues * f1.conj() * f2))


def eigenfunction_gram(dec: MercerDecomposition, gs=None) -> np.ndarray:
    """Gram of the eigenfunctions under the declared measure (should be I):
    the sinc matrix of dec's frequencies, or its basis's provider Gram.
    gs (the second value of mercer_decompose, or a four-step
    GramSchmidtResult) is accepted for existing callers and not read."""
    c = dec.coeffs
    g = sinc_matrix(dec.omega) if dec.omega is not None else dec.basis.gram()
    return c.conj() @ g @ c.T


# ---------------------------------------------------------------------------
# The four-step construction (test oracle)
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


# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
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
