"""Mercer decomposition of entangled tensor kernels by one eigenproblem.

Write the ETK K(x, x') = <F(x)| C |F(x')> over coordinate functions g with
F = P g, so that K(x, x') = g(x)^dag Q g(x') with Q = P^dag C P, and let S be
the Gram of g under the declared measure.  Then eigh(S^1/2 Q S^1/2) =
V Lambda V^dag gives B = Q S^1/2 V Lambda^-1 with Q = B Lambda B^dag and
B^dag S B = I: eigenfunction k is sum_p conj(B[p, k]) g_p(x), and the
eigenvalues are Lambda.  S^1/2 needs no inverse, so a near-singular S only
shrinks directions that Q's range then ignores.  B itself is off
S-orthonormality by about eps lambda_max / lambda_k, so one Rayleigh-Ritz
step in the S inner product follows.

When every site has a Fourier form, g are the exponentials e^{i Omega_p . x}
over the K distinct site-summed frequencies (feature_maps.fourier_form) and S
is their exact sinc matrix under the uniform measure on [-pi, pi]^d.  For
integer frequencies S = I, and B = V.  Otherwise g are the components
themselves (P = I) and S is their Gram by tensorized Gauss-Legendre
quadrature.

The paper's four-step construction (Gram-Schmidt, padding, core transform
and truncation, diagonalization) is the test oracle, in tests/oracles.py.
"""

from __future__ import annotations

import json
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
# Gauss-Legendre nodes per dimension of the Gram of non-Fourier components.
QUADRATURE_NODES = 32


def _gauss_legendre(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized Gauss-Legendre points and weights on [-pi, pi]^dim (dim <=
    3), the weights normalized to the uniform measure."""
    if dim > 3:
        raise ValidationError("quadrature supports dim <= 3")
    t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    grids = np.meshgrid(*([np.pi * t] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for g in np.meshgrid(*([w / 2.0] * dim), indexing="ij"):
        wts *= g.ravel()
    return pts, wts


@dataclass
class FunctionBasis:
    """Component functions and their inner product under the uniform
    measure on [-pi, pi]^data_dim.

    The components are the Kronecker products of per-site values:
    features(X) returns one (m, d_k) array per site for the (m, data_dim)
    rows X, and component i has site 1 as its most significant index digit.
    fourier optionally gives the same sites as (M_k, Omega_k) factors (see
    feature_maps.fourier_factor); gram() is then exact, otherwise it is
    Gauss-Legendre quadrature.
    """

    features: Callable[[np.ndarray], list[np.ndarray]]
    data_dim: int
    fourier: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None

    def eval_matrix(self, pts: np.ndarray) -> np.ndarray:
        """(num_points, num_components) matrix of component values."""
        return kron_rows(self.features(np.atleast_2d(np.asarray(pts, dtype=float))))

    def eval_components(self, x: np.ndarray) -> np.ndarray:
        """Component values at one point, the one-row case of eval_matrix."""
        return self.eval_matrix(x)[0]

    def gram(self) -> np.ndarray:
        """Component Gram <F_p, F_q>: fourier_gram of the Fourier factors,
        or QUADRATURE_NODES-point Gauss-Legendre quadrature per dimension."""
        if self.fourier is not None:
            g = fourier_gram(self.fourier)
        else:
            pts, wts = _gauss_legendre(self.data_dim)
            f = self.eval_matrix(pts)
            g = f.conj().T @ (wts[:, None] * f)
        g = (g + g.conj().T) / 2.0
        w = np.linalg.eigvalsh(g)
        if w.min() < -1e-8 * max(abs(np.trace(g).real), 1e-300):
            raise ValidationError("component Gram is indefinite")
        return g


def basis_from_etk(kernel: EtkKernel) -> FunctionBasis:
    """Component-function basis of an ETK's product feature map, with Fourier
    factors when every site has a Fourier form."""
    if kernel.feature_set is not None:
        fs = kernel.feature_set
        features = partial(fs.features, basis=kernel.basis)
        fourier = [fourier_factor(fn, kernel.basis) for fn in fs.maps]
    else:
        features = partial(feature_matrix, kernel)
        fourier = kernel.site_trig
    return FunctionBasis(features, kernel.data_dim, fourier)


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


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return lam[::-1], v[:, ::-1]


def mercer_decompose(
    kernel: EtkKernel,
) -> tuple[MercerDecomposition, Optional[FunctionBasis]]:
    """Mercer decomposition of an ETK with a materializable core.

    Takes the frequency coordinates when the basis has Fourier factors, the
    components and their quadrature Gram otherwise (see the module
    docstring).  Eigenvalues with |lambda| <= EIG_CUTOFF times the largest
    are dropped, so rank counts the nonzero eigenvalues only.  Distinct
    integer frequencies are orthonormal, so S = I and B = V.  Otherwise the
    Rayleigh-Ritz step S-orthonormalizes B = Q S^1/2 V Lambda^-1 through
    eigh(B^dag S B) and diagonalizes B^dag S Q S B: on full-rank cores over
    frequencies 0.25 apart it takes the eigenfunction Gram from 2e-5 to 2e-7
    off I.

    Returns (dec, dec.basis): the pair keeps the shape of the four-step
    oracle's (decomposition, Gram-Schmidt result); the second value is None
    for frequency coordinates.
    """
    basis = basis_from_etk(kernel)
    core = np.asarray(kernel.dense_core(), dtype=complex)
    if basis.fourier is not None:
        omega, p = fourier_form(basis.fourier)
        q = p.conj().T @ core @ p
    else:
        omega, q = None, core
    integer = omega is not None and np.array_equal(omega, np.round(omega))
    if integer:
        a = q
    else:
        s = sinc_matrix(omega) if omega is not None else basis.gram()
        w, u = np.linalg.eigh(s)
        half = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
        a = half @ q @ half
    lam, v = _eigh_descending(a)
    keep = np.abs(lam) > EIG_CUTOFF * np.abs(lam).max()
    lam, b = lam[keep], v[:, keep]
    if not integer:
        b = q @ half @ b / lam
        # Rayleigh-Ritz in the S inner product
        d, y = np.linalg.eigh(b.conj().T @ s @ b)
        b = b @ (y / np.sqrt(d))
        sb = s @ b
        lam, v = _eigh_descending(sb.conj().T @ q @ sb)
        b = b @ v
    dec = MercerDecomposition(
        eigenvalues=lam,
        coeffs=b.conj().T,
        omega=omega,
        basis=None if omega is not None else basis,
        basis_description="analytic-fourier" if omega is not None else "quadrature",
    )
    return dec, dec.basis


def reconstruct_kernel(dec: MercerDecomposition, x, x2) -> complex:
    """sum_i gamma_i conj(e_i(x)) e_i(x')."""
    f1 = dec.eigenfunctions_at(np.asarray(x, dtype=float))
    f2 = dec.eigenfunctions_at(np.asarray(x2, dtype=float))
    return complex(np.sum(dec.eigenvalues * f1.conj() * f2))


def eigenfunction_gram(dec: MercerDecomposition, gs=None) -> np.ndarray:
    """Gram of the eigenfunctions under the declared measure (should be I):
    the sinc matrix of dec's frequencies, or its basis's component Gram.
    gs (the second value of mercer_decompose) is accepted for existing
    callers and not read."""
    c = dec.coeffs
    g = sinc_matrix(dec.omega) if dec.omega is not None else dec.basis.gram()
    return c.conj() @ g @ c.T
