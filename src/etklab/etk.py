"""Entangled tensor kernel evaluation and classical example constructors.

An entangled tensor kernel (ETK) is K(x, x') = <F(x)| C |F(x')> where
|F(x)> = (x) tensor product of small per-site feature vectors and C is a
positive semidefinite core matrix.  The core may be dense, an MPO, or a
locally purified MPO.

Every evaluation is batched.  ``feature_matrix`` computes the per-site local
features of all sample rows at once, one (m, d_k) array per site, and
``gram_block`` contracts the features of two row sets with the core in one
call, by the route of the core's representation:

* dense core of dimension D: conj(F) C F'^T on the Kronecker-stacked rows,
  O(m D^2 + m m' D);
* MPO core: the environment sweep with sample axes (m, m', chi),
  O(m m' d^2 chi^2) per site;
* LPMPO core (C = X X^dagger): two half-contractions per site with sample
  axes (m, m', chi, chi), O(m m' p chi^3) per site, never forming C.

``gram_matrix`` and ``evaluate`` (the 1 x 1 case) are built on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional, Union

import numpy as np

from .errors import ResourceCapError, StructuralError, ValidationError
from .feature_maps import (
    SHIFTS,
    LocalFeatureSet,
    PreprocessingFn,
    eval_local_E,
    eval_local_T,
    int_from_json,
)
from .tensor_core import (
    DEFAULT_DENSE_CAP,
    LPMPO,
    MPO,
    complex_entries,
    complex_from_entries,
    dense_gram,
    lpmpo_gram,
    lpmpo_materialize,
    min_eig_ratio,
    mpo_from_json,
    mpo_gram,
    mpo_to_dense,
    mpo_to_json,
)

CoreTensor = Union[np.ndarray, MPO, LPMPO]


@dataclass
class EtkKernel:
    """Product feature maps plus a PSD core tensor.

    site_features: one callable per site mapping a data vector to a local
    feature vector of dimension local_dims[k].  When feature_set is given,
    the site features are its pre-processing functions' features in
    `basis`, and feature_matrix computes them for many rows at once.
    Feature-set kernels carry their Fourier form in the feature set; other
    kernels may give it in site_trig, one (M_k, Omega_k) factor per site as
    in feature_maps.fourier_factor, for exact Fourier inner products
    downstream.
    """

    site_features: list[Callable[[np.ndarray], np.ndarray]]
    local_dims: tuple[int, ...]
    core: CoreTensor
    data_dim: int
    basis: str = "custom"
    feature_set: Optional[LocalFeatureSet] = None
    psd_verified: bool = False
    site_trig: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    dense_cap: int = DEFAULT_DENSE_CAP

    def __post_init__(self):
        d = math.prod(self.local_dims)
        core_dim = self._core_dim()
        if core_dim != d:
            raise StructuralError(
                f"core dimension {core_dim} does not match feature dim {d}"
            )

    def _core_dim(self) -> int:
        if isinstance(self.core, np.ndarray):
            if self.core.ndim != 2 or self.core.shape[0] != self.core.shape[1]:
                raise StructuralError("dense core must be square")
            if not np.isfinite(self.core).all():
                raise ValidationError("dense core entries must be finite")
            return self.core.shape[0]
        return math.prod(self.core.local_dims)

    @property
    def num_sites(self) -> int:
        return len(self.site_features)

    def local_vectors(self, x: np.ndarray) -> list[np.ndarray]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.data_dim,):
            raise StructuralError(
                f"input shape {x.shape} does not match data dim {self.data_dim}"
            )
        vecs = [np.asarray(f(x), dtype=complex) for f in self.site_features]
        for v, d in zip(vecs, self.local_dims):
            if v.shape != (d,):
                raise StructuralError("local feature has wrong dimension")
        return vecs

    def dense_core(self, cap: Optional[int] = None) -> np.ndarray:
        cap = self.dense_cap if cap is None else cap
        if isinstance(self.core, np.ndarray):
            return self.core
        if isinstance(self.core, LPMPO):
            return lpmpo_materialize(self.core, cap=cap)
        return mpo_to_dense(self.core, cap=cap)


def _sample_rows(X, data_dim: int) -> np.ndarray:
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"samples must form an (m, {data_dim}) array") from exc
    if X.ndim != 2 or X.shape[1] != data_dim:
        raise StructuralError(
            f"input rows of shape {X.shape[1:]} do not match data dim {data_dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValidationError("inputs must be finite")
    return X


def feature_matrix(kernel: EtkKernel, X) -> list[np.ndarray]:
    """Local features of every row of X: one (m, local_dims[k]) array per site.

    Feature-set kernels take the (m, N) site angles of all rows and their
    trig features in one call each; other kernels call each site's feature
    map once per row.  Rows must be finite and data_dim wide.
    """
    X = _sample_rows(X, kernel.data_dim)
    if kernel.feature_set is not None:
        return kernel.feature_set.features(X, kernel.basis)
    feats = []
    for f, d in zip(kernel.site_features, kernel.local_dims):
        rows = [np.asarray(f(x), dtype=complex) for x in X]
        if any(r.shape != (d,) for r in rows):
            raise StructuralError("local feature has wrong dimension")
        feats.append(np.array(rows, dtype=complex).reshape(len(X), d))
    return feats


def gram_block(kernel: EtkKernel, X, Y) -> np.ndarray:
    """K(x_i, y_j) for all rows of X against all rows of Y, in one batched
    contraction of their feature matrices with the core."""
    fx = feature_matrix(kernel, X)
    fy = fx if Y is X else feature_matrix(kernel, Y)
    if isinstance(kernel.core, MPO):
        return mpo_gram(fx, kernel.core, fy)
    if isinstance(kernel.core, LPMPO):
        return lpmpo_gram(fx, kernel.core, fy)
    return dense_gram(fx, kernel.core, fy)


def real_kernel_values(values: np.ndarray, imag_tol: float = 1e-10) -> np.ndarray:
    """Real parts of kernel values; each imaginary part must stay below
    imag_tol times max(|value|, 1)."""
    bad = np.abs(values.imag) > imag_tol * np.maximum(np.abs(values), 1.0)
    if bad.any():
        raise ValidationError(
            f"kernel value has imaginary part {values.imag[bad][0]:.3e}"
        )
    return values.real


def evaluate(kernel: EtkKernel, x: np.ndarray, x2: np.ndarray) -> complex:
    """K(x, x') = <F(x)| C |F(x')>, the 1 x 1 case of gram_block."""
    return complex(gram_block(kernel, [x], [x2])[0, 0])


def evaluate_real(kernel: EtkKernel, x, x2, imag_tol: float = 1e-10) -> float:
    """Real kernel value; asserts the imaginary part is negligible."""
    return float(real_kernel_values(gram_block(kernel, [x], [x2]), imag_tol)[0, 0])


def gram_matrix(kernel: EtkKernel, X) -> np.ndarray:
    """Hermitian Gram matrix G_ij = K(x_i, x_j) over the sample rows X,
    symmetrized as (G + G^dagger) / 2 so that it is exactly Hermitian."""
    if len(X) == 0:
        raise ValidationError("sample list must be non-empty")
    g = gram_block(kernel, X, X)
    return (g + g.conj().T) / 2


def gram_matrix_real(kernel: EtkKernel, X, imag_tol: float = 1e-8) -> np.ndarray:
    """Real part of gram_matrix as an owned float64 array, so the complex
    Gram is freed on return."""
    g = gram_matrix(kernel, X)
    if np.abs(g.imag).max() > imag_tol * max(np.abs(g).max(), 1.0):
        raise ValidationError("Gram matrix is not real within tolerance")
    return g.real.copy()


# ---------------------------------------------------------------------------
# Classical example constructors

def polynomial_etk(degree: int, offset: float, data_dim: int) -> EtkKernel:
    """Product-kernel ETK for K(x, x') = (offset + x.x')^degree."""
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if offset < 0:
        raise ValidationError("offset must be >= 0")
    dim = data_dim + 1
    sq = math.sqrt(offset)

    def feat(x: np.ndarray) -> np.ndarray:
        return np.concatenate(([sq], x))

    ident = np.eye(dim, dtype=complex).reshape(1, dim, dim, 1)
    core = MPO([ident.copy() for _ in range(degree)])
    return EtkKernel(
        site_features=[feat] * degree,
        local_dims=(dim,) * degree,
        core=core,
        data_dim=data_dim,
        psd_verified=True,
    )


def linear_sum_etk(kernels: list[EtkKernel], weights) -> EtkKernel:
    """ETK for sum_i a_i K_i with a_i >= 0.

    Per-site features are (1, B_i F_i(x)) where B_i = C_i^{1/2} absorbs the
    constituent core, and the core is diagonal with a_i on indices whose only
    nonzero digit sits at site i.
    """
    weights = np.asarray(weights, dtype=float)
    if len(kernels) != weights.size or len(kernels) == 0:
        raise ValidationError("need one weight per constituent kernel")
    if np.any(weights < 0):
        raise ValidationError("weights must be non-negative")
    data_dim = kernels[0].data_dim
    if any(k.data_dim != data_dim for k in kernels):
        raise ValidationError("constituent kernels must share the data domain")

    feats = []
    dims = []
    for k in kernels:
        c = k.dense_core()
        w, v = np.linalg.eigh((c + c.conj().T) / 2)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

        def feat(x, k=k, root=root):
            full = reduce(np.kron, k.local_vectors(x))
            return np.concatenate(([1.0], root @ full))

        feats.append(feat)
        dims.append(1 + c.shape[0])

    total = math.prod(dims)
    diag = np.zeros(total)
    stride = total
    for i, d in enumerate(dims):
        stride //= d
        for h in range(1, d):
            diag[h * stride] = weights[i]
    return EtkKernel(
        site_features=feats,
        local_dims=tuple(dims),
        core=np.diag(diag).astype(complex),
        data_dim=data_dim,
        psd_verified=True,
    )


def shift_invariant_etk(coeffs) -> EtkKernel:
    """ETK for K(x, x') = gamma_0 + sum_j gamma_j cos(j (x - x')) on [-pi, pi].

    Uses ceil(log3(2N+1)) exponential local maps (e^{-i 3^{k-1} x}, 1,
    e^{i 3^{k-1} x}); the diagonal core carries gamma_j / 2 on the paired
    frequencies +-j so the cosine series comes out exactly.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValidationError("need a 1-d coefficient list (gamma_0 ... gamma_N)")
    if np.any(coeffs < 0):
        raise ValidationError("coefficients must be non-negative")
    n_max = coeffs.size - 1
    n_sites = max(1, math.ceil(math.log(2 * n_max + 1, 3) - 1e-12))

    feats = []
    trig = []
    for k in range(1, n_sites + 1):
        scale = 3 ** (k - 1)

        def feat(x, scale=scale):
            t = float(x[0])
            return np.array(
                [np.exp(-1j * scale * t), 1.0, np.exp(1j * scale * t)]
            )

        feats.append(feat)
        trig.append((np.eye(3), scale * SHIFTS[:, None]))

    total = 3**n_sites
    diag = np.zeros(total)
    for idx in range(total):
        alpha = 0
        rem = idx
        for k in range(n_sites, 0, -1):  # site n_sites is the least significant
            alpha += 3 ** (k - 1) * (rem % 3 - 1)
            rem //= 3
        if alpha == 0:
            diag[idx] = coeffs[0]
        elif abs(alpha) <= n_max:
            diag[idx] = coeffs[abs(alpha)] / 2.0
    return EtkKernel(
        site_features=feats,
        local_dims=(3,) * n_sites,
        core=np.diag(diag).astype(complex),
        data_dim=1,
        psd_verified=True,
        site_trig=trig,
    )


def etk_from_feature_set(
    feature_set: LocalFeatureSet,
    core: CoreTensor,
    basis: str = "T",
    psd_verified: bool = False,
) -> EtkKernel:
    """Kernel whose local features come from pre-processing functions."""
    if basis == "T":
        evaluator, dim = eval_local_T, 3
    elif basis == "E":
        evaluator, dim = eval_local_E, 4
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    feats = [
        (lambda x, fn=fn: evaluator(fn, x)) for fn in feature_set.maps
    ]
    return EtkKernel(
        site_features=feats,
        local_dims=(dim,) * feature_set.num_sites,
        core=core,
        data_dim=feature_set.input_dim,
        basis=basis,
        feature_set=feature_set,
        psd_verified=psd_verified,
    )


def verify_psd(kernel: EtkKernel, cap: Optional[int] = None) -> dict:
    """PSD report: {"status": "psd" | "not_psd" | "unverifiable", ...}."""
    if isinstance(kernel.core, LPMPO):
        return {"status": "psd", "reason": "locally purified by construction"}
    try:
        dense = kernel.dense_core(cap=cap)
    except ResourceCapError:
        return {"status": "unverifiable", "reason": "core exceeds dense cap"}
    ratio = min_eig_ratio(dense)
    herm = np.abs(dense - dense.conj().T).max() <= 1e-10 * max(
        np.abs(dense).max(), 1e-300
    )
    ok = herm and ratio >= -1e-10
    return {"status": "psd" if ok else "not_psd", "min_eig_ratio": ratio}


# ---------------------------------------------------------------------------
# Serialization (feature-set kernels only)

def etk_to_json(kernel: EtkKernel) -> str:
    if kernel.feature_set is None:
        raise ValidationError("only feature-set kernels serialize to JSON")
    if isinstance(kernel.core, np.ndarray):
        core = {
            "kind": "dense",
            "dim": kernel.core.shape[0],
            "entries": complex_entries(kernel.core),
        }
    else:
        core = {"kind": "tn", "payload": json.loads(mpo_to_json(kernel.core))}
    return json.dumps(
        {
            "feature_set": [fn.to_json_dict() for fn in kernel.feature_set.maps],
            "basis": kernel.basis,
            "psd_verified": kernel.psd_verified,
            "core": core,
        }
    )


def etk_from_json(text: str) -> EtkKernel:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"kernel JSON is malformed: {exc}") from exc
    maps = [PreprocessingFn.from_json_dict(f, f"kernel field feature_set[{k}]")
            for k, f in enumerate(d["feature_set"])]
    fs = LocalFeatureSet(tuple(maps))
    cd = d["core"]
    if cd["kind"] == "dense":
        n = int_from_json(cd["dim"], "kernel field core.dim")
        core: CoreTensor = complex_from_entries(
            cd["entries"], (n, n), "kernel field core.entries"
        )
    else:
        core = mpo_from_json(json.dumps(cd["payload"]))
    return etk_from_feature_set(
        fs, core, basis=d.get("basis", "T"), psd_verified=d.get("psd_verified", False)
    )
