"""Pre-processing functions and the local trigonometric feature vectors.

A pre-processing function maps a data vector to a scalar angle.  Each angle
phi feeds two local feature vectors:

* T basis: (1, cos phi, sin phi) / sqrt(2), real with unit norm;
* E basis: (1, e^{i phi}, e^{-i phi}, 1), complex.

The two are linked by E = 2 P T for a constant 4x3 isometry P, whose
columns are the column-major vectorizations of I, X, Y over sqrt(2) (the
tests build P to check that identity).  Both are computed by
``trig_features``, for one angle or for an array of angles;
``LocalFeatureSet.angles`` gives the (m, N) site angles of many data rows at
once: the one path from data rows to site angles.

``fourier_factor`` writes a site's features as a small matrix M over the
terms e^{i s phi}, s in {-1, 0, 1}; ``fourier_form`` expands all products of
site features over their distinct site-summed frequencies, ``sinc_matrix``
gives the exact Gram of those exponentials under the uniform measure, and
``fourier_gram`` the Gram of the products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import StructuralError, ValidationError


@dataclass(frozen=True)
class PreprocessingFn:
    """Scalar pre-processing function phi of a data vector.

    kind is one of:
      - "coordinate": phi(x) = x[index]
      - "affine":     phi(x) = weights . x + bias
      - "zero":       phi(x) = 0
    """

    kind: str
    input_dim: int
    index: int = 0
    weights: tuple[float, ...] = ()
    bias: float = 0.0

    def __post_init__(self):
        if self.kind not in ("coordinate", "affine", "zero"):
            raise ValidationError(f"unknown pre-processing kind {self.kind!r}")
        if self.kind == "coordinate" and not 0 <= self.index < self.input_dim:
            raise ValidationError("coordinate index out of range")
        if self.kind == "affine":
            if len(self.weights) != self.input_dim:
                raise ValidationError("affine weights must match input dim")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not np.isfinite([*self.weights, self.bias]).all():
            raise ValidationError("pre-processing weights and bias must be finite")

    def __call__(self, x: np.ndarray) -> float:
        """phi of one point, the one-row case of angles."""
        return float(self.angles(np.asarray(x, dtype=float)[None])[0])

    def angles(self, X: np.ndarray) -> np.ndarray:
        """phi of every row of an (m, input_dim) array, as an (m,) array."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise StructuralError(
                f"input rows {X.shape} do not match declared dim {self.input_dim}"
            )
        if self.kind == "coordinate":
            return X[:, self.index]
        if self.kind == "affine":
            return X @ np.asarray(self.weights) + self.bias
        return np.zeros(X.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "index": self.index,
            "weights": list(self.weights),
            "bias": self.bias,
        }

    @classmethod
    def from_json_dict(cls, d: dict, field: str = "phi") -> "PreprocessingFn":
        return cls(
            kind=d["kind"],
            input_dim=int_from_json(d["input_dim"], f"{field}.input_dim"),
            index=int_from_json(d.get("index", 0), f"{field}.index"),
            weights=tuple(d.get("weights", ())),
            bias=float(d.get("bias", 0.0)),
        )


@dataclass(frozen=True)
class LocalFeatureSet:
    """Ordered pre-processing functions, one per site (flattened layer-qubit
    index k = (j-1)*n + qubit)."""

    maps: tuple[PreprocessingFn, ...]

    def __post_init__(self):
        if not self.maps:
            raise ValidationError("feature set needs at least one map")
        dims = {fn.input_dim for fn in self.maps}
        if len(dims) != 1:
            raise ValidationError("all pre-processing functions must share input dim")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def num_sites(self) -> int:
        return len(self.maps)

    @property
    def input_dim(self) -> int:
        return self.maps[0].input_dim

    def angles(self, X: np.ndarray) -> np.ndarray:
        """(m, N) site angles of the (m, input_dim) rows X; column k is map k's."""
        return np.stack([fn.angles(X) for fn in self.maps], axis=1)

    def features(self, X: np.ndarray, basis: str = "T") -> list[np.ndarray]:
        """Local features of the rows X in `basis`: one (m, d) array per site."""
        feats = trig_features(self.angles(X), basis)
        return [feats[:, k] for k in range(self.num_sites)]


def int_from_json(value, field: str) -> int:
    """A JSON integer; any other value raises StructuralError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructuralError(f"{field} must be an integer, got {value!r}")
    return value


def trig_features(phi, basis: str = "T") -> np.ndarray:
    """Local features of an angle or an array of angles, on a new last axis:
    (1, cos phi, sin phi)/sqrt(2) in the T basis, (1, e^{i phi}, e^{-i phi}, 1)
    in the E basis."""
    phi = np.asarray(phi, dtype=float)
    if basis == "T":
        out = np.empty(phi.shape + (3,))
        out[..., 0] = 1.0
        out[..., 1] = np.cos(phi)
        out[..., 2] = np.sin(phi)
        return out / np.sqrt(2.0)
    if basis == "E":
        out = np.empty(phi.shape + (4,), dtype=complex)
        out[..., 0] = out[..., 3] = 1.0
        out[..., 1] = np.exp(1j * phi)
        out[..., 2] = np.exp(-1j * phi)
        return out
    raise ValidationError(f"unknown basis {basis!r}")


def eval_local_T(fn: PreprocessingFn, x: np.ndarray) -> np.ndarray:
    """Unit-norm local trig feature (1, cos phi, sin phi)/sqrt(2)."""
    return trig_features(fn(x), "T")


def eval_local_E(fn: PreprocessingFn, x: np.ndarray) -> np.ndarray:
    """Complex local feature (1, e^{i phi}, e^{-i phi}, 1)."""
    return trig_features(fn(x), "E")


# ---------------------------------------------------------------------------
# Fourier form of the local features (exact inner products)

SHIFTS = np.array([-1.0, 0.0, 1.0])

# Rows: the basis's local features; columns: e^{i s phi} for s in SHIFTS.
_FOURIER_ROWS = {
    "T": np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.5j, 0.0, -0.5j]])
    / np.sqrt(2.0),
    "E": np.array(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    ),
}


def fourier_factor(fn: PreprocessingFn, basis: str = "T") -> tuple[np.ndarray, np.ndarray]:
    """Site factor (M, Omega) of fn's local features in `basis`.

    With phi(x) = w.x + b, local feature c equals sum_s M[c, s] e^{i Omega[s].x}
    over the three terms s in SHIFTS: Omega[s] = s w, and the bias phase
    e^{i s b} is folded into M (3 x 3 in the T basis, 4 x 3 in the E basis).
    """
    if basis not in _FOURIER_ROWS:
        raise ValidationError(f"unknown basis {basis!r}")
    if fn.kind == "zero":
        w, b = np.zeros(fn.input_dim), 0.0
    elif fn.kind == "coordinate":
        w, b = np.eye(fn.input_dim)[fn.index], 0.0
    else:
        w, b = np.asarray(fn.weights), fn.bias
    return _FOURIER_ROWS[basis] * np.exp(1j * SHIFTS * b), np.outer(SHIFTS, w)


def fourier_form(factors) -> tuple[np.ndarray, np.ndarray]:
    """Frequency form (Omega, P) of the Kronecker-product components F of
    per-site factors (M_k, Omega_k), site 1 the most significant index digit:
    F_i(x) = sum_p P[i, p] e^{i Omega_p . x} over the K distinct site-summed
    frequencies Omega (K x d); P is D x K.

    The components expand as (x)_k M_k over the terms, and terms of equal
    frequency are merged, so K is the number of distinct frequencies only (25
    rather than 81 for two coordinates encoded twice each).
    """
    terms = reduce(np.kron, [m for m, _ in factors])
    omega = factors[0][1]
    for _, om in factors[1:]:
        omega = (omega[:, None, :] + om[None, :, :]).reshape(-1, omega.shape[1])
    omega, index = np.unique(omega, axis=0, return_inverse=True)
    coeffs = np.zeros((terms.shape[0], omega.shape[0]), dtype=complex)
    np.add.at(coeffs.T, index.ravel(), terms.T)
    return omega, coeffs


def sinc_matrix(omega: np.ndarray) -> np.ndarray:
    """Gram S[p, q] = int e^{-i Omega_p.x} e^{i Omega_q.x} dmu of the
    exponentials, mu uniform on [-pi, pi]^d: prod_d sinc(Omega[q, d] -
    Omega[p, d]), since (1/2pi) int e^{i delta x} dx = sinc(delta); the
    identity for distinct integer frequencies, closed-form for real ones."""
    s = np.ones((omega.shape[0],) * 2)
    for col in omega.T:
        s *= np.sinc(col[None, :] - col[:, None])
    return s


def fourier_gram(factors) -> np.ndarray:
    """Gram <F_p, F_q> = int conj(F_p) F_q dmu of the components of
    fourier_form: conj(P) S P^T."""
    omega, coeffs = fourier_form(factors)
    return coeffs.conj() @ sinc_matrix(omega) @ coeffs.T
