"""Pre-processing functions and the local trigonometric feature vectors.

A pre-processing function maps a data vector to a scalar angle.  Each angle
phi feeds two local feature vectors:

* T basis: (1, cos phi, sin phi) / sqrt(2), real with unit norm;
* E basis: (1, e^{i phi}, e^{-i phi}, 1), complex.

The two are linked by the constant 4x3 isometry P via E = 2 P T.  Both are
computed by ``trig_features``, for one angle or for an array of angles;
``LocalFeatureSet.angles`` gives the (m, N) site angles of many data rows at
once: the one path from data rows to site angles.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# Trigonometric-polynomial representations (exact Fourier bookkeeping)

def _freq_of(fn: PreprocessingFn) -> tuple[tuple[float, ...], float]:
    """Frequency vector w and offset b with phi(x) = w.x + b."""
    d = fn.input_dim
    if fn.kind == "zero":
        return (0.0,) * d, 0.0
    if fn.kind == "coordinate":
        w = [0.0] * d
        w[fn.index] = 1.0
        return tuple(w), 0.0
    return tuple(fn.weights), fn.bias


def local_trig_components(fn: PreprocessingFn, basis: str = "T") -> list[dict]:
    """Each local feature component as {frequency tuple: coefficient}.

    A component f(x) = sum_w c_w e^{i w.x} is stored as a dict; products of
    components convolve the dicts, and inner products under the uniform
    measure on [-pi, pi]^d follow in closed form.
    """
    w, b = _freq_of(fn)
    neg = tuple(-wi for wi in w)
    eb = np.exp(1j * b)
    s = np.sqrt(2.0)
    if basis == "T":
        return [
            {(0.0,) * len(w): 1.0 / s},
            trig_add({w: eb / (2 * s)}, {neg: np.conj(eb) / (2 * s)}),
            trig_add({w: eb / (2j * s)}, {neg: -np.conj(eb) / (2j * s)}),
        ]
    if basis == "E":
        return [
            {(0.0,) * len(w): 1.0},
            {w: eb},
            {neg: np.conj(eb)},
        ]
    raise ValidationError(f"unknown basis {basis!r}")


def trig_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0}


def trig_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return out


def trig_conj(a: dict) -> dict:
    return {tuple(-x for x in k): np.conj(v) for k, v in a.items()}


def trig_eval(a: dict, x: np.ndarray) -> complex:
    x = np.asarray(x, dtype=float)
    return sum(v * np.exp(1j * float(np.dot(k, x))) for k, v in a.items())


def trig_inner(a: dict, b: dict) -> complex:
    """<a, b> = int conj(a) b dmu with mu uniform on [-pi, pi]^d.

    Uses (1/2pi) int e^{i delta x} dx = sinc(delta); exact for integer
    frequency differences and still closed-form for real ones.
    """
    total = 0.0 + 0.0j
    for ka, va in a.items():
        for kb, vb in b.items():
            w = np.conj(va) * vb
            for da, db in zip(ka, kb):
                w = w * np.sinc(db - da)
                if w == 0:
                    break
            total += w
    return complex(total)
