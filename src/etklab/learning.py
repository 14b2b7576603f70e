"""Kernel ridge regression, model-tailored targets, and learning curves.

The comparison experiment builds, per model instance, a target function lying
in the span of the model's top-P Mercer eigenfunctions (cosines), generates a
noiseless uniform dataset on [-pi, pi]^n, and records test mean squared error
of kernel ridge regression as the training set grows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ValidationError
from .etk import EtkKernel, gram_block, gram_matrix_real, real_kernel_values
from .mercer import MercerDecomposition
from .single_layer import (
    HAAR_MODEL,
    instance_rng,
    model_label,
    sample_psi2,
    spectrum_arrays,
    spectrum_to_mercer,
)
from .tables import ResultTable

KernelLike = Union[EtkKernel, MercerDecomposition]


@dataclass
class Dataset:
    """Inputs in [-pi, pi]^n with noiseless targets and a fixed split."""

    inputs: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        self.train_idx = np.asarray(self.train_idx, dtype=int)
        self.test_idx = np.asarray(self.test_idx, dtype=int)
        total = self.inputs.shape[0]
        merged = np.sort(np.concatenate([self.train_idx, self.test_idx]))
        if not np.array_equal(merged, np.arange(total)):
            raise ValidationError("train/test split must be disjoint and covering")

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[self.train_idx]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[self.train_idx]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.inputs[self.test_idx]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self.test_idx]

    def to_json(self) -> str:
        return json.dumps(
            {
                "inputs": self.inputs.tolist(),
                "targets": self.targets.tolist(),
                "train_idx": self.train_idx.tolist(),
                "test_idx": self.test_idx.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        d = json.loads(text)
        return cls(
            inputs=np.asarray(d["inputs"], dtype=float),
            targets=np.asarray(d["targets"], dtype=float),
            train_idx=np.asarray(d["train_idx"], dtype=int),
            test_idx=np.asarray(d["test_idx"], dtype=int),
        )


@dataclass
class TailoredTarget:
    """f(x) = sum_alpha sqrt(c_alpha) cos(omega^alpha . x) over the model's
    top-P eigenfrequencies."""

    frequencies: np.ndarray  # (P, n) integer frequency vectors
    coefficients: np.ndarray  # (P,) non-negative c_alpha

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.frequencies.shape[0] != self.coefficients.size:
            raise ValidationError("one coefficient per frequency required")
        if np.any(self.coefficients < 0):
            raise ValidationError("coefficients must be non-negative")

    @property
    def num_terms(self) -> int:
        return self.coefficients.size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        phases = x @ self.frequencies.T  # (m, P)
        return np.cos(phases) @ np.sqrt(self.coefficients)


@dataclass
class KrrModel:
    """Ridge parameter, training inputs, and dual coefficients solving
    (G + lambda I) a = y."""

    ridge: float
    train_inputs: np.ndarray
    dual_coef: np.ndarray


def default_ridge(gram: np.ndarray) -> float:
    return 1e-8 * float(np.mean(np.diagonal(gram)))


def krr_fit(
    gram: np.ndarray,
    y: np.ndarray,
    ridge: float,
    train_inputs: Optional[np.ndarray] = None,
) -> KrrModel:
    """Dual coefficients a = (G + lambda I)^{-1} y by a symmetric solve."""
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    if ridge <= 0:
        raise ValidationError("ridge must be positive")
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValidationError("gram must be square")
    if y.shape != (gram.shape[0],):
        raise ValidationError("target length must match gram size")
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(y))):
        raise ValidationError("non-finite inputs")
    m = gram.shape[0]
    a = np.linalg.solve(gram + ridge * np.eye(m), y)
    if train_inputs is None:
        train_inputs = np.empty((m, 0))
    return KrrModel(ridge=ridge, train_inputs=np.asarray(train_inputs), dual_coef=a)


def _eigen_rows(dec: MercerDecomposition, X: np.ndarray) -> np.ndarray:
    return np.array([dec.eigenfunctions_at(x) for x in X])


def _eigen_gram(dec: MercerDecomposition, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    return ((ex.conj() * dec.eigenvalues) @ ey.T).real


def cross_gram(kernel: KernelLike, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """K(x_i, y_j) for rows of X against rows of Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if isinstance(kernel, MercerDecomposition):
        return _eigen_gram(kernel, _eigen_rows(kernel, X), _eigen_rows(kernel, Y))
    return real_kernel_values(gram_block(kernel, X, Y))


def self_gram(kernel: KernelLike, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(kernel, MercerDecomposition):
        ex = _eigen_rows(kernel, X)
        return _eigen_gram(kernel, ex, ex)
    return gram_matrix_real(kernel, X)


def krr_predict(model: KrrModel, kernel: KernelLike, X_new: np.ndarray) -> np.ndarray:
    """f(x) = sum_i a_i K(x, x_i)."""
    k = cross_gram(kernel, X_new, model.train_inputs)
    return k @ model.dual_coef


def tailored_target(dec: MercerDecomposition, num_terms: int, rng) -> TailoredTarget:
    """Target supported on the model's top-P cosine eigenfunctions.

    Coefficients follow the model: c_alpha = eigenvalue_alpha times a uniform
    [0.5, 1.5] factor.  Requires a decomposition from the single-layer
    spectrum (which carries frequency bookkeeping).
    """
    freqs = getattr(dec, "frequencies", None)
    kinds = getattr(dec, "kinds", None)
    if freqs is None or kinds is None:
        raise ValidationError(
            "decomposition does not carry cosine frequency bookkeeping"
        )
    rng = np.random.default_rng(rng)
    cos_rows = [i for i, k in enumerate(kinds) if k == "cos"]
    if len(cos_rows) < num_terms:
        raise ValidationError(
            f"requested {num_terms} terms but only {len(cos_rows)} cosines"
        )
    take = cos_rows[:num_terms]
    frequencies = np.array([freqs[i] for i in take], dtype=float)
    gammas = dec.eigenvalues[take]
    coeffs = gammas * rng.uniform(0.5, 1.5, size=num_terms)
    return TailoredTarget(frequencies=frequencies, coefficients=coeffs)


def target_count(n: int) -> int:
    """P = 1 + n + n(n-1)/2 supported eigenfunctions."""
    return 1 + n + n * (n - 1) // 2


def generate_dataset(
    target: TailoredTarget,
    n: int,
    total: int,
    test_ratio: float,
    seed,
) -> Dataset:
    """Uniform inputs on [-pi, pi]^n with noiseless targets; the test block is
    ceil(test_ratio * total) points chosen by a seeded shuffle."""
    if total < 10:
        raise ValidationError("need at least 10 samples")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-np.pi, np.pi, size=(total, n))
    targets = target(inputs)
    perm = rng.permutation(total)
    n_test = math.ceil(test_ratio * total)
    return Dataset(
        inputs=inputs,
        targets=np.asarray(targets, dtype=float),
        train_idx=perm[: total - n_test],
        test_idx=perm[total - n_test :],
    )


def learning_curve(
    kernel: KernelLike,
    data: Dataset,
    schedule,
    ridge: Optional[float] = None,
) -> ResultTable:
    """Test MSE after fitting on the first m training points, per scheduled m."""
    g_train = self_gram(kernel, data.train_inputs)
    k_ct = cross_gram(kernel, data.test_inputs, data.train_inputs)
    return _curve(g_train, k_ct, data, schedule, ridge)


def _curve(g_train, k_ct, data: Dataset, schedule, ridge) -> ResultTable:
    """learning_curve from the train Gram and the test-train cross Gram."""
    schedule = [int(m) for m in schedule]
    if max(schedule) > data.train_idx.size:
        raise ValidationError("schedule exceeds the training set size")
    if ridge is None:
        ridge = default_ridge(g_train)
    y_train = data.train_targets
    y_test = data.test_targets
    table = ResultTable(["m", "mse"])
    for m in schedule:
        a = np.linalg.solve(g_train[:m, :m] + ridge * np.eye(m), y_train[:m])
        pred = k_ct[:, :m] @ a
        table.add(m, float(np.mean((pred - y_test) ** 2)))
    return table


def default_schedule(train_size: int, points: int = 10) -> list[int]:
    """Logarithmically spaced training sizes from 10 up to the full set."""
    lo = min(10, train_size)
    sizes = np.unique(
        np.round(np.geomspace(lo, train_size, points)).astype(int)
    )
    return [int(s) for s in sizes]


def kernel_target_alignment(gram: np.ndarray, y: np.ndarray) -> float:
    """<G, y y^T>_F / (||G||_F ||y y^T||_F), in [-1, 1]."""
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    gn = np.linalg.norm(gram)
    yy = np.outer(y, y)
    yn = np.linalg.norm(yy)
    if gn == 0 or yn == 0:
        raise ValidationError("alignment undefined for zero gram or targets")
    return float(np.sum(gram * yy) / (gn * yn))


def learning_comparison_experiment(
    n: int,
    models,
    instances: int,
    seed: int,
    schedule_points: int = 10,
    ridge: Optional[float] = None,
    zero_target: bool = False,
) -> ResultTable:
    """Learning curves on model-tailored targets for each ensemble.

    Per instance: draw the model's pre-encoding state, tailor a target to its
    top-P cosine eigenfunctions, generate 2 * 3^n samples at test ratio 0.2,
    and run kernel ridge regression over a log-spaced schedule.  With
    zero_target the targets are replaced by zeros (smoke-test mode).
    """
    total = 2 * 3**n
    p = target_count(n)
    table = ResultTable(["model", "instance", "m", "mse", "alignment"])
    for model_idx, model in enumerate(models):
        label = model_label(model)
        for inst in range(instances):
            rng = instance_rng(seed, model_idx, n, inst)
            psi2 = sample_psi2(model, n, rng)
            dec = spectrum_to_mercer(spectrum_arrays(psi2))
            target = tailored_target(dec, p, rng)
            data = generate_dataset(target, n, total, 0.2, rng)
            if zero_target:
                data.targets = np.zeros_like(data.targets)
            schedule = default_schedule(data.train_idx.size, schedule_points)
            g_train = self_gram(dec, data.train_inputs)
            k_ct = cross_gram(dec, data.test_inputs, data.train_inputs)
            curve = _curve(g_train, k_ct, data, schedule, ridge)
            if zero_target:
                align = 0.0
            else:
                align = kernel_target_alignment(g_train, data.train_targets)
            for m, mse in zip(curve.column("m"), curve.column("mse")):
                table.add(label, inst, m, mse, align)
    return table
