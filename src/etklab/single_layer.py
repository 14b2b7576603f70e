"""Closed-form spectra of single-layer kernels from pre-encoding amplitudes.

For a single encoding layer U(x) = S(x) W on n qubits with phi_k(x) = x_k,
the kernel's Mercer spectrum is determined entirely by the squared amplitudes
psi^2 of the pre-encoding state |psi> = W|0...0>: each trit-pair index
alpha in {00, 01, 10}^n carries a frequency omega^alpha in {-1, 0, 1}^n and
eigenvalue sum_{I_alpha} psi^2_row psi^2_col, where I_alpha completes the
00-slots of alpha with 00 or 11.

The module also provides the Haar and (s, eps)-concentrated ensembles used
to compare flat and concentrated spectra, and the largest-eigenvalue scaling
experiment over those ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .mercer import (
    FunctionBasis,
    MercerDecomposition,
    QuadratureProvider,
)
from .tables import ResultTable

HAAR_MODEL = "haar"


@dataclass
class PreEncodingState:
    """Normalized amplitudes psi of W|0...0| with their provenance."""

    n: int
    psi: np.ndarray
    provenance: dict

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (2**self.n,):
            raise ValidationError("amplitude vector must have length 2^n")
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-12:
            raise ValidationError("amplitudes must be normalized")

    @property
    def psi2(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


@dataclass(frozen=True)
class FrequencyTerm:
    """One trit-pair index alpha with its frequency and eigenvalue."""

    alpha: str  # concatenated pairs, e.g. "000110"
    omega: tuple[int, ...]
    eigenvalue: float


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary on 2^n dims (QR of a complex Ginibre matrix
    with the phase correction)."""
    if n > 12:
        raise ValidationError("haar_unitary supports n <= 12")
    rng = np.random.default_rng(rng)
    dim = 2**n
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unitary_from_state(psi: np.ndarray) -> np.ndarray:
    """A unitary W with W|0> = psi (phased Householder reflection)."""
    psi = np.asarray(psi, dtype=complex)
    dim = psi.size
    phase = np.exp(1j * np.angle(psi[0])) if psi[0] != 0 else 1.0
    u = psi.copy()
    u[0] -= phase
    nrm2 = np.linalg.norm(u) ** 2
    if nrm2 < 1e-30:
        return phase * np.eye(dim, dtype=complex)
    h = np.eye(dim, dtype=complex) - (2.0 / nrm2) * np.outer(u, u.conj())
    return phase * h


def concentrated_state(
    n: int, s: int, eps: float, rng
) -> tuple[PreEncodingState, np.ndarray]:
    """(s, eps)-concentrated pre-encoding state and a unitary producing it.

    Mass 1 - eps is spread over s uniformly random support indices with
    Dirichlet(1, ..., 1) proportions; the remaining eps is spread uniformly
    over the complement.  All amplitudes get independent random phases.
    """
    dim = 2**n
    if not 1 <= s <= dim:
        raise ValidationError("need 1 <= s <= 2^n")
    if not 0 <= eps < 1:
        raise ValidationError("need 0 <= eps < 1")
    rng = np.random.default_rng(rng)
    support = np.sort(rng.choice(dim, size=s, replace=False))
    p = np.zeros(dim)
    if s == dim:
        p[support] = rng.dirichlet(np.ones(s))
    else:
        p[support] = (1.0 - eps) * rng.dirichlet(np.ones(s))
        rest = np.setdiff1d(np.arange(dim), support)
        p[rest] = eps / rest.size
    phases = np.exp(2j * np.pi * rng.uniform(size=dim))
    psi = np.sqrt(p) * phases
    psi /= np.linalg.norm(psi)
    state = PreEncodingState(
        n=n,
        psi=psi,
        provenance={"kind": "concentrated", "s": s, "eps": eps,
                    "support": support.tolist()},
    )
    return state, unitary_from_state(psi)


# ---------------------------------------------------------------------------
# Spectrum formula

def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) bits, qubit 1 most significant."""
    idx = np.arange(2**n)
    return (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1


def spectrum_arrays(psi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (3^n,) indexed by trit strings, and frequencies (3^n, n).

    Trit digit 0/1/2 at site k encodes the pair 00/01/10; the eigenvalue sums
    psi2_row * psi2_col over all (row, col) pairs whose per-qubit bit pairs
    reduce to the trit string (00 and 11 both complete a 00-slot).
    """
    psi2 = np.asarray(psi2, dtype=float)
    dim = psi2.size
    n = int(round(np.log2(dim)))
    if dim != 2**n:
        raise ValidationError("length must be a power of two")
    if np.any(psi2 < -1e-14) or abs(psi2.sum() - 1.0) > 1e-10:
        raise ValidationError("psi^2 must be a probability vector")
    bits = _bit_table(n)
    r = bits[:, None, :]  # row bits
    c = bits[None, :, :]  # col bits
    trits = np.where(r == c, 0, np.where(r < c, 1, 2))
    pow3 = 3 ** np.arange(n - 1, -1, -1)
    tidx = (trits * pow3).sum(axis=2)
    vals = np.outer(psi2, psi2)
    eig = np.zeros(3**n)
    np.add.at(eig, tidx.ravel(), vals.ravel())

    tr = np.arange(3**n)
    digits = (tr[:, None] // pow3) % 3
    omega = np.where(digits == 1, 1, np.where(digits == 2, -1, 0))
    return eig, omega


def single_layer_spectrum(psi2: np.ndarray) -> list[FrequencyTerm]:
    """All 3^n frequency terms of the single-layer kernel defined by psi^2."""
    eig, omega = spectrum_arrays(psi2)
    n = omega.shape[1]
    pow3 = 3 ** np.arange(n - 1, -1, -1)
    pair = {0: "00", 1: "01", 2: "10"}
    terms = []
    for t in range(eig.size):
        digits = [(t // p) % 3 for p in pow3]
        terms.append(
            FrequencyTerm(
                alpha="".join(pair[d] for d in digits),
                omega=tuple(int(v) for v in omega[t]),
                eigenvalue=float(eig[t]),
            )
        )
    return terms


def _canonical_positive(omega: np.ndarray) -> np.ndarray:
    """Mask of frequency vectors whose first nonzero entry is +1."""
    m = omega.shape[0]
    keep = np.zeros(m, dtype=bool)
    for i in range(m):
        w = omega[i]
        nz = np.nonzero(w)[0]
        keep[i] = nz.size > 0 and w[nz[0]] > 0
    return keep


def spectrum_to_mercer(
    terms: list[FrequencyTerm] | tuple[np.ndarray, np.ndarray],
) -> MercerDecomposition:
    """Mercer decomposition over the real Fourier basis on [-pi, pi]^n.

    The basis is {1} plus {sqrt(2) cos(w.x), sqrt(2) sin(w.x)} per canonical
    frequency; the conjugate pair alpha / alpha-bar contributes its common
    eigenvalue once to the cosine and once to the sine function.  The
    functions are orthonormal by construction; their basis declares
    quadrature (n <= 3) for callers that ask it for a Gram anyway.
    """
    if isinstance(terms, tuple):
        eig, omega = terms
    else:
        eig = np.array([t.eigenvalue for t in terms])
        omega = np.array([t.omega for t in terms], dtype=int)
    n = omega.shape[1]
    zero_idx = int(np.flatnonzero((omega == 0).all(axis=1))[0])
    keep = _canonical_positive(omega)

    eigenvalues = [eig[zero_idx]]
    funcs = [lambda x: 1.0 + 0.0j]
    freqs: list[tuple[int, ...]] = [(0,) * n]
    kinds = ["cos"]
    s = np.sqrt(2.0)
    for i in np.flatnonzero(keep):
        w = omega[i].astype(float)
        funcs.append(lambda x, w=w: s * np.cos(float(np.dot(w, x))) + 0.0j)
        eigenvalues.append(eig[i])
        freqs.append(tuple(int(v) for v in omega[i]))
        kinds.append("cos")
        funcs.append(lambda x, w=w: s * np.sin(float(np.dot(w, x))) + 0.0j)
        eigenvalues.append(eig[i])
        freqs.append(tuple(int(v) for v in omega[i]))
        kinds.append("sin")

    eigenvalues = np.asarray(eigenvalues, dtype=float)
    order = np.argsort(-eigenvalues, kind="stable")
    funcs = [funcs[i] for i in order]
    basis = FunctionBasis(
        lambda X: [np.array([[f(x) for f in funcs] for x in X], dtype=complex)],
        data_dim=n,
        provider=QuadratureProvider(),
    )
    m = eigenvalues.size
    dec = MercerDecomposition(
        eigenvalues=eigenvalues[order],
        coeffs=np.eye(m, dtype=complex),
        basis=basis,
        basis_description="real-fourier",
    )
    # frequency/kind bookkeeping for tailored learning targets
    dec.frequencies = [freqs[i] for i in order]  # type: ignore[attr-defined]
    dec.kinds = [kinds[i] for i in order]  # type: ignore[attr-defined]
    return dec


# ---------------------------------------------------------------------------
# Ensembles and the scaling experiment

def instance_rng(seed: int, model_idx: int, n: int, instance: int):
    """Deterministic per-cell RNG stream for reproducible parallel sweeps."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(model_idx), int(n), int(instance)])
    )


def model_label(model) -> str:
    if model == HAAR_MODEL:
        return "haar"
    return f"concentrated_s{int(model['s'])}"


def sample_psi2(model, n: int, rng) -> np.ndarray:
    """psi^2 of one model instance (haar or concentrated spec dict)."""
    if model == HAAR_MODEL:
        w = haar_unitary(n, rng)
        return np.abs(w[:, 0]) ** 2
    state, _ = concentrated_state(
        n, int(model["s"]), float(model.get("eps", 0.001)), rng
    )
    return state.psi2


def eigenvalue_scaling_experiment(
    n_range,
    models,
    instances: int,
    seed: int,
) -> ResultTable:
    """Largest Mercer eigenvalue per (model, n, instance), plus aggregates."""
    table = ResultTable(
        ["model", "n", "instance", "largest_eig", "mean", "std"]
    )
    for model_idx, model in enumerate(models):
        label = model_label(model)
        for n in n_range:
            largest = []
            for inst in range(instances):
                rng = instance_rng(seed, model_idx, n, inst)
                psi2 = sample_psi2(model, n, rng)
                eig, _ = spectrum_arrays(psi2)
                largest.append(float(eig.max()))
                table.add(label, n, inst, largest[-1], np.nan, np.nan)
            table.add(
                label,
                n,
                "aggregate",
                np.nan,
                float(np.mean(largest)),
                float(np.std(largest)),
            )
    return table
