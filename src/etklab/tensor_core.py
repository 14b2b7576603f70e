"""Dense operators, matrix product operators, and the contraction primitives.

Matrices are plain complex numpy arrays in row-major order.  A matrix acting
on a product of local spaces is indexed site-major: site 1 is the most
significant digit of the row/column index, exactly as ``np.kron`` builds it.

An MPO stores one rank-4 tensor per site with index order
(bond_left, row, col, bond_right); boundary bonds have dimension 1.  A
locally purified MPO (LPMPO) stores rank-4 tensors (bond_left, physical,
purification, bond_right) for an operator X, and represents the positive
semidefinite core C = X X^dagger.

The Gram contractions (dense_gram, mpo_gram, lpmpo_gram) take bra and ket
features as one (m, d_k) array per site and return all m x m' values
<bra_i| C |ket_j> at once; sandwich_contract and lpmpo_sandwich are their
one-row case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, StructuralError, ValidationError

DEFAULT_DENSE_CAP = 4**10  # max number of entries of a materialized matrix
GRAM_BLOCK_ROWS = 64  # rows a side per block of the batched MPO/LPMPO sweeps


@dataclass(frozen=True)
class SiteStructure:
    """Decomposition of a big index into per-site local dimensions."""

    local_dims: tuple[int, ...]

    def __post_init__(self):
        if not self.local_dims or any(d < 1 for d in self.local_dims):
            raise StructuralError("all local dimensions must be >= 1")
        object.__setattr__(self, "local_dims", tuple(int(d) for d in self.local_dims))

    @property
    def num_sites(self) -> int:
        return len(self.local_dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.local_dims)


def min_eig_ratio(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, relative to its trace."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    tr = max(abs(np.trace(m).real), 1e-300)
    return float(w.min() / tr)


def _check_finite(arrays, what: str):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"{what} entries must be finite")


@dataclass
class MPO:
    """Matrix product operator: rank-4 site tensors (chi_l, row, col, chi_r)."""

    sites: list[np.ndarray]

    def __post_init__(self):
        if not self.sites:
            raise StructuralError("MPO needs at least one site")
        self.sites = [np.asarray(t, dtype=complex) for t in self.sites]
        for t in self.sites:
            if t.ndim != 4:
                raise StructuralError("MPO site tensors must have 4 indices")
        _check_finite(self.sites, "MPO")
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[-1] != 1:
            raise StructuralError("boundary bond dimensions must be 1")
        for a, b in zip(self.sites, self.sites[1:]):
            if a.shape[-1] != b.shape[0]:
                raise StructuralError(
                    f"adjacent bond dims mismatch: {a.shape[-1]} vs {b.shape[0]}"
                )

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.sites)

    def bond_dims(self) -> list[int]:
        return [t.shape[0] for t in self.sites] + [1]

    def max_bond(self) -> int:
        return max(self.bond_dims())


@dataclass
class LPMPO:
    """Locally purified MPO for X; the core it represents is X X^dagger."""

    sites: list[np.ndarray]  # (chi_l, physical d, purification p, chi_r)

    def __post_init__(self):
        if not self.sites:
            raise StructuralError("LPMPO needs at least one site")
        self.sites = [np.asarray(t, dtype=complex) for t in self.sites]
        for t in self.sites:
            if t.ndim != 4:
                raise StructuralError("LPMPO site tensors must have 4 indices")
        _check_finite(self.sites, "LPMPO")
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[-1] != 1:
            raise StructuralError("boundary bond dimensions must be 1")
        for a, b in zip(self.sites, self.sites[1:]):
            if a.shape[-1] != b.shape[0]:
                raise StructuralError("adjacent bond dims mismatch")

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.sites)


def _check_cap(entries: int, cap: int):
    if entries > cap:
        raise ResourceCapError(
            f"dense materialization of {entries} entries exceeds cap {cap}"
        )


def mpo_from_dense(
    matrix: np.ndarray,
    structure: SiteStructure,
    trunc_tol: float = 0.0,
) -> MPO:
    """Factor a dense matrix into an MPO by sequential SVD sweeps.

    Singular values are discarded, smallest first, while the accumulated
    squared discarded weight stays below (trunc_tol * ||matrix||_F)^2 split
    evenly over the bonds; the round-trip Frobenius error is then bounded by
    trunc_tol * ||matrix||_F.
    """
    if trunc_tol < 0:
        raise StructuralError("trunc_tol must be >= 0")
    matrix = np.asarray(matrix, dtype=complex)
    dims = structure.local_dims
    n = len(dims)
    total = structure.total_dim
    if matrix.shape != (total, total):
        raise StructuralError(
            f"matrix shape {matrix.shape} does not match site dims {dims}"
        )
    fro = np.linalg.norm(matrix)
    # bring the legs into per-site (row, col) pairs
    t = matrix.reshape(dims + dims)
    order = []
    for k in range(n):
        order += [k, n + k]
    t = np.transpose(t, order)

    budget = (trunc_tol * fro) ** 2 / max(n - 1, 1)
    sites = []
    chi = 1
    rest = t.reshape(chi * dims[0] * dims[0], -1)
    for k in range(n - 1):
        u, s, vh = np.linalg.svd(rest, full_matrices=False)
        keep = len(s)
        if trunc_tol == 0.0:
            cutoff = (s[0] if len(s) else 0.0) * 1e-14
            while keep > 1 and s[keep - 1] <= cutoff:
                keep -= 1
        else:
            discarded = 0.0
            while keep > 1 and discarded + s[keep - 1] ** 2 <= budget:
                discarded += s[keep - 1] ** 2
                keep -= 1
        sites.append(u[:, :keep].reshape(chi, dims[k], dims[k], keep))
        rest = s[:keep, None] * vh[:keep]
        chi = keep
        if k + 1 < n - 1:
            rest = rest.reshape(chi * dims[k + 1] * dims[k + 1], -1)
    sites.append(rest.reshape(chi, dims[-1], dims[-1], 1))
    return MPO(sites)


def mpo_to_dense(mpo: MPO, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Contract all bonds of an MPO into a dense matrix."""
    dims = mpo.local_dims
    total = math.prod(dims)
    _check_cap(total * total, cap)
    res = np.ones((1, 1, 1), dtype=complex)  # (rows, cols, bond)
    for t in mpo.sites:
        res = np.einsum("ija,arcb->irjcb", res, t)
        r, dr, c, dc, b = res.shape
        res = res.reshape(r * dr, c * dc, b)
    return res[:, :, 0]


def _feature_rows(feats, dims, what: str) -> list[np.ndarray]:
    """Per-site (m, d_k) complex arrays, checked against the site dims."""
    if len(feats) != len(dims):
        raise StructuralError(f"number of local vectors must match {what} sites")
    rows = [np.asarray(f, dtype=complex) for f in feats]
    m = rows[0].shape[0] if rows[0].ndim == 2 else -1
    for f, d in zip(rows, dims):
        if f.shape != (m, d):
            raise StructuralError(f"local vector dims do not match {what} site dims")
    return rows


def _blocked(sweep, bra, sites, ket) -> np.ndarray:
    """Run a sweep on every (GRAM_BLOCK_ROWS x GRAM_BLOCK_ROWS) block of
    bra rows against ket rows, so its intermediates stay bounded."""
    m, mk, b = bra[0].shape[0], ket[0].shape[0], GRAM_BLOCK_ROWS
    out = np.empty((m, mk), dtype=complex)
    for i in range(0, m, b):
        for j in range(0, mk, b):
            out[i : i + b, j : j + b] = sweep(
                [f[i : i + b] for f in bra], sites, [f[j : j + b] for f in ket]
            )
    return out


def kron_rows(feats) -> np.ndarray:
    """Kronecker-stacked rows: row i is feats[0][i] (x) feats[1][i] (x) ..."""
    rows = np.asarray(feats[0], dtype=complex)
    for f in feats[1:]:
        rows = (rows[:, :, None] * np.asarray(f)[:, None, :]).reshape(rows.shape[0], -1)
    return rows


def dense_gram(bra_feats, core: np.ndarray, ket_feats) -> np.ndarray:
    """G[i, j] = <bra_i| C |ket_j> with a dense core, as conj(F) C F'^T on the
    Kronecker-stacked rows.  feats are per-site (m, d_k) arrays; bra rows are
    conjugated.  Cost O(m D^2 + m m' D) for core dimension D."""
    bra = kron_rows(bra_feats)
    ket = bra if ket_feats is bra_feats else kron_rows(ket_feats)
    if core.shape != (bra.shape[1], ket.shape[1]):
        raise StructuralError("feature dimension does not match the dense core")
    return (bra.conj() @ core) @ ket.T


def _mpo_sweep(bra, sites, ket) -> np.ndarray:
    """One block of mpo_gram.  env[j, i, b] holds ket row j, bra row i and
    the right bond b of the sites contracted so far."""
    mi, mj = bra[0].shape[0], ket[0].shape[0]
    env = np.ones((mj, mi, 1), dtype=complex)
    for t, fb, fk in zip(sites, bra, ket):
        chl, d, dk, chr_ = t.shape
        u = (fk @ t.transpose(2, 0, 1, 3).reshape(dk, -1)).reshape(mj, chl, d * chr_)
        # ket leg, one matmul per ket row: (mi, chl) @ (chl, d chr)
        w = (env @ u).reshape(mj, mi, d, chr_).transpose(1, 2, 0, 3)
        # bra leg, one matmul per bra row: (1, d) @ (d, mj chr)
        w = fb.conj()[:, None, :] @ w.reshape(mi, d, mj * chr_)
        env = w.reshape(mi, mj, chr_).transpose(1, 0, 2)
    return env[:, :, 0].T


def mpo_gram(bra_feats, core: MPO, ket_feats) -> np.ndarray:
    """G[i, j] = <bra_i| C |ket_j> with an MPO core, for per-site (m, d_k)
    bra and (m', d_k) ket feature arrays; bra rows are conjugated.  The
    environment sweep carries the sample axes (m, m', chi): cost
    O(m m' d^2 chi^2) per site, in blocks of GRAM_BLOCK_ROWS rows a side."""
    bra = _feature_rows(bra_feats, [t.shape[1] for t in core.sites], "MPO")
    ket = _feature_rows(ket_feats, [t.shape[2] for t in core.sites], "MPO")
    return _blocked(_mpo_sweep, bra, core.sites, ket)


def sandwich_contract(
    bra_locals: list[np.ndarray],
    core: MPO,
    ket_locals: list[np.ndarray],
) -> complex:
    """<(x) bra_1 x ... x bra_N | C | ket_1 x ... x ket_N> with an MPO core.

    The bra vectors are conjugated.  Cost is O(d^2 chi^2) per site; this is
    the one-row case of mpo_gram.
    """
    bra = [np.asarray(v)[None] for v in bra_locals]
    ket = [np.asarray(v)[None] for v in ket_locals]
    return complex(mpo_gram(bra, core, ket)[0, 0])


def lpmpo_materialize(lp: LPMPO, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense core C = X X^dagger of a locally purified MPO."""
    d_total = math.prod(t.shape[1] for t in lp.sites)
    p_total = math.prod(t.shape[2] for t in lp.sites)
    _check_cap(max(d_total * d_total, d_total * p_total), cap)
    x = mpo_to_dense(MPO([t for t in lp.sites]), cap=max(cap, d_total * p_total))
    return x @ x.conj().T


def _lpmpo_sweep(bra, sites, ket) -> np.ndarray:
    """One block of lpmpo_gram.  env[j, i, a, c] holds ket row j, bra row i,
    the bond a of X (bra side) and the bond c of conj(X) (ket side)."""
    mi, mj = bra[0].shape[0], ket[0].shape[0]
    env = np.ones((mj, mi, 1, 1), dtype=complex)
    for t, fb, fk in zip(sites, bra, ket):
        chl, d, p, chr_ = t.shape
        flat = t.transpose(1, 0, 2, 3).reshape(d, chl * p * chr_)
        bot = (fk @ flat.conj()).reshape(mj, chl, p * chr_)
        top = (fb.conj() @ flat).reshape(mi, chl * p, chr_).transpose(0, 2, 1)
        # ket half, one matmul per ket row: (mi a, c) @ (c, p e)
        r = (env.reshape(mj, mi * chl, chl) @ bot).reshape(mj, mi, chl * p, chr_)
        # bra half, one matmul per bra row: (b, a p) @ (a p, mj e)
        r = top @ r.transpose(1, 2, 0, 3).reshape(mi, chl * p, mj * chr_)
        env = r.reshape(mi, chr_, mj, chr_).transpose(2, 0, 1, 3)
    return env[:, :, 0, 0].T


def lpmpo_gram(bra_feats, lp: LPMPO, ket_feats) -> np.ndarray:
    """G[i, j] = <bra_i| X X^dagger |ket_j> via two half-contractions per
    site, never forming C.  The sweep carries the sample axes
    (m, m', chi, chi): cost O(m m' p chi^3) per site, in blocks of
    GRAM_BLOCK_ROWS rows a side."""
    dims = [t.shape[1] for t in lp.sites]
    bra = _feature_rows(bra_feats, dims, "LPMPO")
    ket = _feature_rows(ket_feats, dims, "LPMPO")
    return _blocked(_lpmpo_sweep, bra, lp.sites, ket)


def lpmpo_sandwich(
    bra_locals: list[np.ndarray],
    lp: LPMPO,
    ket_locals: list[np.ndarray],
) -> complex:
    """<bra| X X^dagger |ket> via two half-contractions, never forming C;
    the one-row case of lpmpo_gram."""
    bra = [np.asarray(v)[None] for v in bra_locals]
    ket = [np.asarray(v)[None] for v in ket_locals]
    return complex(lpmpo_gram(bra, lp, ket)[0, 0])


# ---------------------------------------------------------------------------
# JSON serialization

def complex_entries(t: np.ndarray) -> list[float]:
    """Entries of a complex array as a flat list of interleaved (re, im)."""
    flat = np.asarray(t, dtype=complex).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def complex_from_entries(entries, shape, field: str) -> np.ndarray:
    """Inverse of complex_entries; a list that is not 2 * prod(shape) floats
    raises StructuralError naming the JSON field."""
    size = 2 * math.prod(shape)
    try:
        arr = np.array(entries, dtype=float)  # a fresh, contiguous copy
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{field} must be a flat list of floats") from exc
    if arr.shape != (size,):
        raise StructuralError(
            f"{field} must hold {size} floats, got shape {arr.shape}"
        )
    # a view keeps every bit, the sign of a zero imaginary part included
    return arr.view(complex).reshape(shape)


def mpo_to_json(op: MPO | LPMPO) -> str:
    kind = "mpo" if isinstance(op, MPO) else "lpmpo"
    payload = {
        "kind": kind,
        "sites": [
            {"dims": list(t.shape), "entries": complex_entries(t)}
            for t in op.sites
        ],
    }
    return json.dumps(payload)


def mpo_from_json(text: str) -> MPO | LPMPO:
    payload = json.loads(text)
    sites = [
        complex_from_entries(s["entries"], s["dims"], f"operator site {k} entries")
        for k, s in enumerate(payload["sites"])
    ]
    if payload["kind"] == "mpo":
        return MPO(sites)
    if payload["kind"] == "lpmpo":
        return LPMPO(sites)
    raise StructuralError(f"unknown operator kind {payload['kind']!r}")
