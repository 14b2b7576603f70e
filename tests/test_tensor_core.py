import numpy as np
import pytest

from etklab.errors import ResourceCapError, StructuralError, ValidationError
from etklab.tensor_core import (
    LPMPO,
    MPO,
    SiteStructure,
    hadamard_product,
    lpmpo_materialize,
    lpmpo_sandwich,
    min_eig_ratio,
    mpo_from_dense,
    mpo_from_json,
    mpo_to_dense,
    mpo_to_json,
    sandwich_contract,
    vertical_tensor_product,
)


def random_psd(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m @ m.conj().T


def random_mpo(dims, chi, rng):
    sites = []
    bonds = [1] + [chi] * (len(dims) - 1) + [1]
    for k, d in enumerate(dims):
        shape = (bonds[k], d, d, bonds[k + 1])
        sites.append(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
    return MPO(sites)


@pytest.mark.parametrize("cls", [MPO, LPMPO])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_site_entries_rejected(cls, bad):
    site = np.ones((1, 2, 2, 1), dtype=complex)
    site[0, 1, 0, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        cls([np.ones((1, 2, 2, 1)), site])


class TestMpoFromDense:
    def test_identity_bond_one(self):
        mpo = mpo_from_dense(np.eye(4), SiteStructure((2, 2)), 0.0)
        assert mpo.max_bond() == 1
        assert np.abs(mpo_to_dense(mpo) - np.eye(4)).max() < 1e-12

    def test_kronecker_of_diagonals(self):
        m = np.diag([3.0, 4.0, 6.0, 8.0])  # diag(1,2) kron diag(3,4)
        mpo = mpo_from_dense(m, SiteStructure((2, 2)), 0.0)
        assert mpo.max_bond() == 1
        assert np.abs(mpo_to_dense(mpo) - m).max() < 1e-12

    def test_random_hermitian_psd_roundtrip(self, rng):
        m = random_psd(8, rng)
        mpo = mpo_from_dense(m, SiteStructure((2, 2, 2)), 0.0)
        err = np.linalg.norm(mpo_to_dense(mpo) - m)
        assert err <= 1e-10 * np.linalg.norm(m)

    def test_roundtrip_various_sizes(self, rng):
        for dims in [(2,), (3, 3), (2, 3, 4), (2, 2, 2, 2)]:
            total = int(np.prod(dims))
            m = rng.standard_normal((total, total)) + 1j * rng.standard_normal(
                (total, total)
            )
            mpo = mpo_from_dense(m, SiteStructure(dims), 0.0)
            err = np.abs(mpo_to_dense(mpo) - m).max()
            assert err <= 1e-12 * np.abs(m).max()

    def test_truncation_error_bound(self, rng):
        m = random_psd(16, rng)
        tol = 1e-3
        mpo = mpo_from_dense(m, SiteStructure((2, 2, 2, 2)), tol)
        err = np.linalg.norm(mpo_to_dense(mpo) - m)
        assert err <= tol * np.linalg.norm(m)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            mpo_from_dense(np.eye(4), SiteStructure((2, 3)), 0.0)


class TestMpoToDense:
    def test_bond_one_kron(self):
        sites = [
            np.diag([1.0, 2.0]).reshape(1, 2, 2, 1),
            np.diag([3.0, 4.0]).reshape(1, 2, 2, 1),
        ]
        out = mpo_to_dense(MPO(sites))
        assert np.abs(out - np.diag([3.0, 4.0, 6.0, 8.0])).max() < 1e-14

    def test_single_site(self, rng):
        m = rng.standard_normal((3, 3))
        out = mpo_to_dense(MPO([m.reshape(1, 3, 3, 1)]))
        assert np.abs(out - m).max() < 1e-14

    def test_cap_exceeded(self, rng):
        mpo = random_mpo((4,) * 6, 2, rng)
        with pytest.raises(ResourceCapError):
            mpo_to_dense(mpo, cap=100)


class TestSandwichContract:
    def test_identity_core_normalized(self, rng):
        sites = [np.eye(3).reshape(1, 3, 3, 1)] * 4
        core = MPO(sites)
        locals_ = []
        for _ in range(4):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            locals_.append(v / np.linalg.norm(v))
        val = sandwich_contract(locals_, core, locals_)
        assert abs(val - 1.0) < 1e-12

    def test_product_core_factorizes(self, rng):
        ds = [rng.standard_normal((2, 2)) for _ in range(3)]
        core = MPO([d.reshape(1, 2, 2, 1) for d in ds])
        bras = [rng.standard_normal(2) for _ in range(3)]
        kets = [rng.standard_normal(2) for _ in range(3)]
        val = sandwich_contract(bras, core, kets)
        expect = np.prod([b.conj() @ d @ k for b, d, k in zip(bras, ds, kets)])
        assert abs(val - expect) < 1e-12

    def test_against_dense_oracle(self, rng):
        core = random_mpo((3,) * 5, 3, rng)
        dense = mpo_to_dense(core)
        bras = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        kets = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        val = sandwich_contract(bras, core, kets)
        from functools import reduce

        big_bra = reduce(np.kron, bras)
        big_ket = reduce(np.kron, kets)
        expect = big_bra.conj() @ dense @ big_ket
        assert abs(val - expect) <= 1e-10 * max(abs(expect), 1.0)

    def test_dim_mismatch(self, rng):
        core = random_mpo((3, 3), 2, rng)
        with pytest.raises(StructuralError):
            sandwich_contract([np.ones(2), np.ones(3)], core, [np.ones(3)] * 2)


class TestLpmpo:
    def test_identity_x(self):
        sites = [np.eye(2).reshape(1, 2, 2, 1)] * 3
        lp = LPMPO(sites)
        c = lpmpo_materialize(lp)
        assert np.abs(c - np.eye(8)).max() < 1e-13

    def test_random_psd(self, rng):
        sites = []
        bonds = [1, 2, 2, 1]
        for k in range(3):
            shape = (bonds[k], 3, 2, bonds[k + 1])
            sites.append(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
        lp = LPMPO(sites)
        c = lpmpo_materialize(lp)
        assert np.abs(c - c.conj().T).max() < 1e-10 * np.abs(c).max()
        assert min_eig_ratio(c) >= -1e-10

    def test_zero_site_gives_zero(self, rng):
        sites = [
            rng.standard_normal((1, 2, 2, 2)),
            np.zeros((2, 2, 2, 1)),
        ]
        c = lpmpo_materialize(LPMPO(sites))
        assert np.abs(c).max() == 0.0

    def test_sandwich_matches_dense(self, rng):
        sites = []
        bonds = [1, 2, 2, 1]
        for k in range(3):
            shape = (bonds[k], 3, 2, bonds[k + 1])
            sites.append(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
        lp = LPMPO(sites)
        dense = lpmpo_materialize(lp)
        bras = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        kets = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        from functools import reduce

        expect = reduce(np.kron, bras).conj() @ dense @ reduce(np.kron, kets)
        val = lpmpo_sandwich(bras, lp, kets)
        assert abs(val - expect) <= 1e-10 * max(abs(expect), 1.0)


class TestVerticalTensorProduct:
    def test_single_site_is_kron(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        out = vertical_tensor_product(a, b, SiteStructure((2,)))
        assert np.abs(out - np.diag([3.0, 4.0, 6.0, 8.0])).max() < 1e-14

    def test_two_site_index_oracle(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = vertical_tensor_product(a, b, SiteStructure((2, 2)))
        # entry (i1 i2 i3 i4; j1 j2 j3 j4) = a[i1 i3, j1 j3] * b[i2 i4, j2 j4]
        for row in range(16):
            i = [(row >> (3 - t)) & 1 for t in range(4)]
            for col in range(16):
                j = [(col >> (3 - t)) & 1 for t in range(4)]
                expect = (
                    a[2 * i[0] + i[2], 2 * j[0] + j[2]]
                    * b[2 * i[1] + i[3], 2 * j[1] + j[3]]
                )
                assert abs(out[row, col] - expect) < 1e-13

    def test_identity(self):
        out = vertical_tensor_product(np.eye(4), np.eye(4), SiteStructure((2, 2)))
        assert np.abs(out - np.eye(16)).max() < 1e-14

    def test_three_site_local_dim_two(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        out = vertical_tensor_product(a, b, SiteStructure((2, 2, 2)))
        for row in [0, 7, 21, 63, 40]:
            i = [(row >> (5 - t)) & 1 for t in range(6)]
            for col in [0, 5, 33, 63, 17]:
                j = [(col >> (5 - t)) & 1 for t in range(6)]
                ai = 4 * i[0] + 2 * i[2] + i[4]
                aj = 4 * j[0] + 2 * j[2] + j[4]
                bi = 4 * i[1] + 2 * i[3] + i[5]
                bj = 4 * j[1] + 2 * j[3] + j[5]
                assert abs(out[row, col] - a[ai, aj] * b[bi, bj]) < 1e-13


class TestHadamardProduct:
    def test_identity_mask_selects_diagonal(self, rng):
        a = rng.standard_normal((4, 4))
        out = hadamard_product(a, np.eye(4))
        assert np.abs(out - np.diag(np.diagonal(a))).max() < 1e-14

    def test_trace_identity(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dm = np.diag(d)
        lhs = np.trace(dm.conj().T @ a @ dm @ b)
        rhs = d.conj() @ hadamard_product(a, b.T) @ d
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_schur_product_psd(self, rng):
        a = random_psd(4, rng)
        b = random_psd(4, rng)
        assert min_eig_ratio(hadamard_product(a, b)) >= -1e-10

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            hadamard_product(np.eye(2), np.eye(3))


class TestSerialization:
    def test_mpo_roundtrip(self, rng):
        mpo = random_mpo((2, 3, 2), 2, rng)
        back = mpo_from_json(mpo_to_json(mpo))
        assert isinstance(back, MPO)
        assert np.abs(mpo_to_dense(back) - mpo_to_dense(mpo)).max() < 1e-14

    def test_lpmpo_roundtrip(self, rng):
        sites = [rng.standard_normal((1, 2, 2, 2)), rng.standard_normal((2, 2, 2, 1))]
        lp = LPMPO(sites)
        back = mpo_from_json(mpo_to_json(lp))
        assert isinstance(back, LPMPO)
        assert (
            np.abs(lpmpo_materialize(back) - lpmpo_materialize(lp)).max() < 1e-14
        )
