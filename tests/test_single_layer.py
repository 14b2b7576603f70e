import math

import numpy as np
import pytest

from conftest import HADAMARD, random_circuit
from etklab.errors import ValidationError
from etklab.mercer import mercer_decompose, reconstruct_kernel
from etklab.quantum import coordinate_circuit, etk_from_circuit, simulate_kernel
from etklab.single_layer import (
    HAAR_MODEL,
    concentrated_state,
    eigenvalue_scaling_experiment,
    haar_unitary,
    instance_rng,
    model_label,
    sample_psi2,
    single_layer_spectrum,
    spectrum_arrays,
    spectrum_to_mercer,
    unitary_from_state,
)


class TestHaarUnitary:
    def test_reproducible(self):
        a = haar_unitary(3, 11)
        b = haar_unitary(3, 11)
        assert np.abs(a - b).max() == 0.0

    def test_unitary(self, rng):
        w = haar_unitary(3, rng)
        assert np.abs(w.conj().T @ w - np.eye(8)).max() < 1e-12

    def test_haar_moment(self):
        # E |<0|W|0>|^2 = 1/2^n; var = 2/(d(d+1)) - 1/d^2
        n, draws = 2, 1000
        d = 2**n
        rng = np.random.default_rng(99)
        vals = [abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(draws)]
        mean = np.mean(vals)
        var = 2.0 / (d * (d + 1)) - 1.0 / d**2
        band = 3.0 * np.sqrt(var / draws)
        assert abs(mean - 1.0 / d) < band


class TestConcentratedState:
    def test_full_support(self, rng):
        state, _ = concentrated_state(3, 8, 0.5, rng)
        assert abs(state.psi2.sum() - 1.0) < 1e-12

    def test_basis_state(self, rng):
        state, w = concentrated_state(3, 1, 0.0, rng)
        assert np.count_nonzero(state.psi2 > 1e-15) == 1
        zero = np.zeros(8)
        zero[0] = 1.0
        assert np.abs(w @ zero - state.psi).max() < 1e-12

    def test_support_mass_and_unitary(self, rng):
        state, w = concentrated_state(5, 4, 0.001, rng)
        support = state.provenance["support"]
        assert state.psi2[support].sum() >= 0.999 - 1e-12
        zero = np.zeros(32)
        zero[0] = 1.0
        assert np.abs(w @ zero - state.psi).max() < 1e-12
        assert np.abs(w.conj().T @ w - np.eye(32)).max() < 1e-12

    def test_invalid_params(self, rng):
        with pytest.raises(ValidationError):
            concentrated_state(2, 5, 0.0, rng)
        with pytest.raises(ValidationError):
            concentrated_state(2, 2, 1.0, rng)


class TestUnitaryFromState:
    def test_maps_zero_to_state(self, rng):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        w = unitary_from_state(psi)
        zero = np.zeros(8)
        zero[0] = 1.0
        assert np.abs(w @ zero - psi).max() < 1e-12
        assert np.abs(w.conj().T @ w - np.eye(8)).max() < 1e-12


class TestSpectrum:
    def test_hadamard_values(self):
        terms = single_layer_spectrum(np.array([0.5, 0.5]))
        by_alpha = {t.alpha: t.eigenvalue for t in terms}
        assert abs(by_alpha["00"] - 0.5) < 1e-14
        assert abs(by_alpha["01"] - 0.25) < 1e-14
        assert abs(by_alpha["10"] - 0.25) < 1e-14

    def test_uniform_psi2(self):
        n = 3
        psi2 = np.full(2**n, 1.0 / 2**n)
        terms = single_layer_spectrum(psi2)
        by_alpha = {t.alpha: t.eigenvalue for t in terms}
        assert abs(by_alpha["00" * n] - 1.0 / 2**n) < 1e-13
        # degree-one terms: one site carries 01, the rest 00
        assert abs(by_alpha["01" + "00" * (n - 1)] - 1.0 / 2 ** (n + 1)) < 1e-13

    def test_index_set_oracle(self, rng):
        # n=2 completions: alpha=0000 sums over rows 00,01,10,11 with col=row;
        # alpha=0001 over (00,01) and (10,11); alpha=0101 only (00,11)
        psi2 = rng.dirichlet(np.ones(4))
        eig, _ = spectrum_arrays(psi2)
        assert abs(eig[0] - np.sum(psi2**2)) < 1e-14
        assert abs(eig[1] - (psi2[0] * psi2[1] + psi2[2] * psi2[3])) < 1e-14
        assert abs(eig[4] - psi2[0] * psi2[3]) < 1e-14

    def test_mass_conservation_and_conjugation(self, rng):
        psi2 = rng.dirichlet(np.ones(8))
        terms = single_layer_spectrum(psi2)
        assert abs(sum(t.eigenvalue for t in terms) - 1.0) < 1e-12
        by_alpha = {t.alpha: t.eigenvalue for t in terms}
        swap = {"00": "00", "01": "10", "10": "01"}
        for t in terms:
            pairs = [t.alpha[i : i + 2] for i in range(0, len(t.alpha), 2)]
            bar = "".join(swap[p] for p in pairs)
            assert by_alpha[bar] == t.eigenvalue

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            single_layer_spectrum(np.array([0.5, 0.6]))


class TestSpectrumToMercer:
    def test_hadamard(self):
        dec = spectrum_to_mercer(single_layer_spectrum(np.array([0.5, 0.5])))
        assert np.abs(
            dec.eigenvalues - np.array([0.5, 0.25, 0.25])
        ).max() < 1e-14

    def test_real_weights_sum_to_one(self, rng):
        psi2 = rng.dirichlet(np.ones(8))
        dec = spectrum_to_mercer(single_layer_spectrum(psi2))
        assert abs(dec.eigenvalues.sum() - 1.0) < 1e-12

    def test_reconstruction_matches_statevector(self, rng):
        n = 2
        w = haar_unitary(n, rng)
        circ = coordinate_circuit(n, [w])
        psi2 = np.abs(w[:, 0]) ** 2
        dec = spectrum_to_mercer(single_layer_spectrum(psi2))
        for _ in range(50):
            x = rng.uniform(-np.pi, np.pi, n)
            x2 = rng.uniform(-np.pi, np.pi, n)
            rec = reconstruct_kernel(dec, x, x2)
            assert abs(rec - simulate_kernel(circ, x, x2)) < 1e-9

    def test_matches_generic_pipeline(self, rng):
        n = 2
        w = haar_unitary(n, rng)
        circ = coordinate_circuit(n, [w])
        psi2 = np.abs(w[:, 0]) ** 2
        closed = np.sort(spectrum_to_mercer(single_layer_spectrum(psi2)).eigenvalues)
        dec, _ = mercer_decompose(etk_from_circuit(circ))
        generic = np.sort(dec.eigenvalues)
        generic = generic[generic > 1e-12]
        closed = closed[closed > 1e-12]
        assert len(generic) == len(closed)
        assert np.abs(generic - closed).max() < 1e-9


class TestScalingExperiment:
    def test_table_shape_and_determinism(self):
        models = [HAAR_MODEL, {"kind": "concentrated", "s": 2}]
        t1 = eigenvalue_scaling_experiment([2, 3], models, 2, 42)
        t2 = eigenvalue_scaling_experiment([2, 3], models, 2, 42)
        assert t1.to_csv() == t2.to_csv()
        # 2 models x 2 n-values x (2 instances + 1 aggregate)
        assert len(t1.rows) == 2 * 2 * 3

    def test_single_instance_std_zero(self):
        t = eigenvalue_scaling_experiment([2], [HAAR_MODEL], 1, 3)
        agg = [r for r in t.rows if r[2] == "aggregate"]
        assert len(agg) == 1
        assert agg[0][5] == 0.0

    def test_model_labels(self):
        assert model_label(HAAR_MODEL) == "haar"
        assert model_label({"kind": "concentrated", "s": 16}) == "concentrated_s16"

    def test_instance_rng_streams_differ(self):
        a = instance_rng(1, 0, 2, 0).uniform()
        b = instance_rng(1, 0, 2, 1).uniform()
        assert a != b

    def test_sample_psi2_normalized(self, rng):
        for model in (HAAR_MODEL, {"kind": "concentrated", "s": 4}):
            psi2 = sample_psi2(model, 3, rng)
            assert abs(psi2.sum() - 1.0) < 1e-12


class TestConcentratedEnsemble:
    """Criterion 07's ensemble: the largest eigenvalue is the omega = 0 term
    sum psi^4, which Cauchy-Schwarz bounds below by (1 - eps)^2 / s."""

    @pytest.mark.parametrize("model_idx, s", [(0, 4), (1, 16)])
    def test_largest_eigenvalue_is_sum_psi4_above_bound(self, model_idx, s):
        eps = 0.001
        model = {"kind": "concentrated", "s": s, "eps": eps}
        for n in range(max(math.ceil(math.log2(s)), 3), 7):
            for inst in range(30):
                psi2 = sample_psi2(model, n, instance_rng(700, model_idx, n, inst))
                largest = spectrum_arrays(psi2)[0].max()
                assert abs(largest - np.sum(psi2**2)) <= 1e-13
                assert largest >= (1 - eps) ** 2 / s
