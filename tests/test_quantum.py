import json

import numpy as np
import pytest

from conftest import HADAMARD, hadamard_circuit, random_circuit
from etklab.errors import ResourceCapError, ValidationError
from etklab.etk import evaluate_real
from etklab.quantum import (
    StandardFormCircuit,
    build_A,
    build_core_CT,
    build_O_prime,
    build_rho,
    coordinate_circuit,
    etk_from_circuit,
    simulate_kernel,
    trace_form_kernel,
)
from etklab.tensor_core import is_hermitian, min_eig_ratio


class TestSimulateKernel:
    def test_equal_arguments(self, rng):
        circ = random_circuit(2, 2, rng)
        x = rng.uniform(-np.pi, np.pi, circ.data_dim)
        assert abs(simulate_kernel(circ, x, x) - 1.0) < 1e-12

    def test_hadamard_closed_form(self, rng):
        circ = hadamard_circuit()
        for _ in range(30):
            x = rng.uniform(-np.pi, np.pi, 1)
            x2 = rng.uniform(-np.pi, np.pi, 1)
            expect = (1.0 + np.cos(x[0] - x2[0])) / 2.0
            assert abs(simulate_kernel(circ, x, x2) - expect) < 1e-12
        assert (
            abs(simulate_kernel(circ, np.array([0.0]), np.array([np.pi])))
            < 1e-12
        )

    def test_identity_unitary_trivial_kernel(self, rng):
        circ = coordinate_circuit(1, [np.eye(2)])
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, 1)
            x2 = rng.uniform(-np.pi, np.pi, 1)
            assert abs(simulate_kernel(circ, x, x2) - 1.0) < 1e-12

    def test_cap(self, rng):
        circ = random_circuit(2, 1, rng)
        with pytest.raises(ResourceCapError):
            simulate_kernel(circ, np.zeros(2), np.zeros(2), cap_qubits=1)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            coordinate_circuit(1, [np.array([[1.0, 0.0], [0.0, 2.0]])])

    def test_nan_unitary_rejected(self):
        # NaN passes the unitarity check, since NaN > 1e-12 is False
        with pytest.raises(ValidationError, match="finite"):
            coordinate_circuit(1, [np.array([[1.0, 0.0], [0.0, np.nan]])])


class TestExtractionOperators:
    def test_single_layer_identities(self, rng):
        circ = random_circuit(2, 1, rng)
        w = circ.unitaries[0]
        o_prime = build_O_prime(circ)
        rho = build_rho(circ)
        assert np.abs(o_prime - np.eye(4)).max() < 1e-13
        zero = np.zeros(4)
        zero[0] = 1.0
        expect_rho = np.outer(w @ zero, (w @ zero).conj())
        assert np.abs(rho - expect_rho).max() < 1e-13

    def test_hadamard_rho_is_plus_state(self):
        circ = hadamard_circuit()
        rho = build_rho(circ)
        assert np.abs(rho - 0.5 * np.ones((2, 2))).max() < 1e-14

    def test_two_layer_psd(self, rng):
        circ = random_circuit(1, 2, rng)
        for op in (build_O_prime(circ), build_rho(circ), build_A(circ)):
            assert is_hermitian(op, rtol=1e-10)
            assert min_eig_ratio(op) >= -1e-10

    def test_single_layer_A_is_diag_psi2(self, rng):
        circ = random_circuit(2, 1, rng)
        psi = circ.unitaries[0][:, 0]
        a = build_A(circ)
        assert np.abs(a - np.diag(np.abs(psi) ** 2)).max() < 1e-13

    def test_hadamard_A(self):
        a = build_A(hadamard_circuit())
        assert np.abs(a - np.diag([0.5, 0.5])).max() < 1e-14


class TestTraceForm:
    def test_matches_statevector(self, rng):
        for n, num_layers in [(1, 1), (1, 2), (2, 2), (1, 3), (1, 4)]:
            circ = random_circuit(n, num_layers, rng)
            for _ in range(20):
                x = rng.uniform(-np.pi, np.pi, circ.data_dim)
                x2 = rng.uniform(-np.pi, np.pi, circ.data_dim)
                a = trace_form_kernel(circ, x, x2)
                b = simulate_kernel(circ, x, x2)
                assert abs(a - b) < 1e-12


class TestCoreCT:
    def test_hadamard_identity3(self):
        circ = hadamard_circuit()
        for route in ("dense", "ptm"):
            ct = build_core_CT(circ, route=route)
            assert np.abs(ct - np.eye(3)).max() < 1e-10

    def test_identity_unitary(self):
        circ = coordinate_circuit(1, [np.eye(2)])
        ct = build_core_CT(circ, route="ptm")
        assert np.abs(ct - np.diag([2.0, 0.0, 0.0])).max() < 1e-12

    def test_routes_agree(self, rng):
        circ = random_circuit(2, 2, rng)
        dense = build_core_CT(circ, route="dense")
        ptm = build_core_CT(circ, route="ptm")
        assert np.abs(dense - ptm).max() <= 1e-10 * np.abs(dense).max()

    def test_structure(self, rng):
        circ = random_circuit(2, 2, rng)
        ct = build_core_CT(circ, route="ptm")
        assert np.isrealobj(ct)
        assert np.abs(ct - ct.T).max() < 1e-10 * np.abs(ct).max()
        assert min_eig_ratio(ct.astype(complex)) >= -1e-10

    def test_dense_route_cap(self, rng):
        circ = random_circuit(2, 3, rng)  # 6 sites
        with pytest.raises(ResourceCapError):
            build_core_CT(circ, route="dense")


class TestEtkFromCircuit:
    def test_hadamard_closed_form(self, rng):
        kernel = etk_from_circuit(hadamard_circuit())
        for _ in range(30):
            x = rng.uniform(-np.pi, np.pi, 1)
            x2 = rng.uniform(-np.pi, np.pi, 1)
            expect = (1.0 + np.cos(x[0] - x2[0])) / 2.0
            assert abs(evaluate_real(kernel, x, x2) - expect) < 1e-10

    def test_diagonal_normalization(self, rng):
        circ = random_circuit(2, 1, rng)
        kernel = etk_from_circuit(circ)
        x = rng.uniform(-np.pi, np.pi, circ.data_dim)
        assert abs(evaluate_real(kernel, x, x) - 1.0) < 1e-10

    def test_random_two_qubit_against_oracle(self, rng):
        circ = random_circuit(2, 1, rng)
        kernel = etk_from_circuit(circ)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-np.pi, np.pi, circ.data_dim)
            x2 = rng.uniform(-np.pi, np.pi, circ.data_dim)
            worst = max(
                worst,
                abs(
                    evaluate_real(kernel, x, x2) - simulate_kernel(circ, x, x2)
                ),
            )
        assert worst <= 1e-9

    def test_repeated_coordinates(self, rng):
        # several sites reading the same data coordinate
        circ = random_circuit(2, 2, rng, data_dim=2)
        kernel = etk_from_circuit(circ)
        for _ in range(50):
            x = rng.uniform(-np.pi, np.pi, 2)
            x2 = rng.uniform(-np.pi, np.pi, 2)
            assert abs(
                evaluate_real(kernel, x, x2) - simulate_kernel(circ, x, x2)
            ) <= 1e-9


class TestCircuitSerialization:
    def test_roundtrip(self, rng):
        circ = random_circuit(2, 2, rng)
        back = StandardFormCircuit.from_json(circ.to_json())
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, circ.data_dim)
            x2 = rng.uniform(-np.pi, np.pi, circ.data_dim)
            assert abs(
                simulate_kernel(circ, x, x2) - simulate_kernel(back, x, x2)
            ) < 1e-14

    def test_json_fields(self):
        payload = json.loads(hadamard_circuit().to_json())
        assert payload["n"] == 1
        assert payload["L"] == 1
        assert len(payload["W"]) == 1
        assert len(payload["phi"]) == 1
