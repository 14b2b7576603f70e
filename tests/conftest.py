import numpy as np
import pytest
from hypothesis import settings

from etklab.quantum import StandardFormCircuit, coordinate_circuit
from etklab.single_layer import haar_unitary

# Property tests draw the same examples on every run, however long each takes.
settings.register_profile("etklab", derandomize=True, deadline=None)
settings.load_profile("etklab")

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_circuit(n, num_layers, rng, data_dim=None):
    """Standard-form circuit with Haar layer unitaries and coordinate maps."""
    ws = [haar_unitary(n, rng) for _ in range(num_layers)]
    return coordinate_circuit(n, ws, data_dim=data_dim)


def hadamard_circuit():
    """n=1, L=1, W=H, phi(x) = x."""
    return coordinate_circuit(1, [HADAMARD])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
