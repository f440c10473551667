"""Quantum-circuit simulation: ideal statevector, sampling, noise models.

Three execution fidelities, trading accuracy for scale:

* **ideal** — dense statevector (exact, <= 24 qubits);
* **trajectory** — stochastic Pauli-error trajectories over the statevector
  (faithful gate/readout/idle noise for small circuits; the validation
  reference);
* **depolarizing** — the global-depolarizing analytic model: the noisy
  expectation of an Ising observable is the ideal expectation scaled by a
  circuit fidelity computed from calibration data, plus independent readout
  attenuation. This is the scalable stand-in for the paper's real-hardware
  runs and is validated against the trajectory simulator in tests.
"""

from repro.sim.depolarizing import (
    circuit_fidelity,
    noisy_counts,
    noisy_expectation,
    readout_factors,
)
from repro.sim.expectation import (
    combine_term_expectations,
    expectation_from_counts,
    expectation_from_probabilities,
    term_expectations_from_probabilities,
    term_sign_matrix,
)
from repro.sim.noise import NoiseModel, trajectory_counts
from repro.sim.qaoa_kernel import (
    qaoa_expectations_batch,
    qaoa_probabilities,
    qaoa_probabilities_batch,
    qaoa_statevector,
    qaoa_statevectors_batch,
    qaoa_value_and_grad,
)
from repro.sim.sampling import Counts, sample_counts
from repro.sim.statevector import (
    probabilities,
    simulate_statevector,
    uniform_superposition,
)

__all__ = [
    "Counts",
    "NoiseModel",
    "circuit_fidelity",
    "combine_term_expectations",
    "expectation_from_counts",
    "expectation_from_probabilities",
    "noisy_counts",
    "noisy_expectation",
    "probabilities",
    "qaoa_expectations_batch",
    "qaoa_probabilities",
    "qaoa_probabilities_batch",
    "qaoa_statevector",
    "qaoa_statevectors_batch",
    "qaoa_value_and_grad",
    "readout_factors",
    "sample_counts",
    "simulate_statevector",
    "term_expectations_from_probabilities",
    "term_sign_matrix",
    "trajectory_counts",
    "uniform_superposition",
]
