"""Ablation: depolarizing model vs stochastic Pauli-trajectory simulation.

The scalable depolarizing model must agree with the faithful trajectory
simulator on noisy expectations — this is the substitution claim of the
``repro.sim`` docstring, quantified here on several small instances.
"""

import numpy as np

from benchmarks.conftest import scale
from repro.experiments import render_table
from repro.experiments.workloads import ba_suite
from repro.qaoa.circuits import build_qaoa_circuit
from repro.sim import (
    NoiseModel,
    circuit_fidelity,
    expectation_from_counts,
    expectation_from_probabilities,
    noisy_expectation,
    probabilities,
    readout_factors,
    term_expectations_from_probabilities,
    trajectory_counts,
)


def test_noise_model_agreement(benchmark):
    suite = ba_suite(sizes=scale((5, 6), (5, 6, 7, 8)), trials=scale(1, 2), seed=111)
    trajectories = scale(200, 800)
    shots = scale(20_000, 60_000)

    def run():
        rows = []
        for workload in suite:
            h = workload.hamiltonian
            n = h.num_qubits
            circuit = build_qaoa_circuit(h, [0.5], [0.4])
            model = NoiseModel.uniform(
                n, cx_error=0.03, single_qubit_error=0.0, readout_error=0.02,
                t1_us=1e9, t2_us=1e9,
            )
            counts = trajectory_counts(
                circuit, model, shots=shots, trajectories=trajectories,
                seed=5, include_idle_errors=False,
            )
            trajectory_ev = expectation_from_counts(h, counts)
            ideal_probs = probabilities(circuit)
            z, zz = term_expectations_from_probabilities(h, ideal_probs)
            fidelity = circuit_fidelity(circuit, model, include_idle_errors=False)
            model_ev = noisy_expectation(
                h, z, zz, fidelity, readout_factors(model, list(range(n)))
            )
            ideal_ev = expectation_from_probabilities(h, ideal_probs)
            rows.append(
                {
                    "workload": workload.name,
                    "ideal_ev": ideal_ev,
                    "trajectory_ev": trajectory_ev,
                    "depolarizing_ev": model_ev,
                    "model_error": abs(trajectory_ev - model_ev),
                    "noise_shift": abs(trajectory_ev - ideal_ev),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: depolarizing vs trajectory noise"))
    model_errors = [row["model_error"] for row in rows]
    noise_shifts = [row["noise_shift"] for row in rows]
    # The model's disagreement with the faithful simulator is small compared
    # with the size of the noise effect it models.
    assert np.mean(model_errors) < 0.5 * max(np.mean(noise_shifts), 0.1)
