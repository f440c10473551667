"""The global-depolarizing noise model: the scalable hardware stand-in.

QAOA circuits scramble local errors efficiently, so the aggregate effect of
many weak Pauli channels is well approximated by one global depolarizing
channel: with probability ``F`` the circuit behaves ideally, with
probability ``1 - F`` the output is the maximally mixed state. Under that
channel an Ising observable's expectation becomes

    EV_noisy = offset + F * sum_i h_i <Z_i> * r_i
                      + F * sum_ij J_ij <Z_i Z_j> * r_i * r_j

where ``r_q = 1 - 2 * readout_error_q`` is the independent readout
attenuation of each measured wire (``E[flip(z)] = (1-2p) E[z]``).

``F`` multiplies per-gate success probabilities and per-qubit decoherence
survival over the scheduled circuit duration — the same ingredients as the
paper's EPS metric (Sec. 6.3). More gates and depth => smaller F => the
expectation collapses toward the offset, which is exactly the ARG
degradation the paper measures on hardware; FrozenQubits' smaller
sub-circuits keep F high. The trajectory simulator validates this model in
tests at small scale.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import circuit_layers
from repro.exceptions import SimulationError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.expectation import combine_term_expectations
from repro.sim.noise import NoiseModel
from repro.sim.sampling import (
    Counts,
    OutcomeTable,
    draw_flip_masks,
    outcome_table,
)
from repro.utils.rng import ensure_rng


def circuit_fidelity(
    circuit: QuantumCircuit,
    model: NoiseModel,
    include_idle_errors: bool = True,
) -> float:
    """Success probability F of a circuit under a noise model.

    ``F = prod_gates (1 - eps_gate) * prod_qubits exp(-T / T1_q) *
    exp(-T * max(1/T2_q - 1/(2 T1_q), 0))`` with ``T`` the ASAP-schedule
    duration. Readout is *not* folded in (it attenuates terms separately).
    """
    fidelity = 1.0
    for instruction in circuit:
        error = model.gate_error(instruction)
        fidelity *= 1.0 - error
    if include_idle_errors:
        duration_ns = 0.0
        for layer in circuit_layers(circuit):
            duration_ns += max(
                (model.durations_ns.get(op.name, 0.0) for op in layer), default=0.0
            )
        measured = _touched_qubits(circuit)
        for qubit in measured:
            t1_ns = model.t1_us[qubit] * 1000.0
            t2_ns = model.t2_us[qubit] * 1000.0
            if t1_ns > 0:
                fidelity *= float(np.exp(-duration_ns / t1_ns))
            if t2_ns > 0 and t1_ns > 0:
                rate_phi = max(1.0 / t2_ns - 0.5 / t1_ns, 0.0)
                fidelity *= float(np.exp(-duration_ns * rate_phi))
    return float(fidelity)


def _touched_qubits(circuit: QuantumCircuit) -> list[int]:
    touched: set[int] = set()
    for instruction in circuit:
        if instruction.name != "barrier":
            touched.update(instruction.qubits)
    return sorted(touched)


def readout_factors(
    model: NoiseModel, measured_wires: "list[int] | None" = None
) -> dict[int, float]:
    """Per-logical-qubit attenuation ``1 - 2 p_ro`` of spin expectations.

    Args:
        model: Noise model whose wires carry readout rates.
        measured_wires: Physical wire of each logical qubit (index =
            logical); defaults to the identity mapping.
    """
    if measured_wires is None:
        measured_wires = list(range(len(model.readout_error)))
    return {
        logical: 1.0 - 2.0 * model.readout_error[wire]
        for logical, wire in enumerate(measured_wires)
    }


def decoherence_factors(
    model: NoiseModel,
    duration_ns: float,
    measured_wires: "list[int] | None" = None,
) -> dict[int, float]:
    """Per-logical-qubit decoherence attenuation over a circuit's duration.

    Decoherence acts *locally*: a ``Z_i`` expectation decays with qubit i's
    own T1/T2 exposure, not with every other qubit's. Treating it per-qubit
    (like readout) instead of folding it into the global fidelity keeps the
    model faithful for expectation values of few-body observables — the
    global product is the right thing only for the all-or-nothing EPS
    metric (Sec. 6.3), which lives in :mod:`repro.analysis.eps`.

    Args:
        model: Noise model whose wires carry T1/T2.
        duration_ns: Scheduled circuit duration.
        measured_wires: Physical wire per logical qubit; identity default.
    """
    if measured_wires is None:
        measured_wires = list(range(len(model.t1_us)))
    factors: dict[int, float] = {}
    for logical, wire in enumerate(measured_wires):
        t1_ns = model.t1_us[wire] * 1000.0
        t2_ns = model.t2_us[wire] * 1000.0
        decay = 1.0
        if t1_ns > 0:
            decay *= float(np.exp(-duration_ns / t1_ns))
            if t2_ns > 0:
                rate_phi = max(1.0 / t2_ns - 0.5 / t1_ns, 0.0)
                decay *= float(np.exp(-duration_ns * rate_phi))
        factors[logical] = decay
    return factors


def noisy_expectation(
    hamiltonian: IsingHamiltonian,
    ideal_z: dict[int, float],
    ideal_zz: dict[tuple[int, int], float],
    fidelity: float,
    readout: "dict[int, float] | None" = None,
) -> float:
    """Noisy Ising expectation under global depolarizing + readout noise.

    Args:
        hamiltonian: The observable.
        ideal_z: Ideal ``<Z_i>`` for every qubit with non-zero ``h_i``.
        ideal_zz: Ideal ``<Z_i Z_j>`` for every quadratic term.
        fidelity: Circuit success probability F in [0, 1].
        readout: Per-qubit attenuation factors (default: no readout error).

    Raises:
        SimulationError: On missing term expectations or bad fidelity.
    """
    return combine_term_expectations(
        hamiltonian, ideal_z, ideal_zz, fidelity=fidelity, readout=readout
    )


def flip_probabilities_from_factors(
    attenuation: dict[int, float], num_qubits: int
) -> np.ndarray:
    """Convert per-qubit Z-attenuation factors into bit-flip probabilities.

    A factor ``r`` on ``<Z>`` is exactly the effect of an independent
    bit-flip channel with ``p = (1 - r) / 2`` — this is how the sampling
    path realises the combined readout + decoherence attenuation the
    expectation path applies analytically.
    """
    flips = np.zeros(num_qubits)
    for qubit, factor in attenuation.items():
        if 0 <= qubit < num_qubits:
            flips[qubit] = float(np.clip((1.0 - factor) / 2.0, 0.0, 0.5))
    return flips


def noisy_counts(
    ideal_probs: "np.ndarray | OutcomeTable",
    fidelity: float,
    model: NoiseModel,
    shots: int,
    num_qubits: int,
    measured_wires: "list[int] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    flip_probabilities: "np.ndarray | None" = None,
) -> Counts:
    """Sample from the depolarized-and-readout-corrupted distribution.

    The sampled distribution is ``F * p_ideal + (1 - F) * uniform`` followed
    by independent per-bit flips (readout errors by default; pass
    ``flip_probabilities`` to fold in decoherence attenuation too, keeping
    sampling consistent with :func:`noisy_expectation`). The mixture is
    split, not built: ``Binomial(shots, F)`` shots come from the ideal
    :class:`~repro.sim.sampling.OutcomeTable` and the rest are uniform
    integers, then every shot takes its flip mask, so the cost grows with
    the shots and not with ``2**n``.

    Args:
        ideal_probs: Ideal distribution of length ``2**num_qubits``, or
            its prebuilt (possibly masked) outcome table. It is checked
            as :class:`~repro.sim.sampling.OutcomeTable` checks it, so a
            zero total raises even when ``F < 1``, and it is normalised
            on its own: an unnormalised vector still gets weight ``F``.
        fidelity: Circuit success probability F in [0, 1].
        model: Noise model whose wires carry the readout rates.
        shots: Number of samples.
        num_qubits: Qubit count (defines the key space).
        measured_wires: Physical wire of each of the ``num_qubits``
            logical qubits (identity default); selects the readout rates.
        seed: RNG seed or generator.
        flip_probabilities: Per-qubit flip rates that replace the readout
            rates.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise SimulationError(f"fidelity must be in [0, 1], got {fidelity}")
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    table = outcome_table(ideal_probs, num_qubits)
    if flip_probabilities is not None:
        flip_probs = np.asarray(flip_probabilities, dtype=float)
        if flip_probs.shape != (num_qubits,):
            raise SimulationError(
                f"flip_probabilities must have length {num_qubits}"
            )
    else:
        wires = range(num_qubits) if measured_wires is None else measured_wires
        if len(wires) != num_qubits:
            raise SimulationError(
                f"measured_wires must have length {num_qubits}, got {len(wires)}"
            )
        flip_probs = np.asarray(
            [model.readout_error[w] for w in wires], dtype=float
        )
    rng = ensure_rng(seed)
    ideal_shots = int(rng.binomial(shots, fidelity))
    outcomes = np.concatenate((
        table.draw(ideal_shots, rng),
        rng.integers(0, 1 << num_qubits, size=shots - ideal_shots),
    ))
    if flip_probs.any():
        outcomes ^= draw_flip_masks(flip_probs, shots, rng)
    return Counts.from_samples(outcomes, num_qubits)
