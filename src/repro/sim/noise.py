"""Stochastic Pauli-trajectory noise simulation.

The faithful (but small-scale) noise reference: every gate fails with its
calibrated probability, drawing a uniform non-identity Pauli on the touched
qubits; every scheduling layer exposes idle qubits to T1/T2 errors (Pauli
twirling approximation: X with the relaxation probability, Z with the pure
dephasing probability); readout flips each measured bit independently.

Averaging many trajectories converges to the true Pauli-channel density
matrix; tests validate the scalable depolarizing model against this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Instruction, QuantumCircuit
from repro.circuit.dag import circuit_layers
from repro.devices.calibration import DeviceCalibration
from repro.devices.device import Device
from repro.exceptions import SimulationError
from repro.sim.sampling import Counts, OutcomeTable, draw_flip_masks
from repro.sim.statevector import simulate_statevector
from repro.utils.rng import ensure_rng

_PAULI_1Q = ("x", "y", "z")
#: Non-identity two-qubit Pauli pairs (15 of them), as (first, second) with
#: None meaning identity on that wire.
_PAULI_2Q: tuple[tuple["str | None", "str | None"], ...] = tuple(
    (a, b)
    for a in (None, "x", "y", "z")
    for b in (None, "x", "y", "z")
    if not (a is None and b is None)
)


@dataclass(frozen=True)
class NoiseModel:
    """Gate/readout/idle error rates for a circuit's wires.

    Attributes:
        cx_error: Map (a, b) sorted pair -> CX depolarizing probability.
        single_qubit_error: Per-wire error probability of physical 1q gates.
        readout_error: Per-wire measurement flip probability.
        t1_us: Per-wire relaxation time (microseconds).
        t2_us: Per-wire dephasing time (microseconds).
        durations_ns: Gate name -> duration (drives idle exposure).
    """

    cx_error: dict[tuple[int, int], float]
    single_qubit_error: list[float]
    readout_error: list[float]
    t1_us: list[float]
    t2_us: list[float]
    durations_ns: dict[str, float]

    @classmethod
    def from_device(cls, device: Device) -> "NoiseModel":
        """Noise model over a device's physical wires."""
        cal = device.calibration
        return cls(
            cx_error=dict(cal.cx_error),
            single_qubit_error=list(cal.single_qubit_error),
            readout_error=list(cal.readout_error),
            t1_us=list(cal.t1_us),
            t2_us=list(cal.t2_us),
            durations_ns=dict(cal.durations_ns),
        )

    @classmethod
    def uniform(
        cls,
        num_qubits: int,
        cx_error: float = 0.01,
        single_qubit_error: float = 0.0005,
        readout_error: float = 0.02,
        t1_us: float = 100.0,
        t2_us: float = 100.0,
    ) -> "NoiseModel":
        """Flat all-to-all noise model (for logical circuits in tests)."""
        edges = {
            (i, j): cx_error
            for i in range(num_qubits)
            for j in range(i + 1, num_qubits)
        }
        from repro.devices.calibration import DEFAULT_DURATIONS_NS

        return cls(
            cx_error=edges,
            single_qubit_error=[single_qubit_error] * num_qubits,
            readout_error=[readout_error] * num_qubits,
            t1_us=[t1_us] * num_qubits,
            t2_us=[t2_us] * num_qubits,
            durations_ns=dict(DEFAULT_DURATIONS_NS),
        )

    def gate_error(self, instruction: Instruction) -> float:
        """Error probability of one instruction."""
        name = instruction.name
        if name in ("barrier", "measure", "rz", "p"):
            return 0.0
        if name == "cx" or name == "cz":
            a, b = instruction.qubits
            key = (min(a, b), max(a, b))
            value = self.cx_error.get(key)
            if value is None:
                raise SimulationError(f"no CX error rate for wire pair {key}")
            return value
        if name in ("swap", "rzz"):
            a, b = instruction.qubits
            key = (min(a, b), max(a, b))
            base = self.cx_error.get(key)
            if base is None:
                raise SimulationError(f"no CX error rate for wire pair {key}")
            factor = 3 if name == "swap" else 2
            return 1.0 - (1.0 - base) ** factor
        return self.single_qubit_error[instruction.qubits[0]]


def _idle_error_probs(
    model: NoiseModel, duration_ns: float, qubit: int
) -> tuple[float, float]:
    """(relaxation, dephasing) probabilities for an idle window."""
    t1_ns = model.t1_us[qubit] * 1000.0
    t2_ns = model.t2_us[qubit] * 1000.0
    p_relax = 1.0 - np.exp(-duration_ns / t1_ns) if t1_ns > 0 else 0.0
    # Pure dephasing rate: 1/T_phi = 1/T2 - 1/(2 T1), clipped at zero.
    if t2_ns > 0:
        rate_phi = max(1.0 / t2_ns - 0.5 / t1_ns, 0.0)
        p_dephase = 1.0 - np.exp(-duration_ns * rate_phi)
    else:
        p_dephase = 0.0
    return p_relax, p_dephase


def trajectory_counts(
    circuit: QuantumCircuit,
    model: NoiseModel,
    shots: int = 1024,
    trajectories: int = 64,
    seed: "int | np.random.Generator | None" = None,
    include_idle_errors: bool = True,
) -> Counts:
    """Sample measurement outcomes under stochastic Pauli noise.

    Args:
        circuit: Bound circuit (symbolic angles rejected by the simulator).
        model: Noise rates for the circuit's wires.
        shots: Total measurement shots, split evenly across trajectories.
        trajectories: Number of independent noisy circuit realisations.
        seed: RNG seed or generator.
        include_idle_errors: Apply T1/T2 exposure per scheduling layer.

    Returns:
        Counts over the circuit's qubits with readout errors applied.
    """
    if trajectories < 1:
        raise SimulationError(f"trajectories must be >= 1, got {trajectories}")
    if shots < trajectories:
        trajectories = max(shots, 1)
    rng = ensure_rng(seed)
    n = circuit.num_qubits
    layers = circuit_layers(circuit)
    base_shots = shots // trajectories
    remainder = shots - base_shots * trajectories
    readout = np.asarray(model.readout_error[:n], dtype=float)
    drawn: list[np.ndarray] = []
    for trajectory in range(trajectories):
        noisy = QuantumCircuit(n, name=f"{circuit.name}#traj{trajectory}")
        for layer in layers:
            layer_duration = max(
                (model.durations_ns.get(op.name, 0.0) for op in layer), default=0.0
            )
            for op in layer:
                if op.name == "measure":
                    continue
                noisy.append(op)
                p_err = model.gate_error(op)
                if p_err > 0.0 and rng.random() < p_err:
                    if len(op.qubits) == 1:
                        pauli = _PAULI_1Q[int(rng.integers(3))]
                        noisy.append(Instruction(pauli, (op.qubits[0],)))
                    else:
                        pa, pb = _PAULI_2Q[int(rng.integers(len(_PAULI_2Q)))]
                        if pa is not None:
                            noisy.append(Instruction(pa, (op.qubits[0],)))
                        if pb is not None:
                            noisy.append(Instruction(pb, (op.qubits[1],)))
            if include_idle_errors and layer_duration > 0.0:
                # Busy qubits decohere during their gate; idle qubits wait
                # out the whole layer — same exposure at layer resolution.
                for qubit in range(n):
                    p_relax, p_dephase = _idle_error_probs(
                        model, layer_duration, qubit
                    )
                    if p_relax > 0.0 and rng.random() < p_relax / 2.0:
                        noisy.append(Instruction("x", (qubit,)))
                    if p_dephase > 0.0 and rng.random() < p_dephase / 2.0:
                        noisy.append(Instruction("z", (qubit,)))
        take = base_shots + (1 if trajectory < remainder else 0)
        table = OutcomeTable(np.abs(simulate_statevector(noisy)) ** 2, n)
        drawn.append(table.draw(take, rng) ^ draw_flip_masks(readout, take, rng))
    return Counts.from_samples(np.concatenate(drawn), n)


def noise_model_for_transpiled(
    calibration: DeviceCalibration,
) -> NoiseModel:
    """Noise model addressing *physical* wires of a transpiled circuit."""
    return NoiseModel(
        cx_error=dict(calibration.cx_error),
        single_qubit_error=list(calibration.single_qubit_error),
        readout_error=list(calibration.readout_error),
        t1_us=list(calibration.t1_us),
        t2_us=list(calibration.t2_us),
        durations_ns=dict(calibration.durations_ns),
    )
