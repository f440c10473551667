"""The eight IBMQ backends of the paper, plus the Sec.-6 grid device.

Montreal, Toronto, Mumbai, Auckland, Hanoi and Cairo are 27-qubit Falcon
processors (exact published coupling map); Brooklyn is a 65-qubit
Hummingbird and Washington a 127-qubit Eagle (parametric heavy-hex trimmed
to the exact qubit counts). Calibrations are *synthetic but seeded per
backend* inside published IBMQ ranges — the per-machine noise profile is
what Fig. 13's cross-machine study exercises, and seeding makes every run
reproducible. Real calibration data cannot be fetched offline.
"""

from __future__ import annotations

from functools import lru_cache

from repro.devices.calibration import sampled_calibration, uniform_calibration
from repro.devices.device import Device
from repro.devices.topologies import (
    grid_coupling,
    heavy_hex_coupling,
    heavy_hex_falcon27,
)
from repro.exceptions import DeviceError

#: name -> (family, num_qubits, calibration seed, cx-error median)
#: Medians differ per machine to model the better/worse devices of Fig. 13.
IBM_BACKENDS: dict[str, dict] = {
    "ibm_montreal": {"family": "falcon", "qubits": 27, "seed": 101, "cx_median": 0.005},
    "ibm_toronto": {"family": "falcon", "qubits": 27, "seed": 102, "cx_median": 0.009},
    "ibm_mumbai": {"family": "falcon", "qubits": 27, "seed": 103, "cx_median": 0.006},
    "ibm_auckland": {"family": "falcon", "qubits": 27, "seed": 104, "cx_median": 0.004},
    "ibm_hanoi": {"family": "falcon", "qubits": 27, "seed": 105, "cx_median": 0.005},
    "ibm_cairo": {"family": "falcon", "qubits": 27, "seed": 106, "cx_median": 0.006},
    "ibm_brooklyn": {
        "family": "hummingbird", "qubits": 65, "seed": 107, "cx_median": 0.008,
    },
    "ibm_washington": {
        "family": "eagle", "qubits": 127, "seed": 108, "cx_median": 0.007,
    },
}

def _coupling_for(family: str, qubits: int):
    if family == "falcon":
        return heavy_hex_falcon27()
    if family == "hummingbird":
        return heavy_hex_coupling(num_rows=4, row_length=14, trim_to=qubits)
    if family == "eagle":
        return heavy_hex_coupling(num_rows=7, row_length=15, trim_to=qubits)
    raise DeviceError(f"unknown backend family {family!r}")


@lru_cache(maxsize=None)
def _build_backend(key: str) -> Device:
    """Construct (and memoise) one device model.

    ``lru_cache`` makes the registry thread-safe: concurrent callers may
    race to *build* the same device once each, but the cache insertion is
    lock-protected, every caller gets a fully-constructed object, and
    subsequent lookups converge on one canonical instance — unlike the
    plain module-level dict this replaces, which could expose a
    half-populated entry under threaded use.
    """
    spec = IBM_BACKENDS[key]
    coupling = _coupling_for(spec["family"], spec["qubits"])
    calibration = sampled_calibration(
        coupling, seed=spec["seed"], cx_error_median=spec["cx_median"]
    )
    return Device(name=key, coupling=coupling, calibration=calibration)


def get_backend(name: str) -> Device:
    """Look up one of the paper's IBMQ backends by name.

    Accepts both ``"ibm_montreal"`` and the short form ``"montreal"``.
    Thread-safe: concurrent lookups of the same name return one shared,
    fully-constructed :class:`~repro.devices.device.Device`.

    Raises:
        DeviceError: For unknown backend names.
    """
    key = name if name.startswith("ibm_") else f"ibm_{name}"
    if key not in IBM_BACKENDS:
        raise DeviceError(
            f"unknown backend {name!r}; known: {sorted(IBM_BACKENDS)}"
        )
    return _build_backend(key)


def list_backends() -> list[str]:
    """Names of all modelled IBMQ backends."""
    return sorted(IBM_BACKENDS)


def grid_device(
    rows: int = 50,
    cols: int = 50,
    cx_error: float = 0.001,
    readout_error: float = 0.005,
    decoherence_us: float = 500.0,
) -> Device:
    """The Sec.-6 practical-scale device: a grid with the paper's optimistic
    error model (0.1% CX, 0.5% readout, 500 us decoherence)."""
    coupling = grid_coupling(rows, cols)
    calibration = uniform_calibration(
        coupling,
        cx_error=cx_error,
        readout_error=readout_error,
        t1_us=decoherence_us,
        t2_us=decoherence_us,
    )
    return Device(name=f"grid{rows}x{cols}", coupling=coupling, calibration=calibration)
