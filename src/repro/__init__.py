"""repro: a from-scratch reproduction of FrozenQubits (ASPLOS 2023).

FrozenQubits boosts the fidelity of QAOA on noisy quantum computers by
*freezing* the hotspot nodes of power-law problem graphs: substituting the
hotspot spins with ±1 partitions the state-space into sub-problems whose
circuits carry far fewer CNOTs and SWAPs, and spin-flip symmetry lets half
of the sub-problems be inferred for free.

Quickstart::

    from repro import (
        FrozenQubitsSolver, IsingHamiltonian, barabasi_albert_graph, get_backend,
    )

    graph = barabasi_albert_graph(12, attachment=1, seed=1)
    problem = IsingHamiltonian.from_graph(graph, weights="random_pm1", seed=2)
    result = FrozenQubitsSolver(num_frozen=2).solve(problem, get_backend("montreal"))
    print(result.best_spins, result.best_value)

The README's "Architecture" section maps the layers; ROADMAP.md holds
the open items.
"""

from repro.backend import (
    ExecutionBackend,
    FaultPolicy,
    ProcessPoolBackend,
    SerialBackend,
    set_default_backend,
)
from repro.faults import FaultInjection, InjectedFault
from repro.baselines import BaselineQAOA
from repro.cache import (
    SolveCache,
    canonical_ising_key,
    ising_fingerprint,
    set_default_cache,
)
from repro.circuit import Parameter, QuantumCircuit
from repro.core import (
    FrozenQubitsResult,
    solve_many,
    FrozenQubitsSolver,
    SolverConfig,
    recommend_num_frozen,
    select_hotspots,
)
from repro.devices import Device, get_backend, grid_device, list_backends
from repro.graphs import (
    ProblemGraph,
    barabasi_albert_graph,
    sk_graph,
    three_regular_graph,
)
from repro.ising import (
    IsingHamiltonian,
    anneal_many,
    brute_force_minimum,
    freeze_qubits,
    simulated_annealing,
)
from repro.planning import (
    ExecutionBudget,
    FreezePlan,
    FreezePlanner,
    plan_freeze,
    set_default_planning,
)
from repro.recursive import (
    FreezeTree,
    RecursiveConfig,
    RecursiveResult,
    plan_tree,
    solve_recursive,
)
from repro.qaoa import (
    approximation_ratio,
    approximation_ratio_gap,
    build_qaoa_circuit,
    build_qaoa_template,
    qaoa1_expectation,
)
from repro.service import (
    ServiceConfig,
    ServiceResult,
    SolveRequest,
    SolveService,
)
from repro.transpile import TranspileOptions, transpile

__version__ = "1.0.0"

__all__ = [
    "BaselineQAOA",
    "Device",
    "ExecutionBackend",
    "ExecutionBudget",
    "FaultInjection",
    "FaultPolicy",
    "FreezePlan",
    "FreezePlanner",
    "FreezeTree",
    "FrozenQubitsResult",
    "FrozenQubitsSolver",
    "InjectedFault",
    "IsingHamiltonian",
    "Parameter",
    "ProblemGraph",
    "ProcessPoolBackend",
    "QuantumCircuit",
    "RecursiveConfig",
    "RecursiveResult",
    "SerialBackend",
    "ServiceConfig",
    "ServiceResult",
    "SolveCache",
    "SolveRequest",
    "SolveService",
    "SolverConfig",
    "TranspileOptions",
    "approximation_ratio",
    "approximation_ratio_gap",
    "barabasi_albert_graph",
    "brute_force_minimum",
    "build_qaoa_circuit",
    "build_qaoa_template",
    "canonical_ising_key",
    "freeze_qubits",
    "ising_fingerprint",
    "get_backend",
    "grid_device",
    "list_backends",
    "plan_freeze",
    "plan_tree",
    "qaoa1_expectation",
    "recommend_num_frozen",
    "select_hotspots",
    "set_default_backend",
    "set_default_cache",
    "set_default_planning",
    "anneal_many",
    "simulated_annealing",
    "sk_graph",
    "solve_many",
    "solve_recursive",
    "three_regular_graph",
    "transpile",
]
