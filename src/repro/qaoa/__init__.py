"""QAOA: circuits, expectations, metrics, classical optimization.

Implements the algorithm of paper Sec. 2.1: a p-layer parametric circuit
with 2p parameters (gamma_l, beta_l), trained by a classical optimizer on
expectation values of the problem Hamiltonian. The p=1 expectation has a
closed form (Ozaeta-van Dam-McMahon), cross-validated against the
statevector simulator, which makes landscape scans (paper Fig. 12) and
large-instance ideal expectations cheap.
"""

from repro.qaoa.analytic import (
    QAOA1Structure,
    qaoa1_expectation,
    qaoa1_expectation_and_grad,
    qaoa1_expectations_batch,
    qaoa1_term_expectations,
    qaoa1_term_expectations_batch,
)
from repro.qaoa.circuits import QAOATemplate, build_qaoa_circuit, build_qaoa_template
from repro.qaoa.executor import (
    EvaluationContext,
    batch_objective,
    evaluate_batch,
    evaluate_ideal,
    evaluate_noisy,
    make_context,
    value_and_grad_objective,
)
from repro.qaoa.objective import approximation_ratio, approximation_ratio_gap
from repro.qaoa.optimizer import (
    BatchEvaluateFn,
    LandscapeScan,
    OptimizationResult,
    ValueAndGradFn,
    landscape_scan,
    optimize_qaoa,
)

__all__ = [
    "BatchEvaluateFn",
    "EvaluationContext",
    "LandscapeScan",
    "OptimizationResult",
    "QAOA1Structure",
    "QAOATemplate",
    "ValueAndGradFn",
    "approximation_ratio",
    "approximation_ratio_gap",
    "batch_objective",
    "build_qaoa_circuit",
    "build_qaoa_template",
    "evaluate_batch",
    "evaluate_ideal",
    "evaluate_noisy",
    "landscape_scan",
    "make_context",
    "optimize_qaoa",
    "qaoa1_expectation",
    "qaoa1_expectation_and_grad",
    "qaoa1_expectations_batch",
    "qaoa1_term_expectations",
    "qaoa1_term_expectations_batch",
    "value_and_grad_objective",
]
