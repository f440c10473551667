"""Classical parameter optimization and landscape scans.

The paper's outer loop (Fig. 1(a)): propose parameters, read the circuit's
expectation value, update. Strategy here: a coarse (gamma, beta) grid seed
(p=1) or random multistart (p>1), refined with L-BFGS-B.

The objective comes in two forms (see
:func:`repro.qaoa.executor.batch_objective` and
:func:`repro.qaoa.executor.value_and_grad_objective`): a *batched* one
(``evaluate_batch``: matrices of shape ``(P, p)`` in, values ``(P,)``
out), through which the grid seeding scan, the warm-start acceptance test
and the full landscape scan each run as one vectorized kernel call; and a
*gradient* one (``value_and_grad``: one pass returning the expectation
*and* its exact gradient w.r.t. all 2p parameters), which feeds the
L-BFGS-B refinement.

``landscape_scan`` reproduces the paper's Fig. 12 protocol: evaluate the
approximation ratio over a full 2-D parameter grid instead of a single
optimizer path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np
from scipy import optimize as sciopt

from repro.exceptions import QAOAError
from repro.utils.rng import ensure_rng

#: Default (gamma, beta) box for grid seeding. QAOA expectations are
#: periodic; for +-1-coupling Hamiltonians one period fits inside
#: [-pi/2, pi/2] x [-pi/4, pi/4].
DEFAULT_GAMMA_RANGE = (-np.pi / 2.0, np.pi / 2.0)
DEFAULT_BETA_RANGE = (-np.pi / 4.0, np.pi / 4.0)

#: Batched objective: ``(gammas (P, p), betas (P, p)) -> values (P,)``.
BatchEvaluateFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: Gradient objective: ``(gammas (p,), betas (p,)) -> (value, grad (2p,))``
#: with the gradient ordered gammas-then-betas, from one evaluation pass.
ValueAndGradFn = Callable[
    [np.ndarray, np.ndarray], tuple[float, np.ndarray]
]


@dataclass
class OptimizationResult:
    """Outcome of a QAOA training run.

    Attributes:
        gammas: Best phase parameters found.
        betas: Best mixing parameters found.
        value: Objective (expectation value) at the optimum; minimised.
        num_evaluations: Objective points consumed: every point of a
            batched scan, plus every ``value_and_grad`` pass (it produces a
            value too).
        num_gradient_evaluations: Gradient passes consumed — one per
            ``value_and_grad`` call, counted *separately* from objective
            evaluations so warm-start accounting stays honest. Zero when
            training was skipped (pre-trained parameters).
        history: Objective value after each improvement, for convergence
            plots.
        warm_started: True when a transferred initial point replaced the
            fresh seeding scan (the cross-sibling transfer path).
        warm_start_rejected: True when a transferred point was offered but
            evaluated no better than the untrained baseline, so the run
            fell back to fresh seeding.

    Proxy-training bookkeeping (the Red-QAOA path — see
    :mod:`repro.reduction`; all-default when proxy training is off, so
    existing results are untouched):

        num_proxy_evaluations: Objective calls spent on the *proxy*
            instance, counted separately from ``num_evaluations`` (which
            stays full-instance-only) so evaluation budgets compare
            honestly across the direct and proxy paths. 0 when training
            was skipped (pre-trained parameters).
        num_proxy_gradient_evaluations: Gradient passes on the proxy,
            same convention.
        proxy_params: The proxy-trained ``(gammas, betas)`` that seeded
            the full-instance refinement (``None`` off the proxy path).
            Provenance only: nothing reads it back into a training.
        proxy_transferred: True when the full-instance refinement
            *accepted* the transferred proxy optimum (it beat the
            untrained baseline); False when it was rejected and the
            refinement fell back to fresh seeding.
        proxy_num_qubits: Size of the proxy instance trained on (0 off
            the proxy path).
    """

    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    value: float
    num_evaluations: int
    num_gradient_evaluations: int = 0
    history: list[float] = field(default_factory=list)
    warm_started: bool = False
    warm_start_rejected: bool = False
    num_proxy_evaluations: int = 0
    num_proxy_gradient_evaluations: int = 0
    proxy_params: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None
    proxy_transferred: bool = False
    proxy_num_qubits: int = 0


def optimize_qaoa(
    evaluate_batch: BatchEvaluateFn,
    value_and_grad: ValueAndGradFn,
    num_layers: int = 1,
    grid_resolution: int = 12,
    num_starts: int = 4,
    maxiter: int = 120,
    gamma_range: tuple[float, float] = DEFAULT_GAMMA_RANGE,
    beta_range: tuple[float, float] = DEFAULT_BETA_RANGE,
    seed: "int | np.random.Generator | None" = None,
    initial_point: "tuple[Sequence[float], Sequence[float]] | None" = None,
    hybrid_seeding: bool = False,
) -> OptimizationResult:
    """Minimise a QAOA expectation over its 2p parameters.

    Args:
        evaluate_batch: Batched objective ``(gammas (P, p), betas (P, p))
            -> values (P,)``. The seeding scan and the warm-start
            acceptance test each run as one call over a whole point batch;
            ``num_evaluations`` still counts every point.
        value_and_grad: Gradient twin of ``evaluate_batch`` (must agree
            with it to numerical precision): one pass returning
            ``(value, grad)`` with ``grad`` the exact derivative w.r.t. the
            concatenated ``[gammas, betas]`` point (shape ``(2p,)``). It
            feeds the L-BFGS-B refinement; each pass counts as one
            objective evaluation *and* one gradient evaluation.
        num_layers: QAOA depth p.
        grid_resolution: Grid points per axis for the p=1 seeding scan.
        num_starts: Random multistart count for p > 1.
        maxiter: L-BFGS-B iteration cap per start.
        gamma_range: Seeding box for gammas.
        beta_range: Seeding box for betas.
        seed: RNG seed or generator (used for p > 1 starts).
        initial_point: Transferred ``(gammas, betas)`` — e.g. a sibling
            sub-problem's trained optimum. When the transferred point
            evaluates better than the untrained (all-zero) baseline, it
            replaces the seeding scan entirely and refinement starts from
            it — two evaluations instead of ``grid_resolution**2``.
            Otherwise the transfer is rejected and the fresh-start path
            runs as if no point had been offered.
        hybrid_seeding: Only meaningful with ``initial_point``. ``False``
            (the historical behaviour) accepts the transfer against the
            untrained all-zeros baseline and, when accepted, skips the
            seeding scan entirely. ``True`` keeps the seeding candidates
            in play: the transfer joins the p=1 grid / p>1 multistart
            batch (one batched kernel call) and refinement descends from
            the overall best candidate — so a transfer that lands in a
            poor basin can never displace a better fresh start (the
            proxy-training refinement stage relies on this).

    Returns:
        The best parameters found and bookkeeping.
    """
    if num_layers < 1:
        raise QAOAError(f"num_layers must be >= 1, got {num_layers}")
    rng = ensure_rng(seed)
    evaluations = 0
    gradient_evaluations = 0
    history: list[float] = []
    best_value = np.inf
    best_point: "np.ndarray | None" = None

    def record(point: np.ndarray, value: float) -> None:
        """Count one objective evaluation and track the best point."""
        nonlocal evaluations, best_value, best_point
        evaluations += 1
        if value < best_value:
            best_value = value
            best_point = point.copy()
            history.append(value)

    def evaluate_points(points: np.ndarray) -> np.ndarray:
        """Evaluate a ``(P, 2p)`` stack in one batched kernel call."""
        values = np.asarray(
            evaluate_batch(points[:, :num_layers], points[:, num_layers:]),
            dtype=float,
        )
        # Bookkeeping walks the points in scan order.
        for point, value in zip(points, values):
            record(point, float(value))
        return values

    def seed_candidates() -> np.ndarray:
        """The fresh-start candidate stack: p=1 grid, p>1 multistarts."""
        if num_layers == 1:
            gamma_axis = np.linspace(*gamma_range, grid_resolution)
            beta_axis = np.linspace(*beta_range, grid_resolution)
            return np.column_stack(
                [
                    np.repeat(gamma_axis, grid_resolution),
                    np.tile(beta_axis, grid_resolution),
                ]
            )
        return np.stack(
            [
                np.concatenate(
                    [
                        rng.uniform(*gamma_range, size=num_layers),
                        rng.uniform(*beta_range, size=num_layers),
                    ]
                )
                for __ in range(num_starts)
            ]
        )

    warm_started = False
    warm_start_rejected = False
    starts: list[np.ndarray] = []
    if initial_point is not None:
        gammas, betas = initial_point
        if len(gammas) != num_layers or len(betas) != num_layers:
            raise QAOAError(
                f"initial_point has {len(gammas)}/{len(betas)} gammas/betas, "
                f"expected {num_layers} of each"
            )
        transferred = np.asarray([*gammas, *betas], dtype=float)
        if hybrid_seeding:
            # The transfer competes against the full fresh-start
            # candidate set in one batched evaluation; refinement
            # descends from the overall winner, so a poor-basin transfer
            # can never displace a better cold start.
            batch = np.vstack([seed_candidates(), transferred[np.newaxis]])
            values = evaluate_points(batch)
            best = int(np.argmin(values))
            warm_started = best == len(batch) - 1
            warm_start_rejected = not warm_started
            starts.append(batch[best].copy())
        else:
            # Acceptance test: the transfer must beat the untrained
            # baseline (all angles zero — the uniform superposition,
            # whose expectation any useful training improves on). One
            # batch of two points.
            values = evaluate_points(
                np.stack([np.zeros(2 * num_layers), transferred])
            )
            if values[1] < values[0]:
                warm_started = True
                starts.append(transferred)
            else:
                warm_start_rejected = True

    if not starts:
        candidates = seed_candidates()
        if num_layers == 1:
            values = evaluate_points(candidates)
            starts.append(candidates[int(np.argmin(values))].copy())
        else:
            starts.extend(candidates)

    def objective_with_grad(point: np.ndarray) -> tuple[float, np.ndarray]:
        # One pass yields the value and the exact gradient; count both (the
        # value is genuinely recomputed — L-BFGS needs the gradient even at
        # already-seen points).
        nonlocal gradient_evaluations
        value, grad = value_and_grad(point[:num_layers], point[num_layers:])
        gradient_evaluations += 1
        record(point, float(value))
        return float(value), np.asarray(grad, dtype=float)

    for start in starts:
        sciopt.minimize(
            objective_with_grad,
            start,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": maxiter},
        )
    assert best_point is not None
    return OptimizationResult(
        gammas=tuple(float(g) for g in best_point[:num_layers]),
        betas=tuple(float(b) for b in best_point[num_layers:]),
        value=float(best_value),
        num_evaluations=evaluations,
        num_gradient_evaluations=gradient_evaluations,
        history=history,
        warm_started=warm_started,
        warm_start_rejected=warm_start_rejected,
    )


@dataclass
class LandscapeScan:
    """A dense 2-D (gamma, beta) expectation scan (paper Fig. 12 protocol).

    Attributes:
        gammas: Grid axis of phase angles.
        betas: Grid axis of mixing angles.
        values: Matrix ``values[i, j] = EV(gammas[i], betas[j])``.
    """

    gammas: np.ndarray
    betas: np.ndarray
    values: np.ndarray

    @property
    def best(self) -> tuple[float, float, float]:
        """``(gamma, beta, value)`` at the grid minimum."""
        index = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
        return (
            float(self.gammas[index[0]]),
            float(self.betas[index[1]]),
            float(self.values[index]),
        )

    def sharpness(self) -> float:
        """Std of the landscape values — the paper's Fig. 12 'blur' proxy.

        Noise flattens the landscape toward a constant; a sharper (higher
        contrast) landscape trains better. Normalised by the mean absolute
        value to be scale-free.
        """
        scale = float(np.mean(np.abs(self.values)))
        if scale == 0.0:
            return 0.0
        return float(np.std(self.values) / scale)


def landscape_scan(
    evaluate_batch: BatchEvaluateFn,
    resolution: int = 50,
    gamma_range: tuple[float, float] = DEFAULT_GAMMA_RANGE,
    beta_range: tuple[float, float] = DEFAULT_BETA_RANGE,
) -> LandscapeScan:
    """Evaluate a p=1 objective over a ``resolution x resolution`` grid.

    The whole grid goes through ``evaluate_batch`` in one vectorized
    kernel call (the Fig. 12 hot path).
    """
    if resolution < 2:
        raise QAOAError(f"resolution must be >= 2, got {resolution}")
    gammas = np.linspace(*gamma_range, resolution)
    betas = np.linspace(*beta_range, resolution)
    grid_g = np.repeat(gammas, resolution)[:, None]
    grid_b = np.tile(betas, resolution)[:, None]
    values = np.asarray(evaluate_batch(grid_g, grid_b), dtype=float).reshape(
        resolution, resolution
    )
    return LandscapeScan(gammas=gammas, betas=betas, values=values)
