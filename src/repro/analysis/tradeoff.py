"""Fidelity-cost trade-off analysis (paper Sec. 3.4, Sec. 5.1.3, Fig. 9).

Freezing more qubits shrinks sub-circuits (better fidelity) but costs
exponentially more circuit executions. The trade-off curve pairs the
quantum cost ``2**m`` (x-axis of Fig. 9) with a lower-is-better fidelity
proxy (ARG, CX count, or depth, normalised to m=0); ``detect_plateau``
finds the paper's diminishing-returns knee.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.devices.device import Device
    from repro.ising.hamiltonian import IsingHamiltonian


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the Fig. 9 curve.

    Attributes:
        num_frozen: m.
        quantum_cost: Circuits required, ``2**m`` (the paper plots the
            unpruned cost on this axis).
        relative_value: Metric at m divided by the metric at m=0.
    """

    num_frozen: int
    quantum_cost: int
    relative_value: float


def tradeoff_curve(metric_by_m: Sequence[float]) -> list[TradeoffPoint]:
    """Build the relative trade-off curve from a metric indexed by m.

    Args:
        metric_by_m: Metric values for m = 0, 1, 2, ... (m=0 = baseline).

    Raises:
        ReproError: On empty input or a zero baseline value.
    """
    if len(metric_by_m) == 0:
        raise ReproError("metric_by_m is empty")
    baseline = metric_by_m[0]
    if baseline == 0.0:
        raise ReproError("baseline metric is zero; relative curve undefined")
    return [
        TradeoffPoint(
            num_frozen=m,
            quantum_cost=2**m,
            relative_value=float(value / baseline),
        )
        for m, value in enumerate(metric_by_m)
    ]


def landscape_sharpness_curve(
    hamiltonian: "IsingHamiltonian",
    max_frozen: int,
    device: "Device | None" = None,
    resolution: int = 12,
) -> list[TradeoffPoint]:
    """Fig. 9-style trade-off curve of p=1 landscape *sharpness* vs m.

    The paper's Fig. 12 observation as a cost curve: freezing hotspots
    sharpens the (noisy) optimizer landscape, which is what makes the
    sub-problems trainable. For each depth m the first executed
    sub-problem's full ``resolution**2`` landscape is evaluated in one
    batched analytic kernel call and condensed to its sharpness; the curve
    reports ``sharpness(m=0) / sharpness(m)`` on the familiar
    lower-is-better ``relative_value`` axis against the ``2**m`` quantum
    cost.

    Args:
        hamiltonian: The parent problem.
        max_frozen: Largest m to scan (clamped below ``num_qubits``).
        device: Optional device; enables the noisy landscape (the paper's
            setting — without noise the sharpness barely moves).
        resolution: Grid points per axis of each landscape scan.

    Raises:
        ReproError: When the baseline landscape is perfectly flat.
    """
    from repro.core.hotspots import select_hotspots
    from repro.core.partition import executed_subproblems, partition_problem
    from repro.qaoa.executor import batch_objective, make_context
    from repro.qaoa.optimizer import landscape_scan

    if max_frozen < 0:
        raise ReproError(f"max_frozen must be >= 0, got {max_frozen}")
    flatness: list[float] = []
    upper = min(max_frozen, max(hamiltonian.num_qubits - 1, 0))
    hotspots = select_hotspots(hamiltonian, upper)
    for m in range(upper + 1):
        if m == 0:
            target = hamiltonian
        else:
            parts = partition_problem(hamiltonian, hotspots[:m])
            target = executed_subproblems(parts)[0].hamiltonian
        context = make_context(target, num_layers=1, device=device)
        scan = landscape_scan(
            batch_objective(context, noisy=device is not None),
            resolution=resolution,
        )
        sharpness = scan.sharpness()
        if sharpness == 0.0:
            if m == 0:
                raise ReproError(
                    "baseline landscape is flat; sharpness curve undefined"
                )
            flatness.append(float("inf"))
        else:
            flatness.append(1.0 / sharpness)
    return tradeoff_curve(flatness)


def detect_plateau(
    curve: Sequence[TradeoffPoint], threshold: float = 0.02
) -> int:
    """Smallest m after which the marginal relative improvement stays below
    ``threshold`` — the Sec. 5.1.3 saturation point.

    Returns the last worthwhile m (0 if freezing never helps by more than
    the threshold).
    """
    if threshold < 0:
        raise ReproError(f"threshold must be >= 0, got {threshold}")
    best = 0
    for index in range(1, len(curve)):
        gain = curve[index - 1].relative_value - curve[index].relative_value
        if gain >= threshold:
            best = curve[index].num_frozen
    return best


def knee_under_budget(
    curve: Sequence[TradeoffPoint],
    max_cost: "int | None" = None,
    threshold: float = 0.02,
) -> int:
    """The last worthwhile m whose quantum cost fits a circuit budget.

    The budget-aware variant of :func:`detect_plateau` used by the freeze
    planner: stop at the diminishing-returns knee *or* where ``2**m``
    exceeds ``max_cost``, whichever comes first. Unlike
    :func:`detect_plateau` the walk is sequential — a later large gain
    cannot rescue a depth whose intermediate steps were not worth paying
    for, because every intermediate doubling of cost is paid regardless.

    Args:
        curve: The relative trade-off curve (see :func:`tradeoff_curve`).
        max_cost: Circuit budget on the ``quantum_cost`` axis; ``None``
            leaves the budget unbounded.
        threshold: Marginal-improvement floor, as in :func:`detect_plateau`.

    Returns:
        The chosen m (0 when no affordable depth clears the threshold).
    """
    if threshold < 0:
        raise ReproError(f"threshold must be >= 0, got {threshold}")
    if max_cost is not None and max_cost < 1:
        raise ReproError(f"max_cost must be >= 1, got {max_cost}")
    best = 0
    for index in range(1, len(curve)):
        if max_cost is not None and curve[index].quantum_cost > max_cost:
            break
        gain = curve[index - 1].relative_value - curve[index].relative_value
        if gain < threshold:
            break
        best = curve[index].num_frozen
    return best
