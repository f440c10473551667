"""The batched single-qubit gate primitive of the fused QAOA kernel.

:mod:`repro.sim.qaoa_kernel` stacks ``B`` statevectors into one
``(B, 2, ..., 2)`` tensor (a parameter batch) and
applies each layer's mixer rotation to every item with one broadcasted
matmul per qubit. This module holds that one primitive.
"""

from __future__ import annotations

import numpy as np


def _apply_single_batched(
    state: np.ndarray, matrices: np.ndarray, axis: int
) -> np.ndarray:
    # state: (B, 2, ..., 2); axis is the item-space axis (0-based, excluding
    # the batch axis). matrices: (B, 2, 2) or (2, 2) when shared.
    #
    moved = np.moveaxis(state, axis + 1, 1)
    batch = moved.shape[0]
    shaped = moved.reshape(batch, 2, -1)
    result = np.matmul(matrices, shaped)
    return np.moveaxis(result.reshape(moved.shape), 1, axis + 1)
