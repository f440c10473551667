"""Closed-form single-layer QAOA expectations.

For p = 1 the expectations of ``Z_i`` and ``Z_i Z_j`` in the QAOA state
``|gamma, beta> = e^{-i beta B} e^{-i gamma C} |+>^n`` have exact formulas
(Ozaeta, van Dam, McMahon, "Expectation values from the single-layer QAOA
on Ising problems", Quantum Sci. Technol. 2022):

    <Z_i> = sin(2 beta) sin(2 gamma h_i) * prod_{k != i} cos(2 gamma J_ik)

    <Z_i Z_j> =
        (1/2) sin(4 beta) sin(2 gamma J_ij)
            * [ cos(2 gamma h_i) prod_{k != i,j} cos(2 gamma J_ik)
              + cos(2 gamma h_j) prod_{k != i,j} cos(2 gamma J_jk) ]
      + (1/2) sin^2(2 beta)
            * [ cos(2 gamma (h_i - h_j)) prod_{k != i,j} cos(2 gamma (J_ik - J_jk))
              - cos(2 gamma (h_i + h_j)) prod_{k != i,j} cos(2 gamma (J_ik + J_jk)) ]

with ``J_ik = 0`` for non-edges. The signs above were re-derived from
scratch (Heisenberg picture: conjugate Z_i Z_j through the mixer, then
through the diagonal cost unitary, and keep the identity component in
``|+>^n``) and are validated against the statevector simulator by property
tests to machine precision. The closed form makes ideal expectations
O(|J| * max_degree) instead of O(2^n) — the workhorse behind the landscape
scans of Fig. 12 and all large ARG sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import QAOAError
from repro.ising.hamiltonian import IsingHamiltonian
from repro.sim.expectation import combine_term_expectations

#: Soft cap on the padded work-array size (points x terms x neighbors) of
#: one vectorized slice; batches beyond it are evaluated in chunks so a
#: dense landscape scan of a hub-heavy instance cannot blow up memory.
BATCH_CHUNK_ELEMENTS = 1 << 22


def _coupling_row(
    hamiltonian: IsingHamiltonian,
) -> dict[int, dict[int, float]]:
    """Symmetric adjacency view ``row[i][k] = J_ik`` of the quadratic terms."""
    rows: dict[int, dict[int, float]] = {
        i: {} for i in range(hamiltonian.num_qubits)
    }
    for (i, j), coupling in hamiltonian.quadratic.items():
        rows[i][j] = coupling
        rows[j][i] = coupling
    return rows


def qaoa1_term_expectations(
    hamiltonian: IsingHamiltonian, gamma: float, beta: float
) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """Exact p=1 expectations of every Hamiltonian term.

    Args:
        hamiltonian: Problem Hamiltonian.
        gamma: Phase-separation angle.
        beta: Mixing angle.

    Returns:
        ``(z_values, zz_values)``: ``<Z_i>`` for qubits with non-zero h_i
        and ``<Z_i Z_j>`` for every quadratic term.
    """
    if hamiltonian.num_qubits == 0:
        raise QAOAError("empty Hamiltonian")
    rows = _coupling_row(hamiltonian)
    h = hamiltonian.linear
    sin_2b = np.sin(2.0 * beta)
    sin_4b = np.sin(4.0 * beta)

    z_values: dict[int, float] = {}
    for i in range(hamiltonian.num_qubits):
        if h[i] == 0.0:
            continue
        product = 1.0
        for k, coupling in rows[i].items():
            product *= np.cos(2.0 * gamma * coupling)
        z_values[i] = float(sin_2b * np.sin(2.0 * gamma * h[i]) * product)

    zz_values: dict[tuple[int, int], float] = {}
    for (i, j), coupling_ij in hamiltonian.quadratic.items():
        prod_i = 1.0
        for k, coupling in rows[i].items():
            if k != j:
                prod_i *= np.cos(2.0 * gamma * coupling)
        prod_j = 1.0
        for k, coupling in rows[j].items():
            if k != i:
                prod_j *= np.cos(2.0 * gamma * coupling)
        term1 = (
            0.5
            * sin_4b
            * np.sin(2.0 * gamma * coupling_ij)
            * (
                np.cos(2.0 * gamma * h[i]) * prod_i
                + np.cos(2.0 * gamma * h[j]) * prod_j
            )
        )
        neighbors = set(rows[i]) | set(rows[j])
        neighbors.discard(i)
        neighbors.discard(j)
        prod_minus = 1.0
        prod_plus = 1.0
        for k in neighbors:
            j_ik = rows[i].get(k, 0.0)
            j_jk = rows[j].get(k, 0.0)
            prod_minus *= np.cos(2.0 * gamma * (j_ik - j_jk))
            prod_plus *= np.cos(2.0 * gamma * (j_ik + j_jk))
        term2 = (
            0.5
            * sin_2b**2
            * (
                np.cos(2.0 * gamma * (h[i] - h[j])) * prod_minus
                - np.cos(2.0 * gamma * (h[i] + h[j])) * prod_plus
            )
        )
        zz_values[(i, j)] = float(term1 + term2)
    return z_values, zz_values


def qaoa1_expectation(
    hamiltonian: IsingHamiltonian, gamma: float, beta: float
) -> float:
    """Exact p=1 expectation ``<gamma, beta| C |gamma, beta>``."""
    z_values, zz_values = qaoa1_term_expectations(hamiltonian, gamma, beta)
    return combine_term_expectations(hamiltonian, z_values, zz_values)


def _products_and_gamma_grads(
    two_g, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's product ``prod_k cos(two_g * c_k)`` and its d/dgamma.

    The derivative needs every leave-one-out product
    ``prod_{m != k} cos(two_g * c_m)``; dividing the full product by one
    cosine explodes at its zeros, so the leave-one-outs are assembled
    exactly from prefix x suffix cumulative products instead:

        d/dgamma prod_k cos(2 gamma c_k)
            = sum_k -2 c_k sin(2 gamma c_k) prod_{m != k} cos(2 gamma c_m)

    Zero padding stays the identity here too: a padded slot has
    ``c_k = 0``, so its summand is ``-2 * 0 * sin(0) * (...) = 0``.

    Args:
        two_g: ``2 * gamma`` — a scalar, or shaped to broadcast against
            ``coeffs`` with a trailing product axis (e.g. ``(P, 1, 1)``).
        coeffs: Zero-padded coefficient rows, shape ``(..., T, K)``.

    Returns:
        ``(products, dproducts)``, each of shape ``(..., T)``.
    """
    angles = two_g * coeffs
    cosines = np.cos(angles)
    products = cosines.prod(axis=-1)
    if coeffs.shape[-1] == 0:
        return products, np.zeros_like(products)
    prefix = np.cumprod(cosines, axis=-1)
    suffix = np.cumprod(cosines[..., ::-1], axis=-1)[..., ::-1]
    leave_one_out = np.ones_like(cosines)
    leave_one_out[..., 1:] *= prefix[..., :-1]
    leave_one_out[..., :-1] *= suffix[..., 1:]
    dproducts = (
        -2.0 * coeffs * np.sin(angles) * leave_one_out
    ).sum(axis=-1)
    return products, dproducts


def _padded(rows: "list[list[float]]") -> np.ndarray:
    """Stack ragged coefficient lists into a zero-padded matrix.

    Zero is the identity pad for every product in the closed form: a padded
    slot contributes ``cos(2 gamma * 0) = 1`` exactly, so padded and ragged
    products agree bit-for-bit up to multiplication order.
    """
    width = max((len(row) for row in rows), default=0)
    out = np.zeros((len(rows), width), dtype=float)
    for index, row in enumerate(rows):
        out[index, : len(row)] = row
    return out


class QAOA1Structure:
    """Precomputed sparse term structure of one Hamiltonian's p=1 closed form.

    Everything that does not depend on ``(gamma, beta)`` — per-qubit
    neighbor-coupling rows, per-edge exclusion products and the
    ``J_ik +- J_jk`` union rows — is extracted once into zero-padded NumPy
    arrays, so a whole batch of parameter points can be evaluated with a
    handful of vectorized trig calls instead of a Python loop per point.
    Build it once per Hamiltonian (an :class:`~repro.qaoa.executor.
    EvaluationContext` does) and reuse it across every optimizer step,
    grid seed, and landscape scan of a training run.
    """

    def __init__(self, hamiltonian: IsingHamiltonian) -> None:
        if hamiltonian.num_qubits == 0:
            raise QAOAError("empty Hamiltonian")
        self.hamiltonian = hamiltonian
        self.num_qubits = hamiltonian.num_qubits
        self.offset = float(hamiltonian.offset)
        rows = _coupling_row(hamiltonian)
        h = hamiltonian.linear

        # Linear terms: qubits with non-zero h, plus their neighbor rows.
        self.z_qubits = np.asarray(
            [i for i in range(self.num_qubits) if h[i] != 0.0], dtype=np.intp
        )
        self.z_h = h[self.z_qubits] if self.z_qubits.size else np.zeros(0)
        self.z_neighbors = _padded(
            [list(rows[int(i)].values()) for i in self.z_qubits]
        )

        # Quadratic terms, in the Hamiltonian's canonical dict order.
        quadratic = hamiltonian.quadratic
        self.pairs = np.asarray(
            list(quadratic.keys()), dtype=np.intp
        ).reshape(len(quadratic), 2)
        self.J = np.asarray(list(quadratic.values()), dtype=float)
        excl_i: list[list[float]] = []
        excl_j: list[list[float]] = []
        minus: list[list[float]] = []
        plus: list[list[float]] = []
        for (i, j) in quadratic:
            excl_i.append([c for k, c in rows[i].items() if k != j])
            excl_j.append([c for k, c in rows[j].items() if k != i])
            union = set(rows[i]) | set(rows[j])
            union.discard(i)
            union.discard(j)
            row_minus: list[float] = []
            row_plus: list[float] = []
            for k in union:
                j_ik = rows[i].get(k, 0.0)
                j_jk = rows[j].get(k, 0.0)
                row_minus.append(j_ik - j_jk)
                row_plus.append(j_ik + j_jk)
            minus.append(row_minus)
            plus.append(row_plus)
        self.excl_i = _padded(excl_i)
        self.excl_j = _padded(excl_j)
        self.union_minus = _padded(minus)
        self.union_plus = _padded(plus)
        if self.pairs.size:
            self.h_i = h[self.pairs[:, 0]]
            self.h_j = h[self.pairs[:, 1]]
        else:
            self.h_i = np.zeros(0)
            self.h_j = np.zeros(0)
        self.h_diff = self.h_i - self.h_j
        self.h_sum = self.h_i + self.h_j

        # Single-point packing: every coefficient whose cosine feeds a
        # neighbor product, flattened row-major with a trailing 0.0
        # sentinel (cos(0) = 1, the product identity), plus paired
        # reduceat indices — empty rows point both ends at the sentinel.
        # One np.cos + one multiply.reduceat then computes every product
        # the closed form needs (see expectation_point).
        ragged = (
            [list(rows[int(i)].values()) for i in self.z_qubits]
            + excl_i
            + excl_j
            + minus
            + plus
        )
        flat: list[float] = [x for row in ragged for x in row]
        sentinel = len(flat)
        flat.append(0.0)
        self._cos_pack = np.asarray(flat, dtype=float)
        pair_indices: list[int] = []
        position = 0
        for row in ragged:
            if row:
                pair_indices.extend((position, position + len(row)))
                position += len(row)
            else:
                pair_indices.extend((sentinel, sentinel))
        self._reduce_indices = np.asarray(pair_indices, dtype=np.intp)
        self._num_product_rows = len(ragged)
        self._sin_pack = np.concatenate([self.z_h, self.J])
        self._h_pack = np.concatenate(
            [self.h_i, self.h_j, self.h_diff, self.h_sum]
        )
        # Padded elements consumed per batch point, for chunk sizing.
        self._point_cost = max(
            1,
            self.z_neighbors.size
            + self.excl_i.size
            + self.excl_j.size
            + self.union_minus.size
            + self.union_plus.size,
        )

    @property
    def num_z_terms(self) -> int:
        """Linear terms with non-zero coefficient."""
        return int(self.z_qubits.size)

    @property
    def num_zz_terms(self) -> int:
        """Quadratic terms, the paper's ``|J|``."""
        return int(self.J.size)

    def _chunk(self, num_points: int) -> int:
        return max(1, min(num_points, BATCH_CHUNK_ELEMENTS // self._point_cost))

    def term_expectations(
        self, gammas: np.ndarray, betas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched per-term expectations at ``P`` parameter points.

        Args:
            gammas: Phase angles, shape ``(P,)``.
            betas: Mixing angles, shape ``(P,)``.

        Returns:
            ``(z, zz)`` with shapes ``(P, num_z_terms)`` and
            ``(P, num_zz_terms)``, columns aligned with ``z_qubits`` and
            ``pairs``.
        """
        g = np.atleast_1d(np.asarray(gammas, dtype=float))
        b = np.atleast_1d(np.asarray(betas, dtype=float))
        if g.ndim != 1 or g.shape != b.shape:
            raise QAOAError(
                f"gammas/betas must be equal-length 1-D batches, got "
                f"{g.shape}/{b.shape}"
            )
        points = g.shape[0]
        z_out = np.empty((points, self.num_z_terms))
        zz_out = np.empty((points, self.num_zz_terms))
        chunk = self._chunk(points)
        for start in range(0, points, chunk):
            stop = min(start + chunk, points)
            self._chunk_terms(
                g[start:stop], b[start:stop], z_out[start:stop],
                zz_out[start:stop],
            )
        return z_out, zz_out

    def _chunk_terms(
        self,
        g: np.ndarray,
        b: np.ndarray,
        z_out: np.ndarray,
        zz_out: np.ndarray,
    ) -> None:
        two_g = 2.0 * g
        sin_2b = np.sin(2.0 * b)
        if self.num_z_terms:
            prod = np.cos(
                two_g[:, None, None] * self.z_neighbors[None, :, :]
            ).prod(axis=2)
            z_out[...] = (
                sin_2b[:, None]
                * np.sin(two_g[:, None] * self.z_h[None, :])
                * prod
            )
        if self.num_zz_terms:
            sin_4b = np.sin(4.0 * b)
            prod_i = np.cos(
                two_g[:, None, None] * self.excl_i[None, :, :]
            ).prod(axis=2)
            prod_j = np.cos(
                two_g[:, None, None] * self.excl_j[None, :, :]
            ).prod(axis=2)
            term1 = (
                0.5
                * sin_4b[:, None]
                * np.sin(two_g[:, None] * self.J[None, :])
                * (
                    np.cos(two_g[:, None] * self.h_i[None, :]) * prod_i
                    + np.cos(two_g[:, None] * self.h_j[None, :]) * prod_j
                )
            )
            prod_minus = np.cos(
                two_g[:, None, None] * self.union_minus[None, :, :]
            ).prod(axis=2)
            prod_plus = np.cos(
                two_g[:, None, None] * self.union_plus[None, :, :]
            ).prod(axis=2)
            term2 = (
                0.5
                * sin_2b[:, None] ** 2
                * (
                    np.cos(two_g[:, None] * self.h_diff[None, :]) * prod_minus
                    - np.cos(two_g[:, None] * self.h_sum[None, :]) * prod_plus
                )
            )
            zz_out[...] = term1 + term2

    def term_gradients(
        self, gammas: np.ndarray, betas: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Batched per-term expectations *and* their exact derivatives.

        The closed form is a sum of products of trig factors in
        ``2 gamma * coefficient`` and ``sin/cos`` of ``2 beta`` /
        ``4 beta``; every derivative is itself closed-form (leave-one-out
        cosine products via :func:`_products_and_gamma_grads`), so the p=1
        gradient path never touches a statevector.

        Args:
            gammas: Phase angles, shape ``(P,)``.
            betas: Mixing angles, shape ``(P,)``.

        Returns:
            ``(z, dz_dgamma, dz_dbeta, zz, dzz_dgamma, dzz_dbeta)`` with
            ``z``-shaped arrays ``(P, num_z_terms)`` and ``zz``-shaped
            arrays ``(P, num_zz_terms)``, columns aligned with
            ``z_qubits`` and ``pairs``.
        """
        g = np.atleast_1d(np.asarray(gammas, dtype=float))
        b = np.atleast_1d(np.asarray(betas, dtype=float))
        if g.ndim != 1 or g.shape != b.shape:
            raise QAOAError(
                f"gammas/betas must be equal-length 1-D batches, got "
                f"{g.shape}/{b.shape}"
            )
        points = g.shape[0]
        outs = tuple(
            np.zeros((points, size))
            for size in (self.num_z_terms,) * 3 + (self.num_zz_terms,) * 3
        )
        chunk = self._chunk(points)
        for start in range(0, points, chunk):
            stop = min(start + chunk, points)
            self._chunk_gradients(
                g[start:stop],
                b[start:stop],
                *(out[start:stop] for out in outs),
            )
        return outs

    def _chunk_gradients(
        self,
        g: np.ndarray,
        b: np.ndarray,
        z_out: np.ndarray,
        dz_dg_out: np.ndarray,
        dz_db_out: np.ndarray,
        zz_out: np.ndarray,
        dzz_dg_out: np.ndarray,
        dzz_db_out: np.ndarray,
    ) -> None:
        two_g = (2.0 * g)[:, None, None]
        two_g_flat = (2.0 * g)[:, None]
        sin_2b = np.sin(2.0 * b)[:, None]
        cos_2b = np.cos(2.0 * b)[:, None]
        if self.num_z_terms:
            prod, dprod = _products_and_gamma_grads(two_g, self.z_neighbors)
            sin_h = np.sin(two_g_flat * self.z_h[None, :])
            cos_h = np.cos(two_g_flat * self.z_h[None, :])
            z_out[...] = sin_2b * sin_h * prod
            dz_dg_out[...] = sin_2b * (
                2.0 * self.z_h[None, :] * cos_h * prod + sin_h * dprod
            )
            dz_db_out[...] = 2.0 * cos_2b * sin_h * prod
        if self.num_zz_terms:
            sin_4b = np.sin(4.0 * b)[:, None]
            cos_4b = np.cos(4.0 * b)[:, None]
            prod_i, dprod_i = _products_and_gamma_grads(two_g, self.excl_i)
            prod_j, dprod_j = _products_and_gamma_grads(two_g, self.excl_j)
            sin_J = np.sin(two_g_flat * self.J[None, :])
            cos_J = np.cos(two_g_flat * self.J[None, :])
            cos_hi = np.cos(two_g_flat * self.h_i[None, :])
            sin_hi = np.sin(two_g_flat * self.h_i[None, :])
            cos_hj = np.cos(two_g_flat * self.h_j[None, :])
            sin_hj = np.sin(two_g_flat * self.h_j[None, :])
            paired = cos_hi * prod_i + cos_hj * prod_j
            dpaired_dg = (
                -2.0 * self.h_i[None, :] * sin_hi * prod_i
                + cos_hi * dprod_i
                - 2.0 * self.h_j[None, :] * sin_hj * prod_j
                + cos_hj * dprod_j
            )
            term1 = 0.5 * sin_4b * sin_J * paired
            dterm1_dg = 0.5 * sin_4b * (
                2.0 * self.J[None, :] * cos_J * paired + sin_J * dpaired_dg
            )
            dterm1_db = 2.0 * cos_4b * sin_J * paired
            prod_m, dprod_m = _products_and_gamma_grads(two_g, self.union_minus)
            prod_p, dprod_p = _products_and_gamma_grads(two_g, self.union_plus)
            cos_hd = np.cos(two_g_flat * self.h_diff[None, :])
            sin_hd = np.sin(two_g_flat * self.h_diff[None, :])
            cos_hs = np.cos(two_g_flat * self.h_sum[None, :])
            sin_hs = np.sin(two_g_flat * self.h_sum[None, :])
            contrast = cos_hd * prod_m - cos_hs * prod_p
            dcontrast_dg = (
                -2.0 * self.h_diff[None, :] * sin_hd * prod_m
                + cos_hd * dprod_m
                + 2.0 * self.h_sum[None, :] * sin_hs * prod_p
                - cos_hs * dprod_p
            )
            term2 = 0.5 * sin_2b**2 * contrast
            dterm2_dg = 0.5 * sin_2b**2 * dcontrast_dg
            # d/dbeta sin^2(2b) = 2 sin(2b) * 2 cos(2b) = 2 sin(4b).
            dterm2_db = sin_4b * contrast
            zz_out[...] = term1 + term2
            dzz_dg_out[...] = dterm1_dg + dterm2_dg
            dzz_db_out[...] = dterm1_db + dterm2_db

    def expectations_and_grads(
        self,
        gammas: np.ndarray,
        betas: np.ndarray,
        weights: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched expectation values with exact (d/dgamma, d/dbeta).

        The p=1 ``value_and_grad`` feeding gradient-based training: noise
        folds into the combination ``weights`` exactly as on the value
        path, so the noisy gradient costs the same trig passes as the
        ideal one.

        Returns:
            ``(values, dgamma, dbeta)``, each of shape ``(P,)``.
        """
        wz, wzz = weights if weights is not None else self.term_weights()
        z, dz_dg, dz_db, zz, dzz_dg, dzz_db = self.term_gradients(gammas, betas)
        return (
            self.offset + z @ wz + zz @ wzz,
            dz_dg @ wz + dzz_dg @ wzz,
            dz_db @ wz + dzz_db @ wzz,
        )

    def expectation_and_grad(
        self,
        gamma: float,
        beta: float,
        weights: tuple[np.ndarray, np.ndarray],
    ) -> tuple[float, float, float]:
        """One ``(value, d/dgamma, d/dbeta)`` point, for sequential L-BFGS
        proposals (a batch of one through the vectorized gradient core)."""
        values, dgamma, dbeta = self.expectations_and_grads(
            np.asarray([gamma]), np.asarray([beta]), weights=weights
        )
        return float(values[0]), float(dgamma[0]), float(dbeta[0])

    def term_weights(
        self,
        fidelity: float = 1.0,
        readout: "dict[int, float] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-term combination weights, with noise attenuation folded in.

        Under the global-depolarizing + readout model the noisy expectation
        is a *reweighting* of the ideal per-term expectations, so one dot
        product serves the ideal (``fidelity=1``, no readout) and noisy
        paths alike: ``EV = offset + z @ wz + zz @ wzz``.
        """
        factors = np.ones(self.num_qubits)
        if readout:
            for qubit, factor in readout.items():
                if 0 <= qubit < self.num_qubits:
                    factors[qubit] = factor
        wz = self.z_h * fidelity * factors[self.z_qubits]
        if self.num_zz_terms:
            wzz = (
                self.J
                * fidelity
                * factors[self.pairs[:, 0]]
                * factors[self.pairs[:, 1]]
            )
        else:
            wzz = np.zeros(0)
        return wz, wzz

    def expectations(
        self,
        gammas: np.ndarray,
        betas: np.ndarray,
        fidelity: float = 1.0,
        readout: "dict[int, float] | None" = None,
        weights: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> np.ndarray:
        """Batched expectation values ``(P,)`` at ``P`` parameter points.

        Pass precomputed ``weights`` (from :meth:`term_weights`) to skip
        rebuilding them — the per-call saving the training loop cares
        about; otherwise they are derived from ``fidelity``/``readout``.
        """
        wz, wzz = weights if weights is not None else self.term_weights(
            fidelity=fidelity, readout=readout
        )
        z, zz = self.term_expectations(gammas, betas)
        return self.offset + z @ wz + zz @ wzz

    def expectation_point(
        self,
        gamma: float,
        beta: float,
        weights: tuple[np.ndarray, np.ndarray],
    ) -> float:
        """One expectation value, on the low-overhead single-point path.

        Single-point reads (each trained instance's ideal and noisy
        expectation) have nothing to batch with; this path keeps them
        term-vectorized with a fixed, tiny ufunc budget — one ``cos`` over
        the packed coefficient array, one ``multiply.reduceat`` for every
        neighbor product, one ``sin`` pack, scalar trig from :mod:`math` —
        several times cheaper per call than a batch of one.
        """
        if self._num_product_rows == 0:
            return self.offset
        wz, wzz = weights
        two_g = 2.0 * gamma
        sin_2b = math.sin(2.0 * beta)
        products = np.multiply.reduceat(
            np.cos(two_g * self._cos_pack), self._reduce_indices
        )[::2]
        sines = np.sin(two_g * self._sin_pack)
        num_z = self.num_z_terms
        num_zz = self.num_zz_terms
        value = self.offset
        if num_z:
            value += sin_2b * float((sines[:num_z] * products[:num_z]) @ wz)
        if num_zz:
            sin_4b = math.sin(4.0 * beta)
            h_cos = np.cos(two_g * self._h_pack)
            e1 = num_z + num_zz
            e2 = e1 + num_zz
            e3 = e2 + num_zz
            term1 = sines[num_z:] * (
                h_cos[:num_zz] * products[num_z:e1]
                + h_cos[num_zz : 2 * num_zz] * products[e1:e2]
            )
            term2 = h_cos[2 * num_zz : 3 * num_zz] * products[e2:e3]
            term2 -= h_cos[3 * num_zz :] * products[e3:]
            zz_vals = (0.5 * sin_4b) * term1
            zz_vals += (0.5 * sin_2b * sin_2b) * term2
            value += float(zz_vals @ wzz)
        return float(value)


def qaoa1_term_expectations_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    structure: "QAOA1Structure | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched closed-form per-term expectations (see :class:`QAOA1Structure`)."""
    structure = structure or QAOA1Structure(hamiltonian)
    return structure.term_expectations(gammas, betas)


def qaoa1_expectation_and_grad(
    hamiltonian: IsingHamiltonian,
    gamma: float,
    beta: float,
    structure: "QAOA1Structure | None" = None,
    fidelity: float = 1.0,
    readout: "dict[int, float] | None" = None,
) -> tuple[float, float, float]:
    """Closed-form p=1 ``(value, d/dgamma, d/dbeta)`` at one point.

    The statevector-free twin of :func:`repro.sim.qaoa_kernel.
    qaoa_value_and_grad` for single-layer training; ``fidelity`` /
    ``readout`` fold noise into the combination weights exactly as
    :func:`qaoa1_expectations_batch` does.
    """
    structure = structure or QAOA1Structure(hamiltonian)
    weights = structure.term_weights(fidelity=fidelity, readout=readout)
    return structure.expectation_and_grad(float(gamma), float(beta), weights)


def qaoa1_expectations_batch(
    hamiltonian: IsingHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    structure: "QAOA1Structure | None" = None,
    fidelity: float = 1.0,
    readout: "dict[int, float] | None" = None,
) -> np.ndarray:
    """Exact p=1 expectations of a whole ``(gamma, beta)`` batch at once.

    The vectorized counterpart of calling :func:`qaoa1_expectation` in a
    loop: one kernel call evaluates all ``P`` points over all terms. Pass
    ``fidelity``/``readout`` to fold the global-depolarizing attenuation
    into the combination weights (the noisy-objective training path).
    """
    structure = structure or QAOA1Structure(hamiltonian)
    return structure.expectations(
        gammas, betas, fidelity=fidelity, readout=readout
    )
