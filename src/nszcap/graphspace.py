"""Channels and non-commutative bipartite graphs.

A quantum channel enters as a Kraus family and is reduced to the projection
``P_AB`` onto the span of its Kraus vectors, the support of its Choi matrix
(convention ``J_AB = sum_ij |i><j|_A (x) N(|i><j|)_B``, A first);
:func:`ncgraph_from_channel` takes a pivoted QR of the Kraus vectors and never
forms that matrix.  The projection, together with the input/output dimensions,
is the non-commutative bipartite graph on which every capacity in
:mod:`nszcap.capacities` is defined.

Classical-quantum channels get the lighter :class:`CqGraph` representation, a
list of output support projections.  Product graphs check their Choi dimension
against ``NSZCAP_MAX_DIM`` (:func:`require_choi_dim`) before they are formed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .matrixcore import (
    RANK_TOL,
    ValidationError,
    as_matrix,
    herm_deviation,
    partial_trace,
    permute_systems,
    support_projection,
    tensor,
    generalized_pauli,
)

PROJECTOR_TOL = 1e-9
TRACE_PRESERVING_TOL = 1e-8
DEFAULT_MAX_CHOI_DIM = 4096


class DimensionLimitError(RuntimeError):
    """A construction would exceed the configured Choi-dimension guard."""


def max_choi_dim() -> int:
    raw = os.environ.get("NSZCAP_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_CHOI_DIM
    try:
        limit = int(raw)
        if limit < 1:
            raise ValueError
    except ValueError:
        raise ValidationError(
            f"NSZCAP_MAX_DIM must be an integer of at least 1, got {raw!r}") from None
    return limit


def require_choi_dim(dim: int):
    """Raise :class:`DimensionLimitError` when a Choi dimension exceeds the
    ``NSZCAP_MAX_DIM`` guard (:func:`max_choi_dim`)."""
    limit = max_choi_dim()
    if dim > limit:
        raise DimensionLimitError(
            f"Choi dimension {dim} exceeds the limit {limit} (override with NSZCAP_MAX_DIM)")


@dataclass
class KrausChannel:
    """A completely positive map given by Kraus operators.

    ``kraus`` holds ``d_out x d_in`` matrices ``E_i`` with
    ``sum_i E_i^dag E_i = 1`` to ``TRACE_PRESERVING_TOL`` (trace preservation);
    any other family is rejected.
    """

    d_in: int
    d_out: int
    kraus: list

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValidationError("channel dimensions must be positive")
        if not self.kraus:
            raise ValidationError("channel needs at least one Kraus operator")
        ops = []
        for E in self.kraus:
            A = as_matrix(E)
            if A.shape != (self.d_out, self.d_in):
                raise ValidationError(
                    f"Kraus operator shape {A.shape} does not match ({self.d_out},{self.d_in})")
            if not np.all(np.isfinite(A)):
                raise ValidationError("Kraus operator has non-finite entries")
            ops.append(A)
        self.kraus = ops
        gram = sum(E.conj().T @ E for E in ops)
        dev = float(np.abs(gram - np.eye(self.d_in)).max())
        if dev > TRACE_PRESERVING_TOL:
            raise ValidationError(
                f"Kraus family is not trace preserving (|sum E^dag E - 1| = {dev:.3e})")


@dataclass
class NCGraph:
    """Non-commutative bipartite graph: dims plus the Choi support projection."""

    d_A: int
    d_B: int
    P_AB: np.ndarray

    def __post_init__(self):
        P = as_matrix(self.P_AB)
        n = self.d_A * self.d_B
        if P.shape != (n, n):
            raise ValidationError(f"P_AB shape {P.shape} does not match dims ({self.d_A},{self.d_B})")
        if not np.all(np.isfinite(P)):
            raise ValidationError("P_AB has non-finite entries")
        if herm_deviation(P) > PROJECTOR_TOL:
            raise ValidationError("P_AB is not Hermitian")
        if float(np.abs(P @ P - P).max()) > PROJECTOR_TOL:
            raise ValidationError("P_AB is not idempotent")
        self.P_AB = 0.5 * (P + P.conj().T)

    @property
    def dim(self) -> int:
        return self.d_A * self.d_B

    @property
    def Q_AB(self) -> np.ndarray:
        return np.eye(self.dim) - self.P_AB

    @property
    def P_B(self) -> np.ndarray:
        return partial_trace(self.P_AB, self.d_A, self.d_B, "first")

    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.P_AB)))))


@dataclass
class CqGraph:
    """Classical-quantum graph: one output support projection per input symbol."""

    projections: list

    def __post_init__(self):
        if not self.projections:
            raise ValidationError("cq graph needs at least one projection")
        ops = []
        d = None
        for i, P in enumerate(self.projections):
            A = as_matrix(P)
            if A.shape[0] != A.shape[1]:
                raise ValidationError(f"cq output {i} is not square: shape {A.shape}")
            if d is None:
                d = A.shape[0]
            if A.shape != (d, d):
                raise ValidationError("cq projections must share one output dimension")
            if not np.all(np.isfinite(A)):
                raise ValidationError("cq projection has non-finite entries")
            if herm_deviation(A) > PROJECTOR_TOL or float(np.abs(A @ A - A).max()) > PROJECTOR_TOL:
                raise ValidationError("cq output is not a projector")
            if float(np.trace(A).real) < 0.5:   # the trace of a projector is its rank
                raise ValidationError(f"cq output {i} has empty support")
            ops.append(0.5 * (A + A.conj().T))
        self.projections = ops

    @property
    def num_inputs(self) -> int:
        return len(self.projections)

    @property
    def d_B(self) -> int:
        return self.projections[0].shape[0]


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j|_A (x) N(|i><j|)``, a ``d_A d_B`` square PSD matrix."""
    vecs = [E.T.reshape(-1) for E in ch.kraus]  # component (i*d_out + b) = E[b, i]
    J = np.zeros((ch.d_in * ch.d_out,) * 2, dtype=complex)
    for v in vecs:
        J += np.outer(v, v.conj())
    return 0.5 * (J + J.conj().T)


def ncgraph_from_channel(ch: KrausChannel) -> NCGraph:
    """Graph of a channel: the projection onto the span of its Kraus vectors (the
    Choi support), from a column-pivoted QR of the normalized nonzero vectors
    that keeps the pivots above ``RANK_TOL`` times the first.  Unlike the Choi
    eigenvalues, it does not depend on the Kraus weights (arXiv 1409.3426)."""
    V = np.stack([E.T.reshape(-1) for E in ch.kraus], axis=1)  # as in choi_matrix
    norms = np.linalg.norm(V, axis=0)
    Q, R, _ = sla.qr(V[:, norms > 0] / norms[norms > 0], mode="economic", pivoting=True)
    pivots = np.abs(np.diag(R))
    Q = Q[:, pivots > RANK_TOL * pivots.max(initial=0.0)]
    return NCGraph(ch.d_in, ch.d_out, Q @ Q.conj().T)


def delta(ell: int) -> NCGraph:
    """Noiseless classical channel on ``ell`` symbols: ``P = sum_i |ii><ii|``."""
    if ell < 1:
        raise ValidationError("delta requires at least one symbol")
    P = np.zeros((ell * ell, ell * ell), dtype=complex)
    for i in range(ell):
        P[i * ell + i, i * ell + i] = 1.0
    return NCGraph(ell, ell, P)


def tensor_graph(K1: NCGraph, K2: NCGraph) -> NCGraph:
    """Graph of a product channel, reordered to (A A')(B B'), size-guarded."""
    require_choi_dim(K1.dim * K2.dim)
    P = tensor(K1.P_AB, K2.P_AB)
    P = permute_systems(P, [K1.d_A, K1.d_B, K2.d_A, K2.d_B], [0, 2, 1, 3])
    return NCGraph(K1.d_A * K2.d_A, K1.d_B * K2.d_B, P)


def tensor_powers(K: NCGraph, n: int):
    """K, K^2, ..., K^n, lazily: each power is one product with the last,
    and :func:`tensor_graph` guards its size."""
    Kn = None
    for _ in range(n):
        Kn = K if Kn is None else tensor_graph(Kn, K)
        yield Kn


def direct_sum(K1: NCGraph, K2: NCGraph) -> NCGraph:
    """Graph of the direct sum of two channels: the block embedding of
    ``P1`` and ``P2`` on ``(A1 + A2) (x) (B1 + B2)``, size-guarded."""
    dA, dB = K1.d_A + K2.d_A, K1.d_B + K2.d_B
    require_choi_dim(dA * dB)
    P = np.zeros((dA * dB, dA * dB), dtype=complex)
    idx1 = [a * dB + b for a in range(K1.d_A) for b in range(K1.d_B)]
    idx2 = [(K1.d_A + a) * dB + (K1.d_B + b) for a in range(K2.d_A) for b in range(K2.d_B)]
    P[np.ix_(idx1, idx1)] = K1.P_AB
    P[np.ix_(idx2, idx2)] = K2.P_AB
    return NCGraph(dA, dB, P)


def superdense_cq(K: NCGraph) -> CqGraph:
    """Dense-coding cq graph with projections ``(U_m (x) 1_B) P (U_m (x) 1_B)^dag``.

    ``U_m`` runs over all ``d_A^2`` generalized Pauli operators on A.
    """
    eye_B = np.eye(K.d_B)
    projs = []
    for a in range(K.d_A):
        for b in range(K.d_A):
            U = tensor(generalized_pauli(K.d_A, a, b), eye_B)
            projs.append(U @ K.P_AB @ U.conj().T)
    return CqGraph(projs)


def cq_from_states(outputs) -> CqGraph:
    """cq graph of a channel given by its output density matrices."""
    projs = []
    for i, rho in enumerate(outputs):
        A = as_matrix(rho)
        if A.shape[0] != A.shape[1]:
            raise ValidationError(f"cq output state {i} is not square: shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValidationError("cq output state has non-finite entries")
        tr = float(np.real(np.trace(A)))
        if abs(tr - 1.0) > 1e-8:
            raise ValidationError(f"cq output state has trace {tr:.9f}, expected 1")
        projs.append(support_projection(A))
    return CqGraph(projs)


def ncgraph_from_cq(C: CqGraph) -> NCGraph:
    """Embed a cq graph as the graph ``sum_i |i><i| (x) P_i`` of the underlying channel."""
    N, d = C.num_inputs, C.d_B
    P = np.zeros((N * d, N * d), dtype=complex)
    for i, Pi in enumerate(C.projections):
        P[i * d:(i + 1) * d, i * d:(i + 1) * d] = Pi
    return NCGraph(N, d, P)


# ---------------------------------------------------------------------------
# Built-in channels used throughout the test and verification suites.
# ---------------------------------------------------------------------------

def identity_channel(d: int = 2) -> KrausChannel:
    return KrausChannel(d, d, [np.eye(d)])


def depolarizing_channel(d: int = 2) -> KrausChannel:
    """Completely depolarizing channel; its Kraus span is all of L(C^d)."""
    ops = []
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0 / np.sqrt(d)
            ops.append(E)
    return KrausChannel(d, d, ops)


def dephasing_channel(ell: int) -> KrausChannel:
    """Noiseless classical channel on ``ell`` symbols (measure-and-reprepare)."""
    if ell < 1:
        raise ValidationError("dephasing channel needs at least one symbol")
    ops = []
    for i in range(ell):
        E = np.zeros((ell, ell), dtype=complex)
        E[i, i] = 1.0
        ops.append(E)
    return KrausChannel(ell, ell, ops)


def example4_channel(alpha_sq: float = 0.75) -> KrausChannel:
    """Two-input cq channel with pure outputs ``a|0> +/- b|1>``, ``a^2 = alpha_sq``."""
    if not 0.0 < alpha_sq <= 1.0:
        raise ValidationError("alpha_sq must lie in (0, 1]")
    a = np.sqrt(alpha_sq)
    b = np.sqrt(1.0 - alpha_sq)
    psi0 = np.array([a, b], dtype=complex)
    psi1 = np.array([a, -b], dtype=complex)
    E0 = np.outer(psi0, [1, 0])
    E1 = np.outer(psi1, [0, 1])
    return KrausChannel(2, 2, [E0, E1])


def example4_states(alpha_sq: float = 0.75) -> list:
    a = np.sqrt(alpha_sq)
    b = np.sqrt(1.0 - alpha_sq)
    out = []
    for s in (1.0, -1.0):
        psi = np.array([a, s * b], dtype=complex)
        out.append(np.outer(psi, psi.conj()))
    return out


def amplitude_damping_channel(r: float = 0.75) -> KrausChannel:
    """Qubit amplitude damping with decay probability ``r``."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError("damping probability must lie in [0, 1]")
    E0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - r)]], dtype=complex)
    E1 = np.array([[0.0, np.sqrt(r)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(2, 2, [E0, E1])


def prop11_channel() -> KrausChannel:
    """Three-level channel whose activated capacity exceeds its packing number."""
    k = np.zeros((3, 3, 3), dtype=complex)
    k[0][0, 0] = k[0][2, 0] = 1 / np.sqrt(2)
    k[1][0, 2] = np.sqrt(50 / 99)
    k[1][1, 1] = np.sqrt(1 / 99)
    k[1][2, 2] = np.sqrt(49 / 99)
    k[2][0, 1] = np.sqrt(98 / 99)
    return KrausChannel(3, 3, list(k))


def prop11_packing_dual_witness() -> np.ndarray:
    """Hand-constructed feasible point of the packing-number dual with trace 1.1751."""
    t = 0.1751
    T = np.zeros((3, 3), dtype=complex)
    T[0, 0] = 1.0
    T[0, 2] = T[2, 0] = np.sqrt(t)
    T[2, 2] = t
    return T


def amplitude_damping_activation_witness():
    """Feasible ``(S_A, U_AB)`` pair certifying the activated capacity 9/8 at r=3/4."""
    S = np.diag([3 / 8, 3 / 4]).astype(complex)
    U = np.zeros((4, 4), dtype=complex)
    U[0, 0] = U[0, 3] = U[3, 0] = U[3, 3] = 1 / 4
    U[2, 2] = 3 / 4
    return S, U
