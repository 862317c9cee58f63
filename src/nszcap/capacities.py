"""Capacity programs on non-commutative bipartite graphs.

Six quantities are computed, all as optimal values of semidefinite programs
solved by :mod:`nszcap.sdpsolver`:

``upsilon``         one-shot no-signalling-assisted zero-error capacity,
                    in messages (linear scale);
``upsilon_hat``     its activated variant, obtained by relaxing the output
                    marginal constraint from equality to an inequality;
``aram``            the semidefinite (fractional) packing number;
``upsilon_cq`` / ``upsilon_hat_cq`` / ``aram_cq``
                    the classical-quantum specializations.

Every result carries the primal witness matrices and, where available, the
dual witness, so values can be re-verified outside the solver.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field

import numpy as np

from .graphspace import CqGraph, NCGraph, ncgraph_from_cq
from .matrixcore import op_norm, partial_trace, tensor
from .sdpsolver import (
    Block,
    Equation,
    Lift,
    Read,
    SdpProblem,
    SdpSolution,
    SolverFailure,
    solve,
)

STRICT_TOL = 1e-7


@dataclass
class CapacityResult:
    quantity: str
    value: float
    primal_witness: dict
    dual_witness: dict
    gap: float
    status: str = "optimal"
    iterations: int = 0
    trace: list = field(default_factory=list)    # the solve's per-iteration records

    @property
    def log2_value(self) -> float:
        return math.log2(self.value) if self.value > 0 else -math.inf


def _graph_is_real(P) -> bool:
    return float(np.abs(np.asarray(P).imag).max(initial=0.0)) <= 1e-14


def _real_view(P, real: bool):
    A = np.asarray(P)
    return A.real.copy() if real else A.astype(complex)


def _run(problem: SdpProblem, quantity: str) -> SdpSolution:
    sol = solve(problem)
    if not sol.optimal:
        raise SolverFailure(
            f"{quantity}: solver returned status {sol.status!r} "
            f"(gap {sol.gap:.3e}, primal residual {sol.primal_residual:.3e}, "
            f"dual residual {sol.dual_residual:.3e}); last iteration: "
            + ", ".join(f"{k} {v:.3e}" if isinstance(v, float) else f"{k} {v}"
                        for k, v in sol.trace[-1].items()), solution=sol)
    return sol


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

def _projection_basis(P, real: bool, kernel: bool = True):
    """Orthonormal basis (columns) of ker(P) for a projection P, or of its range."""
    A = _real_view(P, real)
    w, V = np.linalg.eigh(A)
    return np.ascontiguousarray(V[:, (w < 0.5) == kernel])


def build_upsilon_problem(K: NCGraph, hat: bool) -> SdpProblem:
    """Transcribe the one-shot (or activated) capacity program.

    Variables: S on A, U on AB, the slack W = S (x) 1 - U, and for the
    activated variant the output slack Y = 1_B - tr_A U.  The support
    condition <P, W> = 0 together with W >= 0 forces W onto ker(P), so W is
    an r-dim block on ker(P), read through the frame theta^dag; this keeps the
    program strictly feasible, which the pinned formulation is not.  The
    equations are ``tr_A U + Y = 1_B`` (without Y for the one-shot program)
    and, last, ``U + theta W theta^dag - S (x) 1_B = 0``.
    """
    n, dA, dB = K.dim, K.d_A, K.d_B
    theta = _projection_basis(K.P_AB, _graph_is_real(K.P_AB))
    r = theta.shape[1]
    blocks = [Block(dA), Block(n)]
    coupling = {1: Read(), 0: Lift(dB, -1.0)}       # blocks S, U, W (if r), Y (if hat)
    if r:
        blocks.append(Block(r))
        coupling[2] = Read(theta.conj().T)
    marginal = {1: Lift(1, t=dA)}                   # tr_A U: U's d_A principal B-blocks
    if hat:
        blocks.append(Block(dB))
        marginal[len(blocks) - 1] = Read()
    objective = [np.eye(dA)] + [None] * (len(blocks) - 1)
    constraints = [Equation(marginal, np.eye(dB)), Equation(coupling, np.zeros((n, n)))]
    return SdpProblem(blocks, objective, constraints, name="upsilon_hat" if hat else "upsilon")


def _upsilon_result(K: NCGraph, hat: bool) -> CapacityResult:
    quantity = "upsilon_hat" if hat else "upsilon"
    sol = _run(build_upsilon_problem(K, hat), quantity)
    primal = {"S_A": np.asarray(sol.primal_blocks[0]),
              "U_AB": np.asarray(sol.primal_blocks[1])}
    T, V = sol.dual_multipliers
    return CapacityResult(quantity, sol.primal_value, primal, {"T_B": T, "V_AB": -V},
                          sol.gap, sol.status, sol.iterations, sol.trace)


def upsilon(K: NCGraph) -> CapacityResult:
    """One-shot no-signalling-assisted zero-error capacity (message count)."""
    return _upsilon_result(K, False)


def upsilon_hat(K: NCGraph) -> CapacityResult:
    """Activated one-shot capacity: borrow a noiseless channel, pay it back."""
    return _upsilon_result(K, True)


def build_upsilon_hat_dual_problem(K: NCGraph) -> SdpProblem:
    """Transcribe the minimization dual of the activated capacity.

    Variables: T on B, and the slacks Y1 = 1 (x) T - V,
    y2 = tr_B V - 1_A, Y3 = -(1-P) V (1-P); V itself is eliminated through
    Y1.  Y3 is an r-dim block on ker(P), which keeps the program strictly
    feasible.  The equations are ``y2 + tr_B Y1 - tr(T) 1_A = -1_A`` and
    ``Y3 - theta^dag Y1 theta + theta^dag (1 (x) T) theta = 0``.  Y1 and theta
    are stored on B (x) A, so tr_B Y1 is the sum of Y1's d_B principal A-blocks,
    a ``Lift(1, t=d_B)``.  Both maps of T are Kraus sums: ``tr(T) 1_A`` lifts the
    d_B diagonal entries of T, and ``theta^dag (1 (x) T) theta = sum_a kappa_a^dag
    T kappa_a`` for the d_A operators ``kappa_a = (1_B (x) <a|) theta``, side by
    side in theta's d_B x (d_A r) reshape.  :func:`upsilon_hat_dual` reorders Y1
    back to A (x) B.
    """
    n, dA, dB = K.dim, K.d_A, K.d_B
    theta = _projection_basis(K.P_AB, _graph_is_real(K.P_AB))
    r = theta.shape[1]
    theta = theta.reshape(dA, dB, r).transpose(1, 0, 2).reshape(n, r)    # rows on B (x) A
    blocks = [Block(dB), Block(n), Block(dA)]
    objective = [-np.eye(dB)] + [None] * (2 + bool(r))
    constraints = [Equation({2: Read(), 1: Lift(1, t=dB), 0: Lift(dA, -1.0, t=dB)},
                            -np.eye(dA))]                     # blocks T, Y1, y2, Y3 (if r)
    if r:
        blocks.append(Block(r))
        constraints.append(Equation({3: Read(), 1: Read(theta, -1.0),
                                     0: Read(theta.reshape(dB, dA * r), t=dA)},
                                    np.zeros((r, r))))
    return SdpProblem(blocks, objective, constraints, name="upsilon_hat_dual")


def upsilon_hat_dual(K: NCGraph) -> CapacityResult:
    """Activated capacity computed from its dual program (min tr T form)."""
    sol = _run(build_upsilon_hat_dual_problem(K), "upsilon_hat_dual")
    T = np.asarray(sol.primal_blocks[0])
    n, dA, dB = K.dim, K.d_A, K.d_B         # Y1 from B (x) A back to A (x) B
    Y1 = np.asarray(sol.primal_blocks[1]).reshape(dB, dA, dB, dA).transpose(1, 0, 3, 2)
    V = tensor(np.eye(dA, dtype=T.dtype), T) - Y1.reshape(n, n)
    primal = {"T_B": T, "V_AB": V}
    return CapacityResult("upsilon_hat_dual", -sol.primal_value, primal, {},
                          sol.gap, sol.status, sol.iterations, sol.trace)


def build_aram_problem(K: NCGraph) -> SdpProblem:
    """Transcribe the semidefinite packing number program: maximize tr S over
    S >= 0 with ``tr_A(P_AB (S^T (x) 1_B)) + Y = 1_B``, Y >= 0.

    The packing map is completely positive on ``S' = S^T``: with
    ``P_AB = sum_k psi_k psi_k^dag`` and Psi_k the d_A x d_B reshape of psi_k, it is
    ``sum_k Psi_k^T S' conj(Psi_k)``.  The program's block is S'."""
    dA, dB = K.d_A, K.d_B
    psi = _projection_basis(K.P_AB, _graph_is_real(K.P_AB), kernel=False)
    kraus = np.conj(psi.reshape(dA, dB, -1).transpose(0, 2, 1)).reshape(dA, -1)
    return SdpProblem([Block(dA), Block(dB)], [np.eye(dA), None],
                      [Equation({0: Read(kraus, t=psi.shape[1]), 1: Read()}, np.eye(dB))],
                      name="aram")


def aram(K: NCGraph) -> CapacityResult:
    """Semidefinite (fractional) packing number."""
    sol = _run(build_aram_problem(K), "aram")
    primal = {"S_A": np.asarray(sol.primal_blocks[0]).T.copy()}
    return CapacityResult("aram", sol.primal_value, primal, {"T_B": sol.dual_multipliers[0]},
                          sol.gap, sol.status, sol.iterations, sol.trace)


# ---------------------------------------------------------------------------
# Classical-quantum programs
# ---------------------------------------------------------------------------

def _cq_is_real(C: CqGraph) -> bool:
    return all(_graph_is_real(P) for P in C.projections)


def _cq_kernels(C: CqGraph) -> dict:
    """Orthonormal bases theta_i of ker(P_i), for each input i whose output is not full rank."""
    real = _cq_is_real(C)
    thetas = {i: _projection_basis(P, real) for i, P in enumerate(C.projections)}
    return {i: theta for i, theta in thetas.items() if theta.shape[1]}


def build_cq_problem(C: CqGraph, hat: bool) -> SdpProblem:
    """Transcribe the cq one-shot (or, with ``hat``, activated) capacity program.

    The slack pair R_i, G_i with R_i + G_i = s_i (1 - P_i) lives on
    ker(P_i), so both are r_i-dim blocks there; in those coordinates the
    coupling is simply R_i + G_i = s_i * identity, and the marginal
    ``sum_i s_i P_i + sum_i theta_i R_i theta_i^dag + Y = 1_B`` reads R_i
    through the frame theta_i^dag.  The blocks are S, then R_i and G_i for
    each input i with a kernel, then Y (with ``hat``).

    The vector s is the diagonal of one N x N block S: the objective is
    ``tr S`` and every coefficient on S is diagonal, so only diag(S) enters
    the program.  That makes the block exactly the nonnegative cone: a PSD S
    has diag(S) >= 0, and for s >= 0 the matrix diag(s) is PSD.  The solver
    keeps S diagonal too: it starts at a multiple of the identity, and the NT
    point and Newton directions of a diagonal pair are diagonal.

    This program stays beside ``upsilon(ncgraph_from_cq(C))``, which has the
    same value, because its rows grow like N d_B^2 rather than (N d_B)^2: on a
    2-core VM with one BLAS thread the two take about the same time at
    N d_B <= 12, but the embedded program is 1.4-2x slower at N = 12, d_B = 2
    and 3.5-5.7x at N = 16, d_B = 2 (median 294 ms against 61 ms over five
    random graphs).
    """
    N, dB, real = C.num_inputs, C.d_B, _cq_is_real(C)
    # sum_i s_i P_i is the Kraus sum of the operators e_i psi^dag over the unit
    # vectors psi of a basis of the range of each P_i
    psi = [_projection_basis(P, real, kernel=False) for P in C.projections]
    inputs = np.repeat(np.arange(N), [v.shape[1] for v in psi])
    kraus = np.zeros((N, len(inputs), dB), dtype=psi[0].dtype)
    kraus[inputs, np.arange(len(inputs))] = np.conj(np.concatenate(psi, axis=1)).T
    blocks = [Block(N)]
    constraints = []
    marginal = {0: Read(kraus.reshape(N, -1), t=len(inputs))}
    for i, theta in _cq_kernels(C).items():
        r = theta.shape[1]
        blocks += [Block(r), Block(r)]
        constraints.append(Equation({len(blocks) - 2: Read(), len(blocks) - 1: Read(),
                                     0: Lift(r, -1.0, at=i)}, np.zeros((r, r))))
        marginal[len(blocks) - 2] = Read(theta.conj().T)
    if hat:
        blocks.append(Block(dB))
        marginal[len(blocks) - 1] = Read()
    constraints.append(Equation(marginal, np.eye(dB)))
    objective = [np.eye(N)] + [None] * (len(blocks) - 1)
    return SdpProblem(blocks, objective, constraints, name="cq_hat" if hat else "cq_upsilon")


def _cq_result(C: CqGraph, hat: bool) -> CapacityResult:
    quantity = "upsilon_hat_cq" if hat else "upsilon_cq"
    sol = _run(build_cq_problem(C, hat), quantity)
    thetas = _cq_kernels(C)
    R = iter(sol.primal_blocks[1::2])       # R_i, in input order
    primal = {"s": np.diag(sol.primal_blocks[0]).real.copy(),
              "R": [thetas[i] @ next(R) @ np.conj(thetas[i]).T
                    if i in thetas else np.zeros((C.d_B, C.d_B))
                    for i in range(C.num_inputs)]}
    return CapacityResult(quantity, sol.primal_value, primal, {}, sol.gap,
                          sol.status, sol.iterations, sol.trace)


def upsilon_cq(C: CqGraph) -> CapacityResult:
    """One-shot capacity of a classical-quantum graph."""
    return _cq_result(C, False)


def upsilon_hat_cq(C: CqGraph) -> CapacityResult:
    """Activated one-shot capacity of a classical-quantum graph."""
    return _cq_result(C, True)


def aram_cq(C: CqGraph) -> CapacityResult:
    """Packing number of a classical-quantum graph: the packing program of its
    embedded graph ``sum_i |i><i| (x) P_i``, whose S_A has the diagonal s."""
    sol = _run(build_aram_problem(ncgraph_from_cq(C)), "aram_cq")
    return CapacityResult("aram_cq", sol.primal_value,
                          {"s": np.diag(sol.primal_blocks[0]).real.copy()}, {}, sol.gap,
                          sol.status, sol.iterations, sol.trace)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def superdense_bound(K: NCGraph) -> float:
    """Dense-coding lower bound ``d_A / ||tr_A P_AB||_inf`` on the activated capacity."""
    return K.d_A / op_norm(K.P_B)


@dataclass
class Thm9Report:
    aram_gt_1: bool
    pb_strict: bool
    trq_posdef: bool
    uhat_gt_1: bool
    margins: dict

    def all_agree(self) -> bool:
        vals = [self.aram_gt_1, self.pb_strict, self.trq_posdef, self.uhat_gt_1]
        return all(vals) or not any(vals)


class _Inline(Executor):
    """Runs each submitted call at once, in the submitting thread."""

    def submit(self, fn, /, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _timed(fn: str, K):
    """``fn(K)`` for the capacity named ``fn``, and the seconds it took."""
    t0 = time.perf_counter()
    result = globals()[fn](K)
    return result, time.perf_counter() - t0


class CapacityCache:
    """Memoizes capacity solves keyed by exact graph bytes (results are pure),
    counting the solves it ran and the lookups it answered from memory.

    A miss is submitted to ``executor`` (by default it is solved at once, in
    the asking thread), and the cache keeps one future per key, so threads
    asking for one key share one solve.
    """

    def __init__(self, executor: Executor | None = None):
        self._executor = executor or _Inline()
        self._futures = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.solves = self.hits = 0

    def _key(self, fn: str, K):
        if isinstance(K, CqGraph):
            return (fn, *(P.tobytes() for P in K.projections))
        return (fn, K.d_A, K.d_B, K.P_AB.tobytes())

    def result(self, fn: str, K):
        cpu = time.thread_time()
        key = self._key(fn, K)
        with self._lock:
            future = self._futures.get(key)
            if future is None:
                self.solves += 1
                future = self._futures[key] = self._executor.submit(_timed, fn, K)
            else:
                self.hits += 1
        result = future.result()[0]
        self.lookups().append((key, time.thread_time() - cpu))
        return result

    def value(self, fn: str, K) -> float:
        return self.result(fn, K).value

    def lookups(self) -> list:
        """``(key, cpu_s)`` of each answered lookup of the calling thread, in
        order: the key, and the thread CPU seconds the lookup took, solving
        inline or waiting for the executor."""
        if not hasattr(self._local, "lookups"):
            self._local.lookups = []
        return self._local.lookups

    def seconds(self, key) -> float:
        """Seconds the solve of ``key`` took where it ran."""
        return self._futures[key].result()[1]


def thm9_criteria(K: NCGraph, cache: CapacityCache) -> Thm9Report:
    """Evaluate the four equivalent positivity criteria with declared tolerances.

    Strict operator inequalities are decided with margin ``STRICT_TOL``; the
    criteria are provably equivalent, so a report whose criteria disagree
    (:meth:`Thm9Report.all_agree` is False) signals solver trouble.  The
    capacities ``aram`` and ``upsilon_hat`` come from ``cache``.
    """
    pb_margin = K.d_A - op_norm(K.P_B)
    trq = partial_trace(K.Q_AB, K.d_A, K.d_B, "first")
    trq_margin = float(np.linalg.eigvalsh(0.5 * (trq + trq.conj().T))[0])
    aram_margin = cache.value("aram", K) - 1.0
    uhat_margin = cache.value("upsilon_hat", K) - 1.0
    return Thm9Report(
        aram_gt_1=aram_margin > STRICT_TOL,
        pb_strict=pb_margin > STRICT_TOL,
        trq_posdef=trq_margin > STRICT_TOL,
        uhat_gt_1=uhat_margin > STRICT_TOL,
        margins={"aram": aram_margin, "pb": pb_margin,
                 "trq": trq_margin, "uhat": uhat_margin},
    )


def is_activatable(K: NCGraph, cache: CapacityCache) -> bool:
    """True when the activated capacity strictly exceeds the plain one-shot value."""
    return cache.value("upsilon_hat", K) > cache.value("upsilon", K) + 1e-6


def first_n0(powers, cache: CapacityCache):
    """The position, from 1, of the first graph of ``powers`` (K, K^2, ...)
    with one-shot capacity at least 2, or None; powers past it are not taken."""
    for n, Kn in enumerate(powers, 1):
        if cache.value("upsilon", Kn) >= 2.0 - 1e-7:
            return n
    return None


# ---------------------------------------------------------------------------
# Witness re-verification (independent of the solver)
# ---------------------------------------------------------------------------

def _min_eig(M) -> float:
    A = np.asarray(M, dtype=complex)
    return float(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0])


def check_upsilon_witness(K: NCGraph, S, U, hat: bool) -> dict:
    """Constraint violations of an (S, U) pair for the capacity program."""
    S = np.asarray(S); U = np.asarray(U)
    SI = tensor(S, np.eye(K.d_B))
    trA_U = partial_trace(U, K.d_A, K.d_B, "first")
    marg = trA_U - np.eye(K.d_B)
    marg_violation = -_min_eig(-marg) if hat else float(np.abs(marg).max())
    return {
        "U_psd": -min(_min_eig(U), 0.0),
        "slack_psd": -min(_min_eig(SI - U), 0.0),
        "output_marginal": max(marg_violation, 0.0),
        "support_pairing": abs(float(np.vdot(K.P_AB, SI - U).real)),
    }


def check_eq5_witness(K: NCGraph, T, V) -> dict:
    """Constraint violations of a (T, V) pair for the dual program."""
    T = np.asarray(T); V = np.asarray(V)
    Q = K.Q_AB
    return {
        "T_psd": -min(_min_eig(T), 0.0),
        "upper": -min(_min_eig(tensor(np.eye(K.d_A), T) - V), 0.0),
        "input_marginal": -min(_min_eig(partial_trace(V, K.d_A, K.d_B, "second") - np.eye(K.d_A)),
                               0.0),
        "complement": max(-_min_eig(-(Q @ V @ Q)), 0.0),
    }


def check_aram_dual_witness(K: NCGraph, T) -> dict:
    """Constraint violations of T for the packing-number dual."""
    T = np.asarray(T)
    P4 = K.P_AB.reshape(K.d_A, K.d_B, K.d_A, K.d_B)
    PT = np.einsum("abcd,db->ac", P4, T.astype(complex))
    PT = 0.5 * (PT + PT.conj().T)
    return {
        "T_psd": -min(_min_eig(T), 0.0),
        "covering": -min(_min_eig(PT - np.eye(K.d_A)), 0.0),
    }
