"""Self-contained primal-dual interior-point solver for block SDPs.

Solves, over a product of complex-Hermitian PSD cones and nonnegative
diagonal cones,

    maximize    <C, X>
    subject to  <A_k, X> = b_k   (k = 1..m),   X >= 0 (per block),

together with the dual ``minimize b.y  s.t.  Z = sum_k y_k A_k - C >= 0``.
All coefficient matrices are Hermitian, so every inner product
``<A, X> = tr(A X)`` is real and the Schur complement of the Newton system is
a real symmetric positive definite m x m matrix.

Algorithm: infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step, the Newton system reduced to the Schur
complement and factored by dense Cholesky (with escalating diagonal
regularization on breakdown).  The solver works on the complex Hermitian
blocks directly; :func:`realify` provides the standard spectrum-preserving
embedding into real symmetric matrices and is used by the test suite to
cross-check PSD-ness in the real domain.

Constraint coefficients may be given either as dense arrays or in a sparse
triplet form (:class:`Coo`); problems built from entry-functional families
(the common case here) stay sparse and the Schur complement is assembled by
index arithmetic instead of per-constraint matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .matrixcore import ValidationError, herm_deviation

PSD = "psd-hermitian"
NONNEG = "nonneg-diagonal"

_STATUS_OPTIMAL = "optimal"
_STATUS_MAXITER = "max-iter"
_STATUS_NUMFAIL = "numerical-failure"
_STATUS_UNBOUNDED = "unbounded"
_STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True, eq=False)
class Block:
    """Cone block.  ``dim`` is the block's own dimension.

    A PSD block may carry an isometry ``basis`` (ambient x dim).  The block
    variable then represents ``basis @ X @ basis^dag`` inside a larger ambient
    space, and every constraint coefficient for the block is given in ambient
    coordinates.  This is how equality-pinned slacks (a PSD variable forced
    onto the range of a projection, which would destroy strict feasibility)
    are kept strictly feasible in their own coordinates.
    """

    kind: str
    dim: int
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (PSD, NONNEG):
            raise ValidationError(f"unknown block kind {self.kind!r}")
        if self.dim < 1:
            raise ValidationError("block dimension must be positive")
        if self.basis is not None:
            B = np.asarray(self.basis)
            if self.kind != PSD or B.ndim != 2 or B.shape[1] != self.dim:
                raise ValidationError("block basis must be an (ambient x dim) isometry")
            if float(np.abs(B.conj().T @ B - np.eye(self.dim)).max()) > 1e-10:
                raise ValidationError("block basis is not an isometry")

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.basis is None else int(np.asarray(self.basis).shape[0])


@dataclass(frozen=True)
class Coo:
    """Sparse Hermitian coefficient: entries ``vv`` at positions ``(ii, jj)``.

    The triplet list must describe a Hermitian matrix explicitly, i.e. it
    contains both ``(i, j, v)`` and ``(j, i, conj(v))`` for off-diagonal
    entries.
    """

    ii: np.ndarray
    jj: np.ndarray
    vv: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.vv)

    def to_dense(self, n: int, dtype=complex) -> np.ndarray:
        A = np.zeros((n, n), dtype=dtype)
        np.add.at(A, (self.ii, self.jj), self.vv.astype(dtype, copy=False))
        return A


def coo(ii, jj, vv) -> Coo:
    return Coo(np.asarray(ii, dtype=np.intp), np.asarray(jj, dtype=np.intp), np.asarray(vv))


@dataclass
class SdpProblem:
    """Block conic program; see module docstring for the primal/dual pair."""

    blocks: list
    objective: list          # per block: dense Hermitian / real vector / None
    constraints: list        # list of (coeffs: dict block->Coo|ndarray, rhs: float)
    name: str = ""

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def validate(self, herm_tol: float = 1e-10):
        for b, C in zip(self.blocks, self.objective):
            if C is None:
                continue
            if b.kind == PSD:
                A = np.asarray(C)
                if A.shape != (b.ambient_dim, b.ambient_dim):
                    raise ValidationError("objective block shape mismatch")
                if herm_deviation(A) > herm_tol:
                    raise ValidationError("objective block is not Hermitian")
            else:
                if np.asarray(C).shape != (b.dim,):
                    raise ValidationError("objective vector shape mismatch")
        for k, (coeffs, rhs) in enumerate(self.constraints):
            if not np.isfinite(rhs):
                raise ValidationError(f"constraint {k}: non-finite rhs")
            for bi, A in coeffs.items():
                blk = self.blocks[bi]
                if blk.kind == NONNEG:
                    continue
                na = blk.ambient_dim
                if isinstance(A, Coo):
                    D = A.to_dense(na)
                else:
                    D = np.asarray(A)
                    if D.shape != (na, na):
                        raise ValidationError(f"constraint {k}: coefficient shape mismatch")
                if herm_deviation(D) > herm_tol:
                    raise ValidationError(f"constraint {k}: coefficient is not Hermitian")


@dataclass
class SdpSolution:
    status: str
    primal_value: float
    dual_value: float
    primal_blocks: list
    dual_multipliers: np.ndarray
    dual_slacks: list
    gap: float
    iterations: int
    primal_residual: float = 0.0
    dual_residual: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == _STATUS_OPTIMAL


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200


class SolverFailure(RuntimeError):
    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


def realify(H) -> np.ndarray:
    """Embed a Hermitian matrix as ``[[Re H, -Im H], [Im H, Re H]]``.

    The image is real symmetric with each eigenvalue of ``H`` doubled in
    multiplicity, so positive semidefiniteness is preserved both ways;
    traces double and ``<realify(A), realify(B)> = 2 Re <A, B>``.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("realify expects a square matrix")
    if herm_deviation(A) > 1e-10:
        raise ValidationError("realify expects a Hermitian matrix")
    re, im = A.real, A.imag
    return np.block([[re, -im], [im, re]])


# ---------------------------------------------------------------------------
# Entry-functional helpers shared by the SDP builders.
#
# The canonical enumeration of Hermitian entry functionals on Herm(n) is:
# diagonal (i, i, 're') for each i, then (i, j, 're'), (i, j, 'im') for each
# i < j.  In real mode the 'im' functionals are dropped; that restriction is
# exact whenever every data matrix of the program is real.
# ---------------------------------------------------------------------------

def herm_entries(n: int, real: bool = False):
    """Canonical entry-functional coordinates on Herm(n)."""
    for i in range(n):
        yield (i, i, "re")
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j, "re")
            if not real:
                yield (i, j, "im")


def num_herm_entries(n: int, real: bool = False) -> int:
    return n * (n + 1) // 2 if real else n * n


def entry_coeff(i: int, j: int, kind: str, scale: float = 1.0) -> Coo:
    """Hermitian functional with ``<A, X> = scale * Re/Im X[i, j]``."""
    if i == j:
        if kind != "re":
            raise ValidationError("diagonal entries have no imaginary part")
        return coo([i], [i], [scale])
    if kind == "re":
        return coo([i, j], [j, i], [0.5 * scale, 0.5 * scale])
    return coo([i, j], [j, i], [0.5j * scale, -0.5j * scale])


def entry_value(M, i: int, j: int, kind: str) -> float:
    return float(M[i, j].real) if kind == "re" else float(M[i, j].imag)


def herm_from_entry_values(n: int, vals, real: bool = False) -> np.ndarray:
    """Assemble ``sum_e vals[e] A_e`` over the canonical entry functionals."""
    M = np.zeros((n, n), dtype=float if real else complex)
    for (i, j, kind), v in zip(herm_entries(n, real), np.asarray(vals, dtype=float)):
        if i == j:
            M[i, i] = v
        else:
            h = 0.5 * v if kind == "re" else 0.5j * v
            M[i, j] += h
            M[j, i] += np.conj(h)
    return M


# ---------------------------------------------------------------------------
# Preprocessed per-block constraint data
# ---------------------------------------------------------------------------

_DENSE_NNZ_THRESHOLD = 9  # coefficients above this many entries take the dense path
_SCHUR_CHUNK = 4_000_000  # pair products per chunk of sparse Schur assembly


def _cast(arr, dtype):
    """Cast to the working dtype; imaginary parts are exact zeros in real mode."""
    if dtype == np.float64 and np.iscomplexobj(arr):
        return np.ascontiguousarray(arr.real, dtype=dtype)
    return arr.astype(dtype, copy=False)


class _PsdBlockData:
    """Constraint data for one PSD block.

    Sparse coefficients keep their ambient-space triplets; dense coefficients
    are stored compressed (``theta^dag A theta``) for based blocks.  The block
    iterate itself always lives in the block's own ``dim``.
    """

    def __init__(self, n, dtype, theta=None):
        self.n = n                     # block dimension (compressed for based)
        self.dtype = dtype
        self.theta = None if theta is None else _cast(np.asarray(theta), dtype)
        self.C = np.zeros((n, n), dtype=dtype)
        # sparse side, folded Hermitian triplets: each constraint coefficient
        # is sum_s ( u_s E[p_s,q_s] + conj(u_s) E[q_s,p_s] ), diagonal entries
        # carried with u = value/2.  CSR-like over participating constraints.
        self.sk = np.zeros(0, dtype=np.intp)     # global constraint ids
        self.sptr = np.zeros(1, dtype=np.intp)
        self.fp = np.zeros(0, dtype=np.intp)
        self.fq = np.zeros(0, dtype=np.intp)
        self.fu = np.zeros(0, dtype=dtype)
        self.ske = np.zeros(0, dtype=np.intp)    # constraint id per folded entry
        # dense side (compressed coordinates)
        self.dk = np.zeros(0, dtype=np.intp)
        self.dA = np.zeros((0, n, n), dtype=dtype)

    def lift(self, V):
        """Map a block matrix to ambient coordinates."""
        if self.theta is None:
            return V
        return self.theta @ V @ np.conj(self.theta).T

    def compress(self, A):
        if self.theta is None:
            return A
        return np.conj(self.theta).T @ A @ self.theta

    def pair_all(self, V, out):
        """out[k] += <A_k, V> for all constraints touching this block."""
        if self.fu.size:
            Va = self.lift(V)
            vals = 2.0 * (self.fu * Va[self.fq, self.fp]).real
            out[self.sk] += np.add.reduceat(vals, self.sptr[:-1])
        if self.dk.size:
            out[self.dk] += (self.dA.conj().reshape(len(self.dk), -1) @ V.reshape(-1)).real

    def scatter(self, y, out):
        """out += sum_k y[k] A_k (compressed) over constraints touching this block."""
        if self.fu.size:
            contrib = self.fu * y[self.ske].astype(self.dtype, copy=False)
            target = out if self.theta is None else \
                np.zeros((self.theta.shape[0],) * 2, dtype=self.dtype)
            np.add.at(target, (self.fp, self.fq), contrib)
            np.add.at(target, (self.fq, self.fp), np.conj(contrib))
            if self.theta is not None:
                out += self.compress(target)
        if self.dk.size:
            out += np.tensordot(y[self.dk].astype(self.dtype, copy=False), self.dA, axes=1)

    def schur(self, W, M):
        """M += the block's contribution <A_k, W A_l W>.

        For folded triplets the pairwise trace reduces to
        ``2 Re[u_s u_t Wqp[s,t] Wqp[t,s]] + 2 Re[u_s conj(u_t) Wqq[s,t] conj(Wpp[s,t])]``
        with ``Wqp[s,t] = W[q_s, p_t]`` etc., assembled by fancy indexing.
        """
        if self.dk.size:
            D = np.matmul(W, np.matmul(self.dA, W))      # (md, n, n), D_l = W A_l W
            md = len(self.dk)
            G = (self.dA.conj().reshape(md, -1) @ D.reshape(md, -1).T).real
            M[self.dk[:, None], self.dk[None, :]] += G
            if self.fu.size:
                if self.theta is None:
                    Da = D
                else:
                    Da = np.einsum("ur,krs,vs->kuv", self.theta, D, np.conj(self.theta),
                                   optimize=True)
                vals = 2.0 * (Da[:, self.fq, self.fp] * self.fu[None, :]).real
                cross = np.add.reduceat(vals, self.sptr[:-1], axis=1)  # (md, ms)
                M[self.dk[:, None], self.sk[None, :]] += cross
                M[self.sk[:, None], self.dk[None, :]] += cross.T
        if self.fu.size:
            Wa = self.lift(W)
            S = self.fu.size
            starts = self.sptr[:-1]
            uc = np.conj(self.fu)
            g0 = 0
            n_groups = len(starts)
            while g0 < n_groups:
                g1 = g0
                while g1 < n_groups and (self.sptr[g1 + 1] - self.sptr[g0]) * S <= _SCHUR_CHUNK:
                    g1 += 1
                g1 = max(g1, g0 + 1)
                e0, e1 = self.sptr[g0], self.sptr[g1]
                p_c, q_c, u_c = self.fp[e0:e1], self.fq[e0:e1], self.fu[e0:e1]
                T1 = Wa[q_c[:, None], self.fp[None, :]]    # W[q_s, p_t]
                T1 *= Wa[self.fq[None, :], p_c[:, None]]   # W[q_t, p_s]
                T1 *= self.fu[None, :]
                T2 = Wa[q_c[:, None], self.fq[None, :]]    # W[q_s, q_t]
                T2 *= np.conj(Wa[p_c[:, None], self.fp[None, :]])
                T2 *= uc[None, :]
                T1 += T2
                del T2
                T1 *= u_c[:, None]
                U = np.add.reduceat(2.0 * T1.real, starts, axis=1)
                U = np.add.reduceat(U, starts[g0:g1] - e0, axis=0)
                M[self.sk[g0:g1, None], self.sk[None, :]] += U
                g0 = g1


class _NonnegBlockData:
    def __init__(self, n, dtype):
        self.n = n
        self.C = np.zeros(n)
        self.k = np.zeros(0, dtype=np.intp)
        self.A = np.zeros((0, n))

    def pair_all(self, v, out):
        if self.k.size:
            out[self.k] += self.A @ v

    def scatter(self, y, out):
        if self.k.size:
            out += y[self.k] @ self.A

    def schur(self, w, M):
        if self.k.size:
            B = self.A * w[None, :] ** 2
            M[self.k[:, None], self.k[None, :]] += B @ self.A.T


def _preprocess(problem: SdpProblem):
    """Sort constraint coefficients into per-block sparse/dense structures."""
    is_real = True
    for coeffs, _ in problem.constraints:
        for bi, A in coeffs.items():
            arr = A.vv if isinstance(A, Coo) else np.asarray(A)
            if np.iscomplexobj(arr) and np.abs(arr.imag).max(initial=0.0) > 0.0:
                is_real = False
                break
        if not is_real:
            break
    if is_real:
        for b, C in zip(problem.blocks, problem.objective):
            for arr in (C, b.basis):
                if arr is not None and np.iscomplexobj(np.asarray(arr)) \
                        and np.abs(np.asarray(arr).imag).max(initial=0.0) > 0.0:
                    is_real = False
                    break
            if not is_real:
                break
    dtype = np.float64 if is_real else np.complex128

    data = []
    for b, C in zip(problem.blocks, problem.objective):
        if b.kind == PSD:
            d = _PsdBlockData(b.dim, dtype, theta=b.basis)
            if C is not None:
                d.C = d.compress(_cast(np.asarray(C), dtype))
        else:
            d = _NonnegBlockData(b.dim, dtype)
            if C is not None:
                d.C = np.asarray(C, dtype=float)
        data.append(d)

    sk = [[] for _ in problem.blocks]
    sp = [[] for _ in problem.blocks]
    sq = [[] for _ in problem.blocks]
    su = [[] for _ in problem.blocks]
    dk = [[] for _ in problem.blocks]
    dA = [[] for _ in problem.blocks]
    for k, (coeffs, _) in enumerate(problem.constraints):
        for bi, A in coeffs.items():
            blk = problem.blocks[bi]
            if blk.kind == NONNEG:
                if isinstance(A, Coo):
                    vec = np.zeros(blk.dim)
                    np.add.at(vec, A.ii, A.vv.real)
                else:
                    vec = np.asarray(A, dtype=float)
                dk[bi].append(k)
                dA[bi].append(vec)
                continue
            if isinstance(A, Coo) and A.nnz <= _DENSE_NNZ_THRESHOLD:
                keep = A.ii <= A.jj       # fold Hermitian pairs to one triplet
                p, q = A.ii[keep], A.jj[keep]
                u = _cast(A.vv, dtype)[keep].copy()
                u[p == q] *= 0.5
                sk[bi].append(k)
                sp[bi].append(p)
                sq[bi].append(q)
                su[bi].append(u)
            else:
                D = A.to_dense(blk.ambient_dim, dtype) if isinstance(A, Coo) \
                    else _cast(np.asarray(A), dtype)
                dk[bi].append(k)
                dA[bi].append(data[bi].compress(D))

    for bi, blk in enumerate(problem.blocks):
        d = data[bi]
        if blk.kind == NONNEG:
            if dk[bi]:
                d.k = np.asarray(dk[bi], dtype=np.intp)
                d.A = np.stack(dA[bi])
            continue
        if sk[bi]:
            counts = np.array([len(x) for x in sp[bi]], dtype=np.intp)
            d.sk = np.asarray(sk[bi], dtype=np.intp)
            d.sptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
            d.fp = np.concatenate(sp[bi]).astype(np.intp)
            d.fq = np.concatenate(sq[bi]).astype(np.intp)
            d.fu = np.concatenate(su[bi])
            d.ske = np.repeat(d.sk, counts)
        if dk[bi]:
            d.dk = np.asarray(dk[bi], dtype=np.intp)
            d.dA = np.stack(dA[bi])
    return data, dtype


# ---------------------------------------------------------------------------
# Hermitian block helpers
# ---------------------------------------------------------------------------

def _herm(M):
    return 0.5 * (M + np.conj(M).T)


def _psd_sqrt_pair(M, floor=1e-14):
    w, V = np.linalg.eigh(M)
    w = np.maximum(w, floor)
    s = np.sqrt(w)
    return (V * s) @ np.conj(V).T, (V / s) @ np.conj(V).T


def _nt_scaling(X, Z):
    """NT scaling point W (W Z W = X) plus its square root R and inverse."""
    sqrtX, _ = _psd_sqrt_pair(X)
    M = _herm(sqrtX @ Z @ sqrtX)
    _, M_isqrt = _psd_sqrt_pair(M)
    W = _herm(sqrtX @ M_isqrt @ sqrtX)
    R, Rinv = _psd_sqrt_pair(W)
    return W, R, Rinv


def _lyap_inv(lam_w, lam_V, H):
    """Solve (lam M + M lam)/2 = H for M, given eigh(lam)."""
    Ht = np.conj(lam_V).T @ H @ lam_V
    denom = 0.5 * (lam_w[:, None] + lam_w[None, :])
    return lam_V @ (Ht / denom) @ np.conj(lam_V).T


def _max_step_scaled(lam_w, lam_V, D):
    """sup { a : lam + a D >= 0 } for Hermitian D in the scaled frame."""
    floor = max(float(lam_w[-1]) * 1e-14, 1e-150)
    isqrt = lam_V / np.sqrt(np.maximum(lam_w, floor))
    B = _herm(np.conj(isqrt).T @ D @ isqrt)
    if not np.all(np.isfinite(B)):
        return 0.0
    try:
        lo = float(np.linalg.eigvalsh(B)[0])
    except np.linalg.LinAlgError:
        return 0.0
    return np.inf if lo >= -1e-16 else 1.0 / (-lo)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Run the interior-point method; deterministic for fixed input."""
    # divergent iterates (unbounded/infeasible inputs) are caught by the
    # finiteness guard, so floating-point overflow along the way is expected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _solve_loop(problem, opts)


def _solve_loop(problem: SdpProblem, opts: SolverOptions | None) -> SdpSolution:
    opts = opts or SolverOptions()
    m = problem.num_constraints
    if m == 0:
        raise ValidationError("problem needs at least one constraint")
    data, dtype = _preprocess(problem)
    blocks = problem.blocks
    b = np.array([rhs for _, rhs in problem.constraints], dtype=float)
    nu = float(sum(bl.dim for bl in blocks))
    norm_b = float(np.linalg.norm(b))
    norm_C = np.sqrt(sum(float(np.linalg.norm(d.C) ** 2) for d in data))
    eta = 1.0 + float(np.abs(b).max(initial=0.0))

    X = [np.eye(bl.dim, dtype=dtype) * eta if bl.kind == PSD else np.full(bl.dim, eta)
         for bl in blocks]
    Z = [np.eye(bl.dim, dtype=dtype) * eta if bl.kind == PSD else np.full(bl.dim, eta)
         for bl in blocks]
    y = np.zeros(m)

    def pair_all(mats):
        out = np.zeros(m)
        for d, V in zip(data, mats):
            d.pair_all(V, out)
        return out

    def scatter(yv):
        out = []
        for bl, d in zip(blocks, data):
            if bl.kind == PSD:
                acc = np.zeros((bl.dim, bl.dim), dtype=dtype)
                d.scatter(yv, acc)
                out.append(_herm(acc))
            else:
                acc = np.zeros(bl.dim)
                d.scatter(yv, acc)
                out.append(acc)
        return out

    def inner(U, V):
        tot = 0.0
        for bl, u, v in zip(blocks, U, V):
            tot += float(np.vdot(u, v).real) if bl.kind == PSD else float(u @ v)
        return tot

    best = None
    best_score = np.inf
    status = _STATUS_MAXITER
    it = 0
    tau = 0.9
    stall = 0

    for it in range(1, opts.max_iter + 1):
        pobj = sum(float(np.vdot(d.C, x).real) if bl.kind == PSD else float(d.C @ x)
                   for bl, d, x in zip(blocks, data, X))
        dobj = float(b @ y)
        if not (np.isfinite(pobj) and np.isfinite(dobj)) \
                or not all(np.all(np.isfinite(x)) for x in X):
            if best is not None and best[0] > 1e6 * eta:
                status = _STATUS_UNBOUNDED
            elif best is not None and best[1] < -1e6 * eta:
                status = _STATUS_INFEASIBLE
            else:
                status = _STATUS_NUMFAIL
            break
        r_p = b - pair_all(X)
        Ay = scatter(y)
        R_d = []
        dres = 0.0
        for bl, d, ay, z in zip(blocks, data, Ay, Z):
            rd = d.C + z - ay
            R_d.append(rd)
            dres = max(dres, float(np.abs(rd).max(initial=0.0)))
        pinf = float(np.linalg.norm(r_p)) / (1.0 + norm_b)
        dinf = dres / (1.0 + norm_C)
        mu = inner(X, Z) / nu
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        score = max(relgap, pinf, dinf)
        if score < 0.9 * best_score:
            stall = 0
        else:
            stall += 1
        if score < best_score:
            best_score = score
            best = (pobj, dobj, [x.copy() for x in X], y.copy(),
                    [z.copy() for z in Z], relgap, pinf, dinf)
        if relgap <= opts.gap_tol and pinf <= opts.feas_tol and dinf <= opts.feas_tol:
            status = _STATUS_OPTIMAL
            best = (pobj, dobj, [x.copy() for x in X], y.copy(),
                    [z.copy() for z in Z], relgap, pinf, dinf)
            break
        if pobj > 1e8 * eta and pinf < 1e-4:
            status = _STATUS_UNBOUNDED
            break
        if dobj < -1e8 * eta and dinf < 1e-4:
            status = _STATUS_INFEASIBLE
            break
        if stall >= 15:
            status = _STATUS_NUMFAIL
            break

        # NT scaling per block
        Ws, Rs, Rinvs, lams = [], [], [], []
        try:
            for bl, x, z in zip(blocks, X, Z):
                if bl.kind == PSD:
                    W, R, Rinv = _nt_scaling(x, z)
                    lam = _herm(0.5 * (Rinv @ x @ Rinv + R @ z @ R))
                    lw, lV = np.linalg.eigh(lam)
                    lw = np.maximum(lw, 1e-300)
                    Ws.append(W); Rs.append(R); Rinvs.append(Rinv); lams.append((lam, lw, lV))
                else:
                    w = np.sqrt(x / z)
                    lam = np.sqrt(x * z)
                    Ws.append(w); Rs.append(np.sqrt(w)); Rinvs.append(1.0 / np.sqrt(w))
                    lams.append((lam, lam, None))
        except np.linalg.LinAlgError:
            status = _STATUS_NUMFAIL
            break

        # Schur complement
        M = np.zeros((m, m))
        for d, W in zip(data, Ws):
            d.schur(W, M)
        M = 0.5 * (M + M.T)

        base_reg = 1e-12 * (1.0 + float(np.trace(M)) / m)
        cho = None
        reg = 0.0
        for attempt in range(8):
            try:
                cho = sla.cho_factor(M + reg * np.eye(m) if reg else M,
                                     lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                reg = base_reg * (100.0 ** attempt) if reg else base_reg
        if cho is None:
            status = _STATUS_NUMFAIL
            break

        # Mixed-precision iterative refinement: once the iterates are close,
        # the Schur matrix conditioning approaches 1/mu^2 and float64
        # residuals no longer improve the solve, so the tail computes them
        # in extended precision.
        extended = relgap < 1e-4 and max(pinf, dinf) < 1e-3
        M_hi = M.astype(np.longdouble) if extended else None

        def solve_schur(rhs):
            dy = sla.cho_solve(cho, rhs, check_finite=False)
            if extended:
                rhs_hi = rhs.astype(np.longdouble)
                prev = np.inf
                for _ in range(6):
                    resid_hi = rhs_hi - M_hi @ dy.astype(np.longdouble)
                    nr = float(np.abs(resid_hi).max(initial=0.0))
                    if not np.isfinite(nr) or nr >= 0.5 * prev:
                        break
                    prev = nr
                    dy = dy + sla.cho_solve(cho, resid_hi.astype(np.float64),
                                            check_finite=False)
            else:
                for _ in range(2):
                    resid = rhs - M @ dy
                    dy += sla.cho_solve(cho, resid, check_finite=False)
            return dy

        WRdW = []
        for bl, W, rd in zip(blocks, Ws, R_d):
            WRdW.append(_herm(W @ rd @ W) if bl.kind == PSD else W * W * rd)
        A_WRdW = pair_all(WRdW)

        def newton(Rc):
            rhs = pair_all(Rc) + A_WRdW - r_p
            dy = solve_schur(rhs)
            dZ = []
            aydy = scatter(dy)
            for bl, ay, rd in zip(blocks, aydy, R_d):
                dZ.append(ay - rd)
            dX = []
            for bl, rc, W, dz in zip(blocks, Rc, Ws, dZ):
                if bl.kind == PSD:
                    dX.append(_herm(rc - W @ dz @ W))
                else:
                    dX.append(rc - W * W * dz)
            return dX, dy, dZ

        def max_steps(dXs, dZs):
            ap = ad = np.inf
            for bi, bl in enumerate(blocks):
                if bl.kind == PSD:
                    _, lw, lV = lams[bi]
                    ap = min(ap, _max_step_scaled(
                        lw, lV, _herm(Rinvs[bi] @ dXs[bi] @ Rinvs[bi])))
                    ad = min(ad, _max_step_scaled(
                        lw, lV, _herm(Rs[bi] @ dZs[bi] @ Rs[bi])))
                else:
                    x, z = X[bi], Z[bi]
                    ap = min(ap, float(np.min(np.where(dXs[bi] < 0, -x / dXs[bi], np.inf))))
                    ad = min(ad, float(np.min(np.where(dZs[bi] < 0, -z / dZs[bi], np.inf))))
            return ap, ad

        # predictor (affine direction)
        Rc_aff = [(-x) for x in X]
        dX_a, _, dZ_a = newton(Rc_aff)
        ap, ad = max_steps(dX_a, dZ_a)
        a_aff = min(1.0, ap)
        b_aff = min(1.0, ad)
        Xa = [x + a_aff * dx for x, dx in zip(X, dX_a)]
        Za = [z + b_aff * dz for z, dz in zip(Z, dZ_a)]
        mu_aff = max(inner(Xa, Za) / nu, 0.0)
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.1

        # corrector (combined direction)
        Rc = []
        for bi, bl in enumerate(blocks):
            if bl.kind == PSD:
                lam, lw, lV = lams[bi]
                dxh = Rinvs[bi] @ dX_a[bi] @ Rinvs[bi]
                dzh = Rs[bi] @ dZ_a[bi] @ Rs[bi]
                H = sigma * mu * np.eye(bl.dim, dtype=dtype) - lam @ lam \
                    - 0.5 * _herm(dxh @ dzh + dzh @ dxh)
                Rc.append(_herm(Rs[bi] @ _lyap_inv(lw, lV, _herm(H)) @ Rs[bi]))
            else:
                lam = lams[bi][0]
                w = Ws[bi]
                dxh = dX_a[bi] / w
                dzh = dZ_a[bi] * w
                H = sigma * mu - lam * lam - dxh * dzh
                Rc.append(w * H / lam)
        dX, dy, dZ = newton(Rc)
        ap, ad = max_steps(dX, dZ)
        a_step = min(1.0, tau * ap)
        b_step = min(1.0, tau * ad)
        if a_step < 1e-10 and b_step < 1e-10:
            status = _STATUS_NUMFAIL
            break
        tau = min(0.99, 0.90 + 0.09 * min(a_step, b_step))

        for bi, bl in enumerate(blocks):
            if bl.kind == PSD:
                X[bi] = _herm(X[bi] + a_step * dX[bi])
                Z[bi] = _herm(Z[bi] + b_step * dZ[bi])
            else:
                X[bi] = X[bi] + a_step * dX[bi]
                Z[bi] = Z[bi] + b_step * dZ[bi]
        y = y + b_step * dy

    pobj, dobj, Xb, yb, Zb, relgap, pinf, dinf = best
    Xb = [d.lift(x) if bl.kind == PSD else x for bl, d, x in zip(blocks, data, Xb)]
    Zb = [d.lift(z) if bl.kind == PSD else z for bl, d, z in zip(blocks, data, Zb)]
    return SdpSolution(
        status=status,
        primal_value=pobj,
        dual_value=dobj,
        primal_blocks=Xb,
        dual_multipliers=yb,
        dual_slacks=Zb,
        gap=relgap,
        iterations=it,
        primal_residual=pinf,
        dual_residual=dinf,
    )


def constraint_residuals(problem: SdpProblem, primal_blocks) -> dict:
    """Re-check a primal witness against the original complex-domain problem."""
    m = problem.num_constraints
    vals = np.zeros(m)
    for k, (coeffs, rhs) in enumerate(problem.constraints):
        acc = 0.0
        for bi, A in coeffs.items():
            blk = problem.blocks[bi]
            x = primal_blocks[bi]
            if blk.kind == NONNEG:
                if isinstance(A, Coo):
                    acc += float(np.sum(A.vv.real * np.asarray(x)[A.ii]))
                else:
                    acc += float(np.asarray(A, dtype=float) @ x)
            elif isinstance(A, Coo):
                acc += float(np.sum(A.vv * np.asarray(x)[A.jj, A.ii]).real)
            else:
                acc += float(np.vdot(np.asarray(A), x).real)
        vals[k] = acc - rhs
    min_eigs = []
    for blk, x in zip(problem.blocks, primal_blocks):
        if blk.kind == PSD:
            min_eigs.append(float(np.linalg.eigvalsh(_herm(np.asarray(x)))[0]))
        else:
            min_eigs.append(float(np.min(x)))
    return {"max_equality_violation": float(np.abs(vals).max(initial=0.0)),
            "min_eigenvalue": min(min_eigs)}
