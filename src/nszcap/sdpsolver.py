"""Self-contained primal-dual interior-point solver for block SDPs.

Solves, over a product of complex-Hermitian PSD cones,

    maximize    <C, X>
    subject to  sum_b term_b(X_b) = rhs  (one matrix equation per constraint),
                X >= 0 (per block),

and its dual, ``minimize sum <rhs, Y>`` over one Hermitian multiplier matrix Y
per equation.  All data is Hermitian, so the Schur complement of the Newton
system is a real symmetric positive semidefinite m x m matrix.

Algorithm: infeasible-start path following with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step, the Newton system reduced to the Schur
complement and factored by a pivoted Cholesky that reveals its numerical rank;
the multipliers past the rank take a zero step.  Each block has one NT
frame G, with ``X = G diag(lw) G^dag`` and ``G^dag Z G = diag(lw)``: both
iterates are the same diagonal matrix in the frame, the NT point is
``W = G G^dag``, and step lengths and the corrector work elementwise on lw.

An :class:`Equation` holds on Herm(p); each of its two kinds of term maps one
block X into Herm(p), and a stack (..., dim, dim) to a stack (..., p, p):
:class:`Read` ``scale sum_a F_a^dag X F_a`` for t Kraus operators F_a (with
``F = theta^dag`` for an isometry theta, an r-dim block reads as
``theta X theta^dag``), and :class:`Lift` a sum of t principal blocks of X times
an identity; ``Lift(1, t=d)`` is the partial trace over a d-dim first factor.
Every map the capacity programs apply to a block is one of these, up to a sign,
a transpose or a reordering of the block's factors (Choi 1975; Kraus 1983).  An
equation's rows are the entry functionals ``(i, i, re)`` for each i, then
``(i, j, re), (i, j, im)`` for each i < j, without the ``im`` rows when all data
is real (an exact restriction).  One row codec per equation,
:class:`_Rows`, maps between Herm(p) and its rows: ``read`` takes a stack of
Hermitian matrices to their row values and ``matrix`` is its inverse, in the
manner of SDPT3's svec/smat pair (Toh, Todd & Tutuncu 1999).  The right-hand
side, the dual multiplier matrices and the core path's coordinates all go
through it.  Every row reads a sum of t scaled real or imaginary entries of
``F^dag X F``, F the frame of all t Kraus operators side by side (t principal
blocks of X, for a Lift); the rows of one (block, frame, t) group form an entry
family.  Every Schur-type product of these maps, the Schur blocks of the dense
path and the core path's columns alike, is one family's outer products at
matrices X_a, one per Kraus operator of the map it pairs with
(:meth:`_EntryFamily.outer`).

The Newton system takes one of two paths, chosen from the program alone: the
dense path assembles M and factors it, and the core path (:class:`_CoreNewton`:
Upsilon, Upsilon-hat and the Upsilon-hat dual) factors only a border, on which
``phase_s["schur"]`` is the frame and the border, and ``phase_s["factor"]`` its
pivoted Cholesky.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar, NamedTuple

import numpy as np
import scipy.linalg as sla

from .matrixcore import HERM_TOL, ValidationError, herm_deviation

PSD = "psd-hermitian"

_STATUS_OPTIMAL = "optimal"
_STATUS_MAXITER = "max-iter"
_STATUS_NUMFAIL = "numerical-failure"

# The stopping rule: a solve ends optimal at the first iterate whose relative
# gap is at most GAP_TOL and whose relative primal and dual residuals are at
# most FEAS_TOL; it runs at most MAX_ITER iterations
GAP_TOL = 1e-8
FEAS_TOL = 1e-8
MAX_ITER = 200


def _integer(v, least=1):
    return isinstance(v, (int, np.integer)) and v >= least


@dataclass(frozen=True, eq=False)
class Block:
    """Cone block of dimension ``dim``: a Hermitian PSD matrix (its ``kind`` is :data:`PSD`)."""

    kind: ClassVar[str] = PSD
    dim: int

    def __post_init__(self):
        if not _integer(self.dim):
            raise ValidationError("block dimension must be a positive integer")


# ---------------------------------------------------------------------------
# Equation terms: linear maps from one block into Herm(p)
# ---------------------------------------------------------------------------

def _side(A, t):
    """``[A_0 | ... | A_t-1]`` (..., p, t n) for t blocks stacked as rows ``A`` (..., t p, n)."""
    if t == 1:
        return A
    *lead, tp, n = A.shape
    return A.reshape(*lead, t, tp // t, n).swapaxes(-3, -2).reshape(*lead, tp // t, t * n)


@dataclass(frozen=True, eq=False)
class Read:
    """``scale sum_a F_a^dag X F_a`` for the t Kraus operators F_a (dim x p) of a
    frame ``F = [F_0 | ... | F_t-1]`` of shape (dim, t p); None reads X itself."""

    frame: np.ndarray | None = None
    scale: float = 1.0
    t: int = 1

    def apply(self, X, p):
        F = self.frame
        if F is None:
            return self.scale * X
        # sum_a (F_a^dag X) F_a, one product on each side
        return self.scale * (_side(np.conj(F).T @ X, self.t) @ _side(F.T, self.t).T)


@dataclass(frozen=True, eq=False)
class Lift:
    """``scale sum_s X[a_s:a_s+q, a_s:a_s+q] (x) 1_d``, q = p / d, a_s = at + s q: the
    sum of t consecutive principal q-blocks of X, times 1_d."""

    d: int
    scale: float = 1.0
    at: int = 0
    t: int = 1

    def apply(self, X, p):
        q = p // self.d
        S = X[..., self.at:self.at + q, self.at:self.at + q]
        for a in range(self.at + q, self.at + self.t * q, q):
            S = S + X[..., a:a + q, a:a + q]
        lifted = S[..., :, None, :, None] * np.eye(self.d)[:, None, :]   # [a, x, b, y]
        return self.scale * lifted.reshape(S.shape[:-2] + (p, p))


class Equation(NamedTuple):
    """``sum_b terms[b](X_b) = rhs`` on Herm(p): ``terms`` maps block indices to
    terms, and ``rhs`` is a Hermitian p x p matrix."""

    terms: dict
    rhs: np.ndarray


def _has_imag(A) -> bool:
    return np.iscomplexobj(A) and np.abs(np.imag(A)).max(initial=0) > 0


def _data(problem):
    """The program's data arrays: objective blocks, right-hand sides and frames."""
    terms = [t for ts, _ in problem.constraints for t in ts.values()]
    return [A for A in (*problem.objective, *(rhs for _, rhs in problem.constraints),
                        *(getattr(t, "frame", None) for t in terms))
            if A is not None]


class _Rows:
    """The rows of an equation on Herm(p), with ids ``k`` from ``start``, in canonical
    order: row e is ``<E_e, H>``, Re (``im[e]`` False) or Im of ``H[i[e], j[e]]``,
    the diagonal rows first.  :meth:`read` and :meth:`matrix` are inverse to each
    other on Herm(p) (real: on Sym(p)).  ``norm2`` is ``<E_e, E_e>``, 1 on the
    diagonal and 1/2 past it, so ``sum_e y_e E_e`` is ``matrix(norm2 * y)``."""

    def __init__(self, p: int, real: bool, start: int = 0):
        iu, ju = np.triu_indices(p, 1)
        n, diag = 1 if real else 2, np.arange(p)
        self.p, self.real = p, real
        self.i = np.concatenate([diag, np.repeat(iu, n)])
        self.j = np.concatenate([diag, np.repeat(ju, n)])
        self.im = np.zeros(len(self.i), bool)
        self.im[p + 1::2] = not real        # (i, j, re), (i, j, im) alternate past the diagonal
        self.k = start + np.arange(len(self.i))
        self.norm2 = np.where(self.i == self.j, 1.0, 0.5)

    def __len__(self):
        return len(self.i)

    def read(self, Y):
        """The rows' values at Hermitian matrices Y (..., p, p)."""
        E = Y[..., self.i, self.j]
        return np.where(self.im, E.imag, E.real)

    def matrix(self, v):
        """The Hermitian matrices (..., p, p) whose rows read v (..., len), without
        negative zeros."""
        p, n = self.p, 1 if self.real else 2
        i, j = self.i[p::n], self.j[p::n]           # one (i, j) per off-diagonal entry
        h = v[..., p:] if self.real else v[..., p::2] + 1j * v[..., p + 1::2]
        h = h + 0.0
        Y = np.zeros(np.shape(v)[:-1] + (p, p), dtype=float if self.real else complex)
        Y[..., self.i[:p], self.i[:p]] = v[..., :p] + 0.0
        Y[..., i, j] = h
        Y[..., j, i] = np.conj(h) + 0.0
        return Y


@dataclass
class SdpProblem:
    """Block conic program; see module docstring for the primal/dual pair."""

    blocks: list
    objective: list          # per block: dense Hermitian matrix or None
    constraints: list        # list of Equation (terms, rhs) pairs
    name: str = ""

    @property
    def real(self) -> bool:
        """All data is real: the solver drops the ``im`` rows and works in real arithmetic."""
        return not any(map(_has_imag, _data(self)))

    @property
    def num_constraints(self) -> int:
        """The number of rows m over all equations."""
        real = self.real
        return sum(len(r) * (len(r) + 1) // 2 if real else len(r) ** 2 for _, r in self.constraints)


@dataclass
class SdpSolution:
    """The best iterate of :func:`solve`; ``status`` is ``"optimal"`` (the stopping
    rule holds), ``"max-iter"`` or ``"numerical-failure"`` (a non-finite iterate, 15
    iterations without progress, a zero step or a failed factorization)."""

    status: str
    primal_value: float
    dual_value: float
    primal_blocks: list
    dual_multipliers: list   # one Hermitian matrix per equation
    dual_slacks: list
    gap: float
    iterations: int
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    # seconds in "scaling" (NT frames and W), "schur" (assembly of M, or the core
    # path's frame and border), "factor" (pivoted Cholesky of M or the border),
    # "newton" (both solves and right-hand sides), "step" (steps, residuals, stopping)
    phase_s: dict = field(default_factory=dict)
    # one record per iteration: "pobj", "dobj", "gap", "pinf", "dinf", "mu" at its
    # iterate; the Newton "path" ("dense" or "core"); the "size" and pivoted-Cholesky
    # "rank" of the matrix it factored (M, or the border); and "sigma" and the step
    # lengths "alpha_p" and "alpha_d".  An iteration that stops before a step
    # leaves the fields it did not reach None
    trace: list = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        return self.status == _STATUS_OPTIMAL


class SolverFailure(RuntimeError):
    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


# ---------------------------------------------------------------------------
# Preprocessed constraint data: the program's entry families, in block order
# ---------------------------------------------------------------------------

_SCHUR_BUDGET = 1 << 18  # entries per row group of _EntryFamily.outer's gathers and products


def _cast(arr, dtype):
    """Cast to the working dtype; imaginary parts are exact zeros in real mode."""
    if dtype == np.float64 and np.iscomplexobj(arr):
        return np.ascontiguousarray(arr.real, dtype=dtype)
    return arr.astype(dtype, copy=False)


def _ids(k):
    """Increasing constraint ids ``k`` with their runs of consecutive ids, as
    (M slice, position slice) pairs; None for the runs when there are over four."""
    cuts = [0, *(np.flatnonzero(np.diff(k) != 1) + 1).tolist(), len(k)]
    if len(cuts) > 5:
        return k, None
    return k, [(slice(k[a], k[b - 1] + 1), slice(a, b)) for a, b in zip(cuts, cuts[1:])]


def _add(M, rows, cols, B):
    """``M[rows, cols] += B`` for :func:`_ids` pairs; by slices over their runs."""
    (rk, rr), (ck, cr) = rows, cols
    if rr is None or cr is None:
        M[np.ix_(rk, ck)] += B
        return
    for mr, br in rr:
        for mc, bc in cr:
            M[mr, mc] += B[br, bc]


class _EntryFamily:
    """The Read and Lift rows of one (block, frame, t) group, on block ``b``.

    Row ``e`` (constraint ``k[e]``) pairs with a block matrix V as
    ``Re(c[e] sum_t (G V G^dag)[i[e, t], j[e, t]])``; ``G = F^dag`` maps block to
    frame coordinates (None: the identity).  Its matrix is ``G^dag A~ G`` for the frame
    matrix ``A~ = sum_t (u E_it,jt + h.c.)``, ``u = conj(c) / 2``; ``r`` is the frame's width.
    A framed family of t Kraus operators F_a (``G_a = F_a^dag``, the a-th p rows of
    G) has entries ``a p + (i, j)`` in the (t p)-wide frame, and reads and scatters
    on Herm(p) through ``sum_a G_a V G_a^dag``: one entry ``pij`` there per row."""

    def __init__(self, b, k, i, j, c, frame, r, dtype):
        self.b, self.k, self.i, self.j, self.r, self.t = b, k, i, j, r, i.shape[1]
        self.ids = _ids(k)
        self.c = c = _cast(c, dtype)
        # the rows a_1..a_t, conj(b_t)..conj(b_1) of :meth:`outer`, which pair up reversed
        self.ij = np.concatenate([i, j[:, ::-1]], axis=1)
        self.u1 = np.stack([0.5 * np.conj(c), np.ones_like(c)], axis=1).repeat(self.t, 1)[
            :, :, None, None]
        self.G = None if frame is None else _cast(np.conj(np.asarray(frame)).T, dtype)
        if frame is not None:           # [G_0^dag; ...; G_t-1^dag], and the entries on Herm(p)
            self.Gs = np.conj(_side(self.G, self.t)).T
            self.pij = i[:, 0], j[:, 0]
            i, j, r = i[:, :1], j[:, :1], r // self.t
        # as a partner in :meth:`schur`, the family reads scale * Re/Im of entries (i, j)
        # of the r x r products of :meth:`outer` (framed: one on Herm(p) per row): the
        # offsets into their float view, and the scales
        flat = i * r + j
        self.flat = flat if np.isrealobj(c) else 2 * flat + (c.imag != 0)[:, None]
        scale = c.real - c.imag
        self.s = None if np.all(scale == 1.0) else scale

    def _sum(self, V):
        """Each row's value from its entries, the last axis of V."""
        return V[..., 0] if V.shape[-1] == 1 else V.sum(axis=-1)

    def read(self, V):
        """The family's values at block matrices V (..., dim, dim)."""
        if self.G is None:
            return (self.c * self._sum(V[..., self.i, self.j])).real
        Y = _side(self.G @ V, self.t) @ self.Gs
        return (self.c * Y[(...,) + self.pij]).real

    def scatter(self, y, out):
        """Add to ``out`` a matrix whose Hermitian part is ``sum_e y[k_e] A_e``."""
        if self.G is None:
            np.add.at(out, (self.i, self.j), (np.conj(self.c) * y[self.k])[:, None])
            return
        acc = np.zeros((self.r // self.t,) * 2, dtype=out.dtype)
        np.add.at(acc, self.pij, np.conj(self.c) * y[self.k])
        out += _side(self.Gs @ acc, self.t) @ self.G

    def outer(self, X):
        """Yield (rows e, ``sum_a X_a^dag A~_e X_a``) for the s matrices X_a = X[:, a]
        (r x r2) of X (r, s, r2), A~_e row e's frame matrix: ``sum_a,t a_at b_at^T +
        h.c.`` for ``a_at = u conj(X_a[i_t])``, ``b_at = X_a[j_t]``, one (r2 x 2ts) @
        (2ts x r2) product per row.  This is the solver's one pairing kernel: for a
        Kraus sum ``T(V) = sum_a Theta_a^dag V Theta_a`` and ``V = Y^dag A~_e Y``,
        ``T(V) = sum_a X_a^dag A~_e X_a`` at ``X_a = Y Theta_a``.  Each row group holds
        at most ``_SCHUR_BUDGET`` entries of its gathered rows (rows, 2t, s, r2) and
        of its products (rows, r2, r2), or is one row."""
        s, r2 = X.shape[1:]
        step = max(1, _SCHUR_BUDGET // max(r2 * r2, self.ij.shape[1] * s * r2))
        for e0 in range(0, len(self.k), step):
            e = slice(e0, e0 + step)
            L = X[self.ij[e]]                                       # (rows, 2t, s, r2)
            np.conj(L, out=L)
            L *= self.u1[e]
            n = len(L)
            yield e, np.matmul(L.reshape(n, -1, r2).transpose(0, 2, 1),
                               np.conj(L[:, ::-1]).reshape(n, -1, r2))

    def schur(self, other, W, M):
        """M += ``<A_e, W A_f W>`` for rows e of this family and f of ``other``, that
        is ``<A~_f, G_2 W A_e W G_2^dag>``: :meth:`outer` at ``X = G_1 W G_2^dag``, read
        at the other family's entries.  A framed partner's Kraus operators go into
        the inner dimension, ``X_a = G_1 W F_a``, so each row pairs through a p x p
        matrix on Herm(p)."""
        X = W if self.G is None else self.G @ W
        X = X[:, None] if other.G is None else (X @ np.conj(other.G).T).reshape(
            len(X), other.t, -1)
        for e, R in self.outer(X):
            B = other._sum(R.reshape(len(R), -1).view(np.float64).take(other.flat, axis=1))
            if other.s is not None:
                B *= other.s
            rows = self.ids if e.start == 0 and e.stop >= len(self.k) else _ids(self.k[e])
            _add(M, rows, other.ids, B)
            if other is not self:
                _add(M, other.ids, rows, B.T)


def _pair_all(families, mats, m):
    """out[k] = sum_b <A_k, mats[b]> over the blocks b that row k reads; out holds
    no -0.0, as each row adds to a +0.0."""
    out = np.zeros(m)
    for f in families:
        v = f.read(mats[f.b])
        k, runs = f.ids
        if runs is None:
            out[k] += v
        else:
            for mk, vk in runs:
                out[mk] += v[vk]
    return out


def _schur(families, Ws, M):
    """M += ``<A_k, W_b A_l W_b>`` over each pair of families on one block b."""
    for a, f in enumerate(families):
        for g in families[a:]:
            if g.b == f.b:
                f.schur(g, Ws[f.b], M)


class _Pivoted:
    """Pivoted Cholesky ``P^T M P = U^T U`` of a symmetric PSD matrix, to the rank
    tolerance ``tol`` (by default LAPACK's, ``n eps max(diag M)``); the pivots past
    the rank (dependent rows, or the near-singular endgame) take a zero step."""

    def __init__(self, M, tol=-1.0):
        self.size = len(M)
        U, piv, rank = (sla.lapack.dpstrf(M, tol)[:3] if self.size
                        else (M, np.zeros(0, dtype=np.intp), 0))
        self.U1, self.rank, self.kept = U[:rank, :rank], rank, piv[:rank] - 1

    def solve(self, r):
        x = np.zeros(self.size)
        if self.rank:
            x[self.kept] = sla.lapack.dpotrs(self.U1, r[self.kept])[0]
        return x


# The core path (_CoreNewton) serves programs from this many rows m up.  Core
# over dense solve time (2-core VM, one BLAS thread, best of 3 solves, equal
# iterations): Upsilon and Upsilon-hat of random channels at m <= 153: 1.0-1.4;
# m = 160-180: 0.89-0.96 (real arithmetic, m = 174-177: 0.89-1.13); m = 234-250:
# 0.67-0.74; n = 16, m = 272: 0.70-0.75; the hat-dual at m = 169-241: 0.15-0.33.
# Median ms per iteration, dense / core: n = 16, m = 320: 10.0 / 6.9; n = 25,
# m = 650: 35 / 12; n = 36, m = 1332: 115 / 20.
_CORE_MIN_ROWS = 160
# Frame coordinates with den >= _CORE_TAU max(den) are eliminated in closed
# form; the others join the border.  On n = 36 Upsilon and Upsilon-hat, 1e-1,
# 1e-2 and 1e-3 all end optimal in 12 iterations, with a worst relative Newton
# residual of 2.5e-10, 4.0e-10 and 4.1e-10 (the dense path: 7.7e-11); per
# iteration, 1e-1 stays within 5 times the dense path's, 1e-3 reaches 200 times.
_CORE_TAU = 1e-1


def _kraus(t, dim, p, dtype):
    """The Kraus operators Theta_a (dim x p) of a term, ``t(X) = scale sum_a
    Theta_a^dag X Theta_a``, as one (dim, s, p) array: the identity for a frameless
    Read, a frame's slices, and for a Lift the selections ``1_q (x) <beta|`` of
    each of its principal q-blocks and each beta < d."""
    if isinstance(t, Read):
        return _cast(np.eye(p) if t.frame is None else np.asarray(t.frame), dtype).reshape(
            dim, t.t, p)
    q = p // t.d
    Th = np.zeros((dim, t.t, t.d, q, t.d), dtype)       # [x, block s, beta, i, beta']
    i, beta = np.arange(q)[:, None], np.arange(t.d)
    for s in range(t.t):
        Th[t.at + s * q + i, s, beta, i, beta] = 1.0
    return Th.reshape(dim, t.t * t.d, p)


class _CoreNewton:
    """The Newton solve of a program with a core equation, without the m x m M.

    The core equation, the last one, on Herm(p), holds more than half of the m
    rows and has right-hand side 0.  Its terms are a frameless Read of a block u,
    one other Read of one Kraus operator (of a block w, frame F_w) and any other
    terms T_l.  Any of its blocks may sit in the other equations too, as long as
    no entry family holds rows of both, and the other rows' families sit only on
    blocks that it reads by a Read.  On its multiplier Y, M acts as
    ``A Y A + B Y B + sum_l T_l(W_l T_l^dag(Y) W_l)`` with ``A = |s_u| W_u`` and
    ``B = |s_w| F_w^dag W_w F_w``; another row f, with coefficient A_f^b on block
    b, couples to it as ``sum_b t_b(W_b A_f^b W_b)`` over the core terms t_b.

    Each iteration takes F from ``eigh(B, A + B)`` and the diagonals
    a = diag(F^dag A F), b = diag(F^dag B F).  In orthonormal coordinates x of
    ``Y~ = F^-1 Y F^-dag`` the A, B part is the diagonal
    ``den_ij = a_i a_j + b_i b_j``.  Coordinates with den >= _CORE_TAU max(den)
    are eliminated in closed form, the T_l part by Woodbury over the columns
    ``F^dag T_l(G_l Z G_l^dag) F`` (Z an orthonormal basis, ``W_l = G_l G_l^dag``),
    whose capacitance matrix ``1 + V~^T V~``, ``V~ = D^-1/2 V``, is SPD and >= 1.
    Each core term is a Kraus sum ``s sum_a Theta_a^dag X Theta_a`` (:func:`_kraus`),
    and both column sets come from :meth:`_EntryFamily.outer` with all of a term's
    Kraus operators in the inner dimension (:meth:`columns`): a Woodbury column is
    ``s sum_a Psi_a^dag Z Psi_a`` for ``Psi_a = G_l^dag Theta_a F``, Z a row of the
    basis held as an entry family, and another row's cross column is its own
    family's outer product at ``G_f W_b Theta_a F``, both read by offsets.  The other
    coordinates and the other equations' rows form the border, which is
    Jacobi-scaled and factored by :class:`_Pivoted`; its other rows' corner comes
    from their own entry families.

    What the path needs is small scaled Woodbury columns V~, not a well
    conditioned A + B.  On n = 36 Upsilon-hat, cond(A + B) stays below 5 and
    V~ below 2.1; on the n = 36 hat-dual, cond(A + B) reaches 3e8 while V~
    stays below 1, and both solve as on the dense path.  A core equation with a
    nonzero right-hand side loses this: the cq "hat" marginal (rhs 1_B, one
    kernel), admitted and forced onto this path, reached cond(A + B) 1e8-5e11
    and V~ 2e8-9e10, and all of the first 12 of random_cq_graph(0..39) ended
    numerical-failure.  The second Read is required too: without it den is 1
    everywhere and the spread of W_u moves into the Woodbury columns; aram's
    program, forced onto this path, loses its primal residual (4e-2 after 7
    iterations on delta(2))."""

    @classmethod
    def find(cls, problem, families, rows):
        """The program's core path, or None: it has fewer than ``_CORE_MIN_ROWS``
        rows or its last equation is not a core equation as above."""
        m = sum(map(len, rows))
        if m < _CORE_MIN_ROWS or 2 * len(rows[-1]) <= m:
            return None
        terms, rhs = problem.constraints[-1]
        m1 = rows[-1].k[0]
        others = [f for f in families if f.k[0] < m1]
        reads = [bi for bi, t in terms.items() if isinstance(t, Read) and t.t == 1]
        u = next((bi for bi in reads if terms[bi].frame is None), None)
        reads = [bi for bi in reads if bi != u]
        if u is None or len(reads) != 1 or np.any(rhs) \
                or any(f.k[-1] >= m1 or isinstance(terms.get(f.b), Lift) for f in others):
            return None
        return cls(problem, rows, u, reads[0], others)

    def __init__(self, problem, rows, u, w, others):
        self.terms = terms = problem.constraints[-1].terms
        self.rows = rows = rows[-1]
        self.m1, self.m = rows.k[0], rows.k[-1] + 1     # the other rows: ids 0..m1-1
        self.wt = np.sqrt(1.0 / rows.norm2)             # wt_e E_e is an orthonormal basis
        self.u, self.su = u, terms[u].scale
        self.w, self.read_w = w, Read(terms[w].frame, abs(terms[w].scale))
        self.others = others                            # the other rows' entry families
        real, p = rows.real, rows.p
        dtype = np.float64 if real else np.complex128
        # the rows' offsets into the float view of a p x p matrix
        self.flat = rows.i * p + rows.j if real else 2 * (rows.i * p + rows.j) + rows.im
        # the Kraus operators of the low terms and of the terms on the other rows' blocks
        self.kraus = {bi: _kraus(t, problem.blocks[bi].dim, p, dtype) for bi, t in terms.items()
                      if bi not in (u, w) or any(f.b == bi for f in others)}
        # per low term, with its scale, the orthonormal basis Z_e of Herm(dim) (real:
        # Sym(dim)) as a frameless family of rows e in the order of _Rows, numbered on
        # from the last term's: E_ii, then (E_ij + E_ji) / sqrt2 (re) and
        # i (E_ij - E_ji) / sqrt2 (im) for i < j; self.k counts them
        self.low, self.k = [], 0
        for bi, t in terms.items():
            if bi not in (u, w):
                z = _Rows(problem.blocks[bi].dim, real, self.k)
                c = np.where(z.im, -1j, 1.0) / np.sqrt(z.norm2)
                f = _EntryFamily(bi, z.k, z.i[:, None], z.j[:, None], c, None, z.p, dtype)
                self.low.append((f, t.scale))
                self.k += len(z)

    def _read(self, H):
        """The core rows' values (k, N) at matrices H (k, p, p), as ``rows.read``."""
        return H.reshape(len(H), -1).view(np.float64).take(self.flat, axis=1)

    def columns(self, Ws, Gs, F):
        """The Woodbury columns V (N, k) and the other rows' cross columns C (N, m1), in
        the orthonormal coordinates of the frame F, at the NT points ``W_b = G_b G_b^dag``."""
        p, wt = self.rows.p, self.wt
        # Theta_a F for each Kraus operator Theta_a of a term, side by side (dim, s p)
        ThF = {bi: (Th.reshape(-1, p) @ F).reshape(len(Th), -1) for bi, Th in self.kraus.items()}
        # each column is a core term t_b = s sum_a Theta_a^dag . Theta_a at a family's
        # matrix Y^dag A~_e Y, read through F^dag . F: s times the family's outer
        # products at X_a = Y Theta_a F.  V: the low terms at G_l Z_e G_l^dag, Y = G_l^dag;
        # C: the terms on the other rows' blocks at W_b A_f W_b, Y = G_f W_b
        V, C = np.zeros((self.k, len(wt))), np.zeros((self.m1, len(wt)))
        work = [(V, f, np.conj(Gs[f.b]).T, s) for f, s in self.low]
        work += [(C, f, Ws[f.b] if f.G is None else f.G @ Ws[f.b], self.terms[f.b].scale)
                 for f in self.others if f.b in ThF]       # else the core equation does not read b
        for out, f, Y, s in work:
            for e, R in f.outer((Y @ ThF[f.b]).reshape(len(Y), -1, p)):
                B = self._read(R)
                B *= s * wt
                out[f.k[e]] += B
        return V.T, C.T

    def reduce(self, Ws, Gs):
        """Frame and closed-form elimination at the NT points ``W_b = G_b G_b^dag``;
        returns the Jacobi-scaled border matrix."""
        p, rows = self.rows.p, self.rows
        # free the last iteration's arrays before building this one's: n = 216 peaks at
        # 0.8 GB instead of 1.4 GB
        self.Cb = self.Vt = self.Q = self.P = self.VK = None
        A = abs(self.su) * Ws[self.u]
        B = self.read_w.apply(Ws[self.w], p)
        _, F = sla.eigh(B, A + B)
        Fh = np.conj(F).T
        a, b = (np.diagonal(Fh @ X @ F).real for X in (A, B))
        den = (np.outer(a, a) + np.outer(b, b))[rows.i, rows.j]
        self.F, self.E = F, den >= _CORE_TAU * den.max()
        K = ~self.E
        V, C = self.columns(Ws, Gs, F)
        # M11, the other rows' block of M
        M11 = np.zeros((self.m1, self.m1))
        _schur(self.others, Ws, M11)
        # eliminate E: with V~ = D_E^-1/2 V_E, C- = D_E^-1/2 C_E and the capacitance
        # 1 + V~^T V~ = L L^T, the border is [[D_K + P P^T, C_K - P Q], [., M11 - C-^T C- + Q^T Q]]
        # for P = V_K L^-T and Q = L^-1 V~^T C-
        self.sD = np.sqrt(den[self.E])
        self.Vt, self.Cb = V[self.E] / self.sD[:, None], C[self.E]
        self.Cb /= self.sD[:, None]
        self.L = np.linalg.cholesky(np.eye(V.shape[1]) + self.Vt.T @ self.Vt)
        self.VK = V[K]
        self.P = sla.solve_triangular(self.L, self.VK.T, lower=True, check_finite=False).T
        self.Q = sla.solve_triangular(self.L, self.Vt.T @ self.Cb, lower=True, check_finite=False)
        top = np.diag(den[K]) + self.P @ self.P.T
        side = C[K] - self.P @ self.Q
        corner = 0.5 * (M11 + M11.T) - self.Cb.T @ self.Cb + self.Q.T @ self.Q
        border = np.block([[top, side], [side.T, corner]])
        # each border row is scaled by its diagonal in M, before the elimination:
        # a row that the elimination cancels stays small, and dpstrf drops it
        diag = np.concatenate([den[K] + np.sum(self.VK ** 2, axis=1), np.diagonal(M11)])
        self.jac = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
        return self.jac[:, None] * border * self.jac

    def factor(self, border):
        # the dense path's tolerance m eps max(diag M), in the rows' own units
        self.chol = _Pivoted(border, self.m * np.finfo(float).eps)
        self.size, self.rank = self.chol.size, self.chol.rank
        return self

    def solve(self, r):
        """The Newton step dy for the rows' rhs r: M dy = r."""
        # the eliminated coordinates' scaled rhs g, and the border rhs rb
        R = self.rows.matrix(r[self.rows.k])
        rho = self.wt * self.rows.read(np.conj(self.F).T @ R @ self.F)
        g = rho[self.E] / self.sD
        v = sla.solve_triangular(self.L, self.Vt.T @ g, lower=True, check_finite=False)
        rb = np.concatenate([rho[~self.E] - self.P @ v,
                             r[:self.m1] - self.Cb.T @ g + self.Q.T @ v])
        z = self.jac * self.chol.solve(self.jac * rb)
        nK = int(np.count_nonzero(~self.E))
        xK, y1 = z[:nK], z[nK:]
        g = g - self.Vt @ (self.VK.T @ xK) - self.Cb @ y1
        x = np.empty(len(self.E))
        x[self.E] = (g - self.Vt @ sla.lapack.dpotrs(self.L, self.Vt.T @ g, lower=1)[0]) / self.sD
        x[~self.E] = xK
        Y = self.F @ self.rows.matrix(x / self.wt) @ np.conj(self.F).T
        dy = np.zeros(self.m)
        dy[self.rows.k] = self.rows.read(Y) / self.rows.norm2        # Y = sum_e dy_e E_e
        dy[:self.m1] = y1
        return dy


def _check_term(k, t, dim, p):
    """Reject a term that does not map a block of dimension ``dim`` into Herm(p)."""
    if isinstance(t, Read):
        ok = _integer(t.t) and (np.shape(t.frame) == (dim, t.t * p) if t.frame is not None
                                else dim == p and t.t == 1)
    elif isinstance(t, Lift):
        ok = _integer(t.d) and _integer(t.t) and _integer(t.at, 0) and p % t.d == 0 \
            and t.at + t.t * (p // t.d) <= dim
    else:
        raise ValidationError(f"equation {k}: unknown term {t!r}")
    if not ok:
        raise ValidationError(f"equation {k}: a {type(t).__name__} term does not map "
                              f"a block of dimension {dim} into Herm({p})")
    if not (isinstance(t.scale, numbers.Real) and math.isfinite(t.scale)):
        raise ValidationError(f"equation {k}: scale is not a finite real number")


def _preprocess(problem: SdpProblem):
    """Check the program's data, in time linear in it: shapes, finiteness, and
    Hermiticity to ``HERM_TOL``.  Enumerate each equation's rows and sort them
    into entry families, in real arithmetic when all data is real.  Returns the
    objective blocks, the entry families in block order, the working dtype, the
    rows' right-hand side b, and each equation's :class:`_Rows`."""
    blocks = problem.blocks
    if len(problem.objective) != len(blocks):
        raise ValidationError(f"{len(problem.objective)} objectives for {len(blocks)} blocks")
    for blk, C in zip(blocks, problem.objective):
        if C is not None and np.shape(C) != (blk.dim, blk.dim):
            raise ValidationError(f"objective block of shape {np.shape(C)} for dimension {blk.dim}")
    valid = set(range(len(blocks)))
    for k, (terms, rhs) in enumerate(problem.constraints):
        if np.ndim(rhs) != 2 or np.shape(rhs)[0] != np.shape(rhs)[1]:
            raise ValidationError(f"equation {k}: rhs must be a square matrix")
        if not terms.keys() <= valid:
            raise ValidationError(f"equation {k}: block index outside 0..{len(blocks) - 1}")
        for bi, t in terms.items():
            _check_term(k, t, blocks[bi].dim, len(rhs))
    arrays = _data(problem)
    if any(np.asarray(A).dtype.kind not in "biufc" for A in arrays):
        raise ValidationError("objective, rhs or frame is not numeric")
    if not all(np.all(np.isfinite(A)) for A in arrays):
        raise ValidationError("non-finite objective, rhs or frame")
    if any(herm_deviation(C) > HERM_TOL for C in problem.objective if C is not None):
        raise ValidationError("objective block is not Hermitian")
    for k, (_, rhs) in enumerate(problem.constraints):
        if herm_deviation(rhs) > HERM_TOL:
            raise ValidationError(f"equation {k}: rhs is not Hermitian")
    real = not any(map(_has_imag, arrays))
    dtype = np.float64 if real else np.complex128

    groups = [{} for _ in blocks]       # per block and key: [k, i, j, c, frame, width] lists
    rows, b, k0 = [], [], 0
    for terms, rhs in problem.constraints:
        r = _Rows(len(rhs), real, k0)
        rows.append(r)
        k0 += len(r)
        b.append(r.read(np.asarray(rhs)) + 0.0)     # + 0.0: no negative zeros
        i, j, k = r.i[:, None], r.j[:, None], r.k
        for bi, t in terms.items():
            c = np.where(r.im, -1j * t.scale, t.scale)
            if isinstance(t, Lift):             # block s at a_s = at + s q
                sel, a = r.i % t.d == r.j % t.d, t.at + r.p // t.d * np.arange(t.t)
                entries = [k[sel], a + i[sel] // t.d, a + j[sel] // t.d, c[sel]]
            else:                               # Kraus operator a at a p + (i, j)
                a = r.p * np.arange(t.t)
                entries = [k, a + i, a + j, c]
            # one family per frameless t on a block, and one per framed term
            frame = t.frame if isinstance(t, Read) else None
            key = entries[1].shape[1] if frame is None else ("framed", len(groups[bi]))
            fam = groups[bi].setdefault(
                key, [[], [], [], [], frame, blocks[bi].dim if frame is None else t.t * r.p])
            for acc, new in zip(fam, entries):
                acc.append(new)
    # exactly Hermitian, as the dual slacks Z = C - sum_k y_k A_k must stay
    C = [np.zeros((blk.dim, blk.dim), dtype) if Cb is None else _herm(_cast(np.asarray(Cb), dtype))
         for blk, Cb in zip(blocks, problem.objective)]
    families = [_EntryFamily(bi, *map(np.concatenate, f[:4]), *f[4:], dtype)
                for bi, group in enumerate(groups) for f in group.values()]
    return C, families, dtype, np.concatenate(b) if b else np.zeros(0), rows


# ---------------------------------------------------------------------------
# Hermitian block helpers
# ---------------------------------------------------------------------------

def _herm(M):
    return 0.5 * (M + M.conj().T)       # conj() of a real array is the array itself


_EVD = {np.dtype(np.float64): sla.lapack.dsyevd, np.dtype(np.complex128): sla.lapack.zheevd}


def _eigh(A):
    """``np.linalg.eigh(A)`` bit for bit, without its wrapper: LAPACK's divide and
    conquer ?syevd / ?heevd on the lower triangle, as numpy calls it, with the
    eigenvectors in C order, as numpy returns them (the products that follow
    round differently on a Fortran-ordered V)."""
    w, V, info = _EVD[A.dtype](A, compute_v=1, lower=1)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, np.ascontiguousarray(V)


def _nt_frame(X, Z):
    """NT frame (G, lw) of a PSD pair: ``X = G diag(lw) G^dag`` and
    ``G^dag Z G = diag(lw)``, so ``W = G G^dag`` is the NT point, ``W Z W = X``.

    With the square root ``L = V diag(w)^1/2`` of ``X = V diag(w) V^dag`` and
    ``L^dag Z L = Q diag(lw^2) Q^dag``, ``G = L Q diag(lw)^-1/2``: two
    :func:`_eigh` calls.  The eigenvalues w and lw^2 are floored at 1e-14, which
    bounds W by ``1e7 ||X||``; ``G^dag Z G = diag(lw)`` holds where lw^2 is above it."""
    w, V = _eigh(X)
    L = V * np.sqrt(np.maximum(w, 1e-14))
    lw2, Q = _eigh(_herm(L.conj().T @ Z @ L))
    lw = np.sqrt(np.maximum(lw2, 1e-14))
    return (L @ Q) / np.sqrt(lw), lw


def _step_scale(lw):
    """The scales ``s_i s_j``, ``s = max(lw, floor)^-1/2``, that turn a step from
    diag(lw) along D into one from the identity along ``D s_i s_j``; lw (dim,)
    ascending, the floor ``max(1e-14 lw_max, 1e-150)``."""
    s = 1.0 / np.sqrt(np.maximum(lw, np.maximum(lw[-1:] * 1e-14, 1e-150)))
    return s[:, None] * s[None, :]


def _max_step_scaled(B):
    """sup { a : 1 + a B_s >= 0 } for each Hermitian B_s of a stack B (k, dim, dim),
    a direction scaled by :func:`_step_scale`, by one eigvalsh; 0 for a
    non-finite B_s, which is zeroed in place."""
    finite = True
    if not np.isfinite(B).all():
        finite = np.isfinite(B).all(axis=(1, 2))
        B[~finite] = 0.0
    try:
        lo = np.linalg.eigvalsh(B)[:, 0]
    except np.linalg.LinAlgError:
        return np.zeros(len(B))
    steps = np.divide(1.0, -lo, out=np.full(len(B), np.inf), where=lo < -1e-16)
    return np.where(finite, steps, 0.0)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point method; deterministic for fixed input."""
    # divergent iterates end the solve at the finiteness guard or the stall
    # exit, so floating-point overflow along the way is expected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _solve_loop(problem)


def _solve_loop(problem: SdpProblem) -> SdpSolution:
    C, families, dtype, b, rows = _preprocess(problem)
    m = len(b)
    if m == 0:
        raise ValidationError("problem needs at least one constraint")
    blocks = problem.blocks
    nu = float(sum(bl.dim for bl in blocks))
    norm_b = float(np.linalg.norm(b))
    norm_C = np.sqrt(sum(float(np.linalg.norm(c) ** 2) for c in C))
    eta = 1.0 + float(np.abs(b).max(initial=0.0))

    core = _CoreNewton.find(problem, families, rows)
    path = "dense" if core is None else "core"
    dims = [bl.dim for bl in blocks]
    same_dim = [[bi for bi, d in enumerate(dims) if d == dim] for dim in dict.fromkeys(dims)]
    X = [np.eye(bl.dim, dtype=dtype) * eta for bl in blocks]
    Z = [np.eye(bl.dim, dtype=dtype) * eta for bl in blocks]
    y = np.zeros(m)

    def scatter(yv):
        """Per block b, the Hermitian part of sum_k yv[k] A_k on b."""
        out = [np.zeros(c.shape, c.dtype) for c in C]
        for f in families:
            f.scatter(yv, out[f.b])
        return [_herm(acc) for acc in out]

    def inner(U, V):
        tot = 0.0
        for u, v in zip(U, V):
            tot += float(np.vdot(u, v).real)
        return tot

    best = None
    best_score = np.inf
    status = _STATUS_MAXITER
    it = 0
    tau = 0.9
    stall = 0
    phase_s = dict.fromkeys(("scaling", "schur", "factor", "newton", "step"), 0.0)
    trace = []
    t_lap = perf_counter()

    def lap(phase):
        nonlocal t_lap
        now = perf_counter()
        phase_s[phase] += now - t_lap
        t_lap = now

    for it in range(1, MAX_ITER + 1):
        pobj = inner(C, X)
        dobj = float(b @ y)
        record = dict(pobj=pobj, dobj=dobj, gap=None, pinf=None, dinf=None, mu=None, path=path,
                      sigma=None, alpha_p=None, alpha_d=None, size=None, rank=None)
        trace.append(record)
        # every C block is a full matrix, so pobj is not finite when X is not
        if not (np.isfinite(pobj) and np.isfinite(dobj)):
            status = _STATUS_NUMFAIL
            break
        pX = _pair_all(families, X, m)
        r_p = b - pX
        Ay = scatter(y)
        R_d = []
        dres = 0.0
        for c, ay, z in zip(C, Ay, Z):
            rd = c + z - ay
            R_d.append(rd)
            dres = max(dres, float(np.abs(rd).max(initial=0.0)))
        pinf = float(np.linalg.norm(r_p)) / (1.0 + norm_b)
        dinf = dres / (1.0 + norm_C)
        mu = inner(X, Z) / nu
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        score = max(relgap, pinf, dinf)
        record.update(gap=relgap, pinf=pinf, dinf=dinf, mu=mu)
        if score < 0.9 * best_score:
            stall = 0
        else:
            stall += 1
        converged = relgap <= GAP_TOL and pinf <= FEAS_TOL and dinf <= FEAS_TOL
        if score < best_score or converged:
            best_score = score
            # X, y and Z are rebound each iteration, never written in place
            best = (pobj, dobj, X, y, Z, relgap, pinf, dinf)
        if converged:
            status = _STATUS_OPTIMAL
            break
        if stall >= 15:
            status = _STATUS_NUMFAIL
            break

        # NT frame per block: X = G diag(lw) G^dag, G^dag Z G = diag(lw), W = G G^dag
        lap("step")
        Ws, frames = [], []
        try:
            for x, z in zip(X, Z):
                G, lw = _nt_frame(x, z)
                Ws.append(_herm(G @ G.conj().T))
                frames.append((G, lw))
            # per dimension, its blocks' step scales (g, 1, dim, dim), for both directions
            scales = [np.stack([_step_scale(frames[bi][1]) for bi in group])[:, None]
                      for group in same_dim]

            # the Schur complement M, or the core path's border, and its pivoted Cholesky
            lap("scaling")
            if core is None:
                M = np.zeros((m, m))
                _schur(families, Ws, M)
                M = 0.5 * (M + M.T)
            else:
                M = core.reduce(Ws, [G for G, _ in frames])
            lap("schur")
            fac = _Pivoted(M) if core is None else core.factor(M)
            lap("factor")
        except np.linalg.LinAlgError:
            status = _STATUS_NUMFAIL
            break
        record.update(size=fac.size, rank=fac.rank)
        A_WRdW = _pair_all(families, [_herm(W @ rd @ W) for W, rd in zip(Ws, R_d)], m)

        def newton(Rc, pRc):
            """The Newton direction for the complementarity residual Rc, paired as pRc."""
            rhs = pRc + A_WRdW - r_p
            dy = fac.solve(rhs)
            dZ = [ay - rd for ay, rd in zip(scatter(dy), R_d)]
            dX = [_herm(rc - W @ dz @ W) for rc, W, dz in zip(Rc, Ws, dZ)]
            return dX, dy, dZ

        def max_steps(dZs, Ds=None):
            """Primal and dual step bounds, and each block's directions in its
            frame: ``dz = G^dag dZ G`` and, as ``dX = Rc - W dZ W`` with
            ``Rc = G D G^dag``, ``dx = D - dz``.  ``Ds`` holds each block's D;
            the predictor's ``Rc = -X`` has ``D = -diag(lw)``.  The blocks of one
            dimension share one :func:`_max_step_scaled` call, on their (dx, dz)
            stack times the iteration's step scales."""
            scaled = []
            for bi, (G, lw) in enumerate(frames):
                dz = _herm(G.conj().T @ dZs[bi] @ G)
                dx = (-np.diag(lw) if Ds is None else Ds[bi]) - dz
                scaled.append((dx, dz))
            ap = ad = np.inf
            for group, S in zip(same_dim, scales):
                B = np.empty((len(group), 2) + S.shape[2:], dtype)
                for q, bi in enumerate(group):
                    B[q, 0], B[q, 1] = scaled[bi]
                B *= S
                steps = _max_step_scaled(B.reshape(-1, *S.shape[2:]))
                ap, ad = min(ap, steps[0::2].min()), min(ad, steps[1::2].min())
            return ap, ad, scaled

        # predictor (affine direction): Rc = -X, whose pairing is 0.0 - pX bit for
        # bit, as every read is odd and _pair_all holds no -0.0
        dX_a, _, dZ_a = newton([-x for x in X], 0.0 - pX)
        ap, ad, scaled_a = max_steps(dZ_a)
        a_aff = min(1.0, ap)
        b_aff = min(1.0, ad)
        Xa = [x + a_aff * dx for x, dx in zip(X, dX_a)]
        Za = [z + b_aff * dz for z, dz in zip(Z, dZ_a)]
        mu_aff = max(inner(Xa, Za) / nu, 0.0)
        sigma = min(1.0, mu_aff / mu) ** 3 if mu > 0 else 0.1

        # corrector (combined direction): in the frame, solve
        # (diag(lw) D + D diag(lw)) / 2 = sigma mu - diag(lw)^2 - (dx dz + dz dx) / 2
        Rc, Ds = [], []
        for (G, lw), (dx, dz) in zip(frames, scaled_a):
            H = -_herm(dx @ dz)
            H.flat[::len(lw) + 1] += sigma * mu - lw * lw
            D = H / (0.5 * (lw[:, None] + lw[None, :]))
            Rc.append(_herm(G @ D @ G.conj().T))
            Ds.append(D)
        dX, dy, dZ = newton(Rc, _pair_all(families, Rc, m))
        lap("newton")
        ap, ad, _ = max_steps(dZ, Ds)
        a_step = min(1.0, tau * ap)
        b_step = min(1.0, tau * ad)
        record.update(sigma=sigma, alpha_p=a_step, alpha_d=b_step)
        if a_step < 1e-10 and b_step < 1e-10:
            status = _STATUS_NUMFAIL
            break
        tau = min(0.99, 0.90 + 0.09 * min(a_step, b_step))

        # no second _herm: the terms are exactly Hermitian, and so are their sums
        X = [x + a_step * dx for x, dx in zip(X, dX)]
        Z = [z + b_step * dz for z, dz in zip(Z, dZ)]
        y = y + b_step * dy

    lap("step")
    pobj, dobj, Xb, yb, Zb, relgap, pinf, dinf = best
    return SdpSolution(
        status=status,
        primal_value=pobj,
        dual_value=dobj,
        primal_blocks=Xb,
        dual_multipliers=[r.matrix(r.norm2 * yb[r.k]) for r in rows],
        dual_slacks=Zb,
        gap=relgap,
        iterations=it,
        primal_residual=pinf,
        dual_residual=dinf,
        phase_s=phase_s,
        trace=trace,
    )
