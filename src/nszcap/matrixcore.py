"""Dense complex linear-algebra primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128 in row-major
order.  Composite systems are indexed with the first factor as the slow index:
an operator on A (x) B has row index ``a * d_B + b``.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-10
RANK_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex128 array without copying when possible."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={A.ndim}")
    return A


def herm_deviation(M) -> float:
    """max_ij |M[i,j] - conj(M[j,i])|."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        return np.inf
    return float(np.abs(A - A.conj().T).max(initial=0.0))


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, first factor slowest."""
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def partial_trace(M, d_first: int, d_second: int, traced: str) -> np.ndarray:
    """Trace out one subsystem of an operator on ``first (x) second``.

    ``traced`` is ``"first"`` or ``"second"``.  The trace of the output equals
    the trace of the input.
    """
    A = as_matrix(M)
    n = d_first * d_second
    if A.shape != (n, n):
        raise ValidationError(
            f"partial_trace: expected {n}x{n} matrix for dims ({d_first},{d_second}), got {A.shape}")
    T = A.reshape(d_first, d_second, d_first, d_second)
    if traced == "first":
        return np.einsum("abad->bd", T)
    if traced == "second":
        return np.einsum("abcb->ac", T)
    raise ValidationError(f"traced must be 'first' or 'second', got {traced!r}")


def permute_systems(M, dims, perm) -> np.ndarray:
    """Reorder the tensor factors of a square operator.

    ``dims`` are the current factor dimensions; ``perm[k]`` names the current
    factor that lands in slot ``k`` of the output.
    """
    A = as_matrix(M)
    dims = list(dims)
    k = len(dims)
    n = int(np.prod(dims))
    if A.shape != (n, n):
        raise ValidationError(f"permute_systems: shape {A.shape} does not match dims {dims}")
    if sorted(perm) != list(range(k)):
        raise ValidationError(f"perm {perm} is not a permutation of 0..{k-1}")
    T = A.reshape(dims + dims)
    axes = list(perm) + [k + p for p in perm]
    return T.transpose(axes).reshape(n, n)


def eig_hermitian(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, V)`` with eigenvalues ascending and columns of the
    unitary ``V`` the matching eigenvectors, so ``M = V diag(w) V^dag``.  An
    input off Hermitian by more than ``HERM_TOL`` is rejected.
    """
    A = as_matrix(M)
    dev = herm_deviation(A)
    if dev > HERM_TOL:
        raise ValidationError(
            f"eig_hermitian input is not Hermitian (deviation {dev:.3e} > {HERM_TOL:.1e})")
    w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
    return w, V


def support_projection(M) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD Hermitian matrix.

    Eigenvalues above ``RANK_TOL 'times' lambda_max`` count toward the support;
    an eigenvalue below ``-1e-8`` is rejected as genuinely negative.
    """
    w, V = eig_hermitian(M)
    if w.size and w[0] < -1e-8:
        raise ValidationError(f"support_projection: negative eigenvalue {w[0]:.3e}")
    lam_max = float(w[-1]) if w.size else 0.0
    cut = RANK_TOL * max(lam_max, 0.0)
    keep = w > cut
    V_s = V[:, keep]
    P = V_s @ V_s.conj().T
    return 0.5 * (P + P.conj().T)


def generalized_pauli(d: int, a: int, b: int) -> np.ndarray:
    """Discrete Weyl operator ``X^a Z^b`` on a d-level system.

    ``X|j> = |j+1 mod d>`` and ``Z|j> = w^j |j>`` with ``w = exp(2*pi*i/d)``.
    """
    if not (0 <= a < d and 0 <= b < d):
        raise ValidationError(f"generalized_pauli: indices ({a},{b}) out of range for d={d}")
    j = np.arange(d)
    U = np.zeros((d, d), dtype=complex)
    U[(j + a) % d, j] = np.exp(2j * np.pi * b * j / d)
    return U


def op_norm(M) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    w, _ = eig_hermitian(M)
    return float(np.abs(w).max(initial=0.0))
