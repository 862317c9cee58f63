import numpy as np
import pytest
from numpy.testing import assert_allclose

from nszcap.matrixcore import (
    ValidationError,
    eig_hermitian,
    generalized_pauli,
    op_norm,
    partial_trace,
    permute_systems,
    support_projection,
    tensor,
)


def random_hermitian(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A + A.conj().T


class TestTensor:
    def test_identity_factors(self):
        assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_rank_one_projectors(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert_allclose(out, expected)

    def test_diagonal_product(self):
        assert_allclose(tensor(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])),
                        np.diag([10.0, 14.0, 15.0, 21.0]))

    def test_associative_bilinear(self):
        rng = np.random.default_rng(11)
        A, B, C = (random_hermitian(2, rng) for _ in range(3))
        assert_allclose(tensor(tensor(A, B), C), tensor(A, tensor(B, C)), atol=1e-12)
        x, y = 0.7, -1.3
        assert_allclose(tensor(x * A + y * B, C),
                        x * tensor(A, C) + y * tensor(B, C), atol=1e-12)


class TestPartialTrace:
    def test_traces_out_unit_trace_factor(self):
        rng = np.random.default_rng(5)
        rho = random_hermitian(3, rng)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        sigma = random_hermitian(4, rng)
        assert_allclose(partial_trace(tensor(rho, sigma), 3, 4, "first"),
                        sigma, atol=1e-12)

    def test_maximally_entangled_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        proj = np.outer(phi, phi.conj())
        assert_allclose(partial_trace(proj, 2, 2, "second"), np.eye(2) / 2, atol=1e-12)

    def test_classical_graph_marginal(self):
        P = np.zeros((4, 4))
        P[0, 0] = P[3, 3] = 1.0
        assert_allclose(partial_trace(P, 2, 2, "first"), np.eye(2), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        M = random_hermitian(6, rng)
        for side in ("first", "second"):
            assert_allclose(np.trace(partial_trace(M, 2, 3, side)), np.trace(M))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(5), 2, 3, "first")

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(2, rng)
        B = random_hermitian(3, rng)
        assert_allclose(partial_trace(tensor(A, B), 2, 3, "first"),
                        np.trace(A) * B, atol=1e-12)


class TestPermuteSystems:
    def test_swap_two_factors(self):
        rng = np.random.default_rng(8)
        A = random_hermitian(2, rng)
        B = random_hermitian(3, rng)
        assert_allclose(permute_systems(tensor(A, B), [2, 3], [1, 0]),
                        tensor(B, A), atol=1e-12)

    def test_identity_permutation(self):
        rng = np.random.default_rng(9)
        M = random_hermitian(6, rng)
        assert_allclose(permute_systems(M, [2, 3], [0, 1]), M)


class TestEigHermitian:
    def test_diagonal(self):
        w, V = eig_hermitian(np.diag([3.0, 1.0]))
        assert_allclose(w, [1.0, 3.0])
        assert_allclose(V.conj().T @ V, np.eye(2), atol=1e-12)

    def test_pauli_x(self):
        w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        M = random_hermitian(5, rng)
        w, V = eig_hermitian(M)
        err = np.abs(V @ np.diag(w) @ V.conj().T - M).max()
        assert err <= 1e-9 * (1 + np.abs(M).max())

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_projector_square_spectrum(self):
        rng = np.random.default_rng(12)
        M = random_hermitian(4, rng)
        P = support_projection(M @ M.conj().T)
        w1, _ = eig_hermitian(P)
        w2, _ = eig_hermitian(P @ P)
        assert_allclose(w1, w2, atol=1e-10)


class TestSupportProjection:
    def test_already_projector(self):
        assert_allclose(support_projection(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]),
                        atol=1e-12)

    def test_tolerance_cutoff(self):
        P = support_projection(np.diag([5.0, 1e-15, 0.0]))
        assert_allclose(P, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_pure_choi_support(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0
        choi = np.outer(phi, phi.conj())        # Choi matrix of the identity qubit channel
        P = support_projection(choi)
        assert_allclose(P, np.outer(phi, phi.conj()) / 2, atol=1e-12)
        assert_allclose(np.trace(P), 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            support_projection(np.diag([1.0, -1e-6]))

    def test_idempotent_hermitian(self):
        rng = np.random.default_rng(13)
        G = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        P = support_projection(G @ G.conj().T)
        assert np.abs(P @ P - P).max() <= 1e-10
        assert np.abs(P - P.conj().T).max() <= 1e-10
        assert_allclose(np.trace(P).real, 3.0, atol=1e-10)


class TestGeneralizedPauli:
    def test_qubit_family(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.diag([1.0, -1.0]).astype(complex)
        assert_allclose(generalized_pauli(2, 0, 0), np.eye(2))
        assert_allclose(generalized_pauli(2, 1, 0), X)
        assert_allclose(generalized_pauli(2, 0, 1), Z)
        assert_allclose(generalized_pauli(2, 1, 1), X @ Z)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitarity(self, d):
        for a in range(d):
            for b in range(d):
                U = generalized_pauli(d, a, b)
                assert np.abs(U.conj().T @ U - np.eye(d)).max() <= 1e-12

    def test_twirl_is_depolarizing(self):
        d = 3
        rng = np.random.default_rng(14)
        rho = random_hermitian(d, rng)
        out = np.zeros((d, d), dtype=complex)
        for a in range(d):
            for b in range(d):
                U = generalized_pauli(d, a, b)
                out += U @ rho @ U.conj().T
        assert_allclose(out / d ** 2, np.trace(rho) * np.eye(d) / d, atol=1e-12)

    def test_index_range(self):
        with pytest.raises(ValidationError):
            generalized_pauli(2, 2, 0)


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(np.diag([1.0, 0.5])) == pytest.approx(1.0)

    def test_scaled_identity(self):
        assert op_norm(np.eye(4) / 2) == pytest.approx(0.5)

    def test_damping_support_marginal(self):
        # Choi support of the amplitude damping channel at r = 3/4: the span of
        # |00> + sqrt(1-r)|11> and |10>.  Its A-marginal is diagonal with
        # entries 1/(2-r) + 1 and (1-r)/(2-r), largest (3-r)/(2-r) = 1.8.
        r = 0.75
        v0 = np.array([1.0, 0.0, 0.0, np.sqrt(1 - r)])
        v0 /= np.linalg.norm(v0)
        v1 = np.array([0.0, 0.0, 1.0, 0.0])
        P = np.outer(v0, v0) + np.outer(v1, v1)
        marginal = partial_trace(P, 2, 2, "first")
        assert_allclose(marginal, np.diag([(3 - r) / (2 - r), (1 - r) / (2 - r)]),
                        atol=1e-12)
        assert op_norm(marginal) == pytest.approx((3 - r) / (2 - r), abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            op_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("call, message", [
    (lambda: tensor(np.ones(3)), "expected a matrix, got ndim=1"),
    (lambda: partial_trace(np.eye(4), 2, 2, "both"), "traced must be 'first' or 'second'"),
    (lambda: permute_systems(np.eye(5), [2, 3], [1, 0]),
     r"permute_systems: shape \(5, 5\) does not match dims \[2, 3\]"),
    (lambda: permute_systems(np.eye(6), [2, 3], [0, 0]),
     r"perm \[0, 0\] is not a permutation of 0\.\.1"),
    (lambda: eig_hermitian(np.ones((2, 3))),
     r"eig_hermitian input is not Hermitian \(deviation inf"),
], ids=["not-a-matrix", "traced-side", "permute-shape", "not-a-permutation", "eig-not-square"])
def test_rejects_invalid_input(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
