import numpy as np
import pytest
from numpy.testing import assert_allclose

from nszcap import graphspace as gs
from nszcap.graphspace import (
    CqGraph,
    DimensionLimitError,
    KrausChannel,
    NCGraph,
    amplitude_damping_activation_witness,
    amplitude_damping_channel,
    choi_matrix,
    cq_from_states,
    delta,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    example4_channel,
    example4_states,
    identity_channel,
    ncgraph_from_channel,
    ncgraph_from_cq,
    prop11_channel,
    prop11_packing_dual_witness,
    superdense_cq,
    tensor_graph,
    tensor_powers,
)
from nszcap.matrixcore import ValidationError, partial_trace, support_projection, tensor
from nszcap.theoremsuite import RandomChannelSpec, _spec_from_seed, random_channel


def _random_graph(seed, d_in=2, d_out=2, k=2):
    return ncgraph_from_channel(random_channel(RandomChannelSpec(d_in, d_out, k, seed)))


class TestKrausChannel:
    @pytest.mark.parametrize("scale", [0.5, 1.5])
    def test_rejects_non_trace_preserving(self, scale):
        with pytest.raises(ValidationError, match="not trace preserving"):
            KrausChannel(2, 2, [np.eye(2) * scale])

    def test_shape_check(self):
        with pytest.raises(ValidationError):
            KrausChannel(2, 3, [np.eye(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        E = np.eye(2, dtype=complex)
        E[0, 1] = bad
        with pytest.raises(ValidationError):
            KrausChannel(2, 2, [E])


class TestChoiMatrix:
    def test_identity_channel(self):
        J = choi_matrix(identity_channel(2))
        phi = np.array([1.0, 0.0, 0.0, 1.0])
        assert_allclose(J, np.outer(phi, phi), atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_input_marginal_is_identity(self, seed):
        spec = RandomChannelSpec(3, 2, 2, seed)
        ch = random_channel(spec)
        J = choi_matrix(ch)
        assert_allclose(partial_trace(J, 3, 2, "second"), np.eye(3), atol=1e-8)

    def test_example4_choi_rank(self):
        J = choi_matrix(example4_channel(0.75))
        w = np.linalg.eigvalsh(J)
        assert np.sum(w > 1e-9) == 2


class TestNCGraphConstruction:
    def test_identity_rank_one(self):
        K = ncgraph_from_channel(identity_channel(2))
        assert K.rank() == 1

    def test_depolarizing_full_space(self):
        K = ncgraph_from_channel(depolarizing_channel(2))
        assert_allclose(K.P_AB, np.eye(4), atol=1e-10)

    def test_prop11_support_matches_published_vectors(self):
        K = ncgraph_from_channel(prop11_channel())
        v0 = np.zeros(9); v0[0] = v0[2] = 1 / np.sqrt(2)
        v1 = np.zeros(9); v1[3] = 1.0
        v2 = np.zeros(9); v2[4] = 1 / 10; v2[6] = 1 / np.sqrt(2); v2[8] = 7 / 10
        P = sum(np.outer(v, v) for v in (v0, v1, v2))
        assert np.abs(K.P_AB - P).max() <= 1e-8

    @pytest.mark.parametrize("seed", [3, 4])
    def test_invariant_under_kraus_mixing(self, seed):
        spec = RandomChannelSpec(2, 3, 2, seed)
        ch = random_channel(spec)
        rng = np.random.default_rng(seed + 100)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(G)
        mixed = [sum(u[i, j] * ch.kraus[j] for j in range(2)) for i in range(2)]
        K1 = ncgraph_from_channel(ch)
        K2 = ncgraph_from_channel(KrausChannel(2, 3, mixed))
        assert np.abs(K1.P_AB - K2.P_AB).max() <= 1e-8

    @pytest.mark.parametrize("r", [1e-9, 1e-12])
    def test_weak_damping_keeps_both_kraus_operators(self, r):
        # the graph is the span of the Kraus operators, whatever their weights:
        # Choi eigenvalues cut at 1e-9 lambda_max dropped the second one here
        assert ncgraph_from_channel(amplitude_damping_channel(r)).rank() == 2

    def test_kraus_span_is_the_choi_support(self):
        for seed in range(1, 41):
            ch = random_channel(_spec_from_seed(seed))
            P = support_projection(choi_matrix(ch))
            assert np.abs(ncgraph_from_channel(ch).P_AB - P).max() <= 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(ValidationError):
            NCGraph(2, 2, np.diag([0.5, 0.0, 0.0, 0.0]))

    def test_rejects_nan_projection(self):
        # NaN slips past every "deviation > tol" test, so it is rejected up front
        P = np.diag([1.0, 0.0, 0.0, 0.0])
        P[1, 2] = np.nan
        with pytest.raises(ValidationError):
            NCGraph(2, 2, P)


class TestDelta:
    def test_one_symbol(self):
        K = delta(1)
        assert (K.d_A, K.d_B) == (1, 1)
        assert_allclose(K.P_AB, [[1.0]])

    def test_two_symbols(self):
        K = delta(2)
        assert_allclose(K.P_AB, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            delta(0)

    def test_matches_dephasing_channel(self):
        assert_allclose(delta(3).P_AB,
                        ncgraph_from_channel(dephasing_channel(3)).P_AB, atol=1e-10)


class TestTensorGraph:
    def test_delta_squares_to_delta(self):
        K = tensor_graph(delta(2), delta(2))
        assert_allclose(K.P_AB, delta(4).P_AB, atol=1e-12)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_rank_multiplicative(self, seed):
        K1 = _random_graph(seed, 2, 2, 2)
        K2 = _random_graph(seed + 50, 2, 3, 2)
        K = tensor_graph(K1, K2)
        assert K.rank() == K1.rank() * K2.rank()
        assert (K.d_A, K.d_B) == (4, 6)

    def test_projector_invariants(self):
        K = tensor_graph(_random_graph(7), delta(2))
        P = K.P_AB
        assert np.abs(P @ P - P).max() <= 1e-9

    # example4 (x) delta(2) and example4^(x)2 have Choi dimension 16, past the limit
    @pytest.mark.parametrize("build", [
        lambda K: tensor_graph(K, delta(2)),
        lambda K: list(tensor_powers(K, 2)),
    ], ids=["tensor_graph", "tensor_power"])
    def test_size_guard_before_the_kronecker_product(self, monkeypatch, build):
        K = ncgraph_from_channel(example4_channel(0.75))

        def unbuildable(*factors):
            raise AssertionError("P formed past the size guard")
        monkeypatch.setattr(gs, "tensor", unbuildable)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "10")
        with pytest.raises(DimensionLimitError, match="Choi dimension 16 exceeds the limit 10"):
            build(K)

    def test_power_is_guarded_at_each_step(self, monkeypatch):
        monkeypatch.setenv("NSZCAP_MAX_DIM", "16")
        assert [K.dim for K in tensor_powers(delta(2), 2)] == [4, 16]
        with pytest.raises(DimensionLimitError, match="Choi dimension 64 exceeds the limit 16"):
            list(tensor_powers(delta(2), 3))


class TestDirectSum:
    def test_two_trivial_channels_make_one_bit(self):
        K = direct_sum(delta(1), delta(1))
        assert_allclose(K.P_AB, delta(2).P_AB, atol=1e-12)

    @pytest.mark.parametrize("seed", [9, 10])
    def test_rank_additive(self, seed):
        K1 = _random_graph(seed, 2, 2, 2)
        K2 = _random_graph(seed + 60, 2, 2, 3)
        K = direct_sum(K1, K2)
        assert K.rank() == K1.rank() + K2.rank()
        assert (K.d_A, K.d_B) == (4, 4)
        assert np.abs(K.P_AB @ K.P_AB - K.P_AB).max() <= 1e-9

    def test_unequal_dimensions_embed_blockwise(self):
        K1 = _random_graph(11, 2, 3, 2)
        K2 = _random_graph(12, 3, 2, 2)
        K = direct_sum(K1, K2)
        assert (K.d_A, K.d_B) == (5, 5)
        assert K.rank() == K1.rank() + K2.rank()
        assert np.abs(K.P_AB @ K.P_AB - K.P_AB).max() <= 1e-9

    def test_size_guard_before_p_is_allocated(self, monkeypatch):
        # (2 + 3)(3 + 2) = 25, though the two Choi dimensions only add up to 12
        K1 = _random_graph(11, 2, 3, 2)
        K2 = _random_graph(12, 3, 2, 2)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "25")
        assert direct_sum(K1, K2).dim == 25

        def unallocatable(*args, **kwargs):
            raise AssertionError("P allocated past the size guard")
        monkeypatch.setattr(np, "zeros", unallocatable)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "24")
        with pytest.raises(DimensionLimitError, match="Choi dimension 25 exceeds the limit 24"):
            direct_sum(K1, K2)


class TestSuperdenseCq:
    def test_identity_gives_bell_basis(self):
        K = ncgraph_from_channel(identity_channel(2))
        C = superdense_cq(K)
        assert C.num_inputs == 4
        total = sum(C.projections)
        assert_allclose(total, np.eye(4), atol=1e-9)  # four orthogonal rank-1 lines
        for P in C.projections:
            assert np.trace(P).real == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [13, 14])
    def test_projections_and_twirl(self, seed):
        K = _random_graph(seed, 2, 3, 2)
        C = superdense_cq(K)
        for P in C.projections:
            assert np.abs(P @ P - P).max() <= 1e-9
            assert np.trace(P).real == pytest.approx(K.rank(), abs=1e-9)
        total = sum(C.projections)
        expected = K.d_A * tensor(np.eye(K.d_A), K.P_B)
        assert np.abs(total - expected).max() <= 1e-9


class TestCqGraphs:
    def test_cq_from_states_validates_trace(self):
        with pytest.raises(ValidationError):
            cq_from_states([np.eye(2)])

    def test_rejects_non_finite(self):
        bad = np.diag([1.0, 0.0])
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(ValidationError):
            cq_from_states([bad])
        with pytest.raises(ValidationError):
            CqGraph([bad])

    def test_rejects_zero_projection(self):
        with pytest.raises(ValidationError, match="output 1 has empty support"):
            CqGraph([np.diag([1.0, 0.0]), np.zeros((2, 2))])

    def test_example4_states_become_projections(self):
        C = cq_from_states(example4_states(0.75))
        assert C.num_inputs == 2
        for P in C.projections:
            assert np.trace(P).real == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_outputs_at_alpha_half(self):
        # at alpha^2 = 1/2 the two outputs are |+> and |->: distinct orthogonal
        # projections, a noiseless bit
        C = cq_from_states(example4_states(0.5))
        P0, P1 = C.projections
        assert np.abs(P0 @ P1).max() <= 1e-12
        assert np.abs(P0 - P1).max() > 0.9

    def test_embedding_block_structure(self):
        C = cq_from_states(example4_states(0.75))
        K = ncgraph_from_cq(C)
        assert (K.d_A, K.d_B) == (2, 2)
        assert_allclose(K.P_AB[:2, :2], C.projections[0], atol=1e-12)
        assert_allclose(K.P_AB[2:, 2:], C.projections[1], atol=1e-12)
        assert_allclose(K.P_AB[:2, 2:], 0.0, atol=1e-15)

    def test_embedding_matches_channel_construction(self):
        # the cq graph embedding agrees with the Choi support of the channel
        # built from Kraus operators |psi_i><i|
        K1 = ncgraph_from_cq(cq_from_states(example4_states(0.75)))
        K2 = ncgraph_from_channel(example4_channel(0.75))
        assert np.abs(K1.P_AB - K2.P_AB).max() <= 1e-9


class TestBuiltinWitnesses:
    def test_amplitude_damping_marginal(self):
        for r in (0.25, 0.5, 0.75):
            K = ncgraph_from_channel(amplitude_damping_channel(r))
            expected = np.diag([(3 - r) / (2 - r), (1 - r) / (2 - r)])
            assert_allclose(K.P_B, expected, atol=1e-10)

    def test_prop11_dual_witness_trace(self):
        T = prop11_packing_dual_witness()
        assert np.trace(T).real == pytest.approx(1.1751)
        assert np.linalg.eigvalsh(T)[0] >= -1e-12

    def test_activation_witness_shapes(self):
        S, U = amplitude_damping_activation_witness()
        assert np.trace(S).real == pytest.approx(9 / 8)
        assert np.linalg.eigvalsh(U)[0] >= -1e-12


@pytest.mark.parametrize("build, message", [
    (lambda: KrausChannel(0, 2, [np.zeros((2, 0))]), "channel dimensions must be positive"),
    (lambda: KrausChannel(2, 2, []), "needs at least one Kraus operator"),
    (lambda: NCGraph(2, 2, np.eye(3)), r"P_AB shape \(3, 3\) does not match dims \(2,2\)"),
    (lambda: NCGraph(1, 2, np.array([[0.0, 1.0], [0.0, 0.0]])), "P_AB is not Hermitian"),
    (lambda: CqGraph([]), "cq graph needs at least one projection"),
    (lambda: CqGraph([np.eye(2), np.eye(3)]), "cq projections must share one output dimension"),
    (lambda: CqGraph([np.diag([0.5, 1.0])]), "cq output is not a projector"),
    (lambda: CqGraph([np.eye(2), np.eye(2)[:, :1]]), r"cq output 1 is not square: shape \(2, 1\)"),
    (lambda: cq_from_states([[[1, 0, 0], [0, 0, 0]]]),
     r"cq output state 0 is not square: shape \(2, 3\)"),
    (lambda: dephasing_channel(0), "dephasing channel needs at least one symbol"),
    (lambda: example4_channel(0.0), r"alpha_sq must lie in \(0, 1\]"),
    (lambda: amplitude_damping_channel(1.5), r"damping probability must lie in \[0, 1\]"),
], ids=["kraus-dims", "kraus-empty", "graph-shape", "graph-not-hermitian", "cq-empty",
        "cq-mixed-dims", "cq-not-projector", "cq-not-square", "cq-state-not-square",
        "dephasing-zero", "example4-alpha", "damping-r"])
def test_rejects_invalid_input(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
