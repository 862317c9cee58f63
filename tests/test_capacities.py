import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap.graphspace import DimensionLimitError
from nszcap.matrixcore import ValidationError, partial_trace
from nszcap.sdpsolver import (
    Block,
    Equation,
    Lift,
    Read,
    SdpProblem,
    SolverFailure,
    SolverOptions,
    _preprocess,
    _Rows,
    solve,
)
from nszcap.theoremsuite import (
    RandomChannelSpec,
    random_channel,
    random_cq_graph,
    random_graph,
)

GOLDEN = (1 + np.sqrt(5)) / 2


def rand_graph(seed, d_in=2, d_out=2, k=2):
    return gs.ncgraph_from_channel(random_channel(RandomChannelSpec(d_in, d_out, k, seed)))


@pytest.fixture(scope="module")
def ex4():
    return {a: gs.ncgraph_from_channel(gs.example4_channel(a))
            for a in (0.5, 2 / 3, 0.75, 0.9)}


@pytest.fixture(scope="module")
def damp():
    return gs.ncgraph_from_channel(gs.amplitude_damping_channel(0.75))


@pytest.fixture(scope="module")
def prop11():
    return gs.ncgraph_from_channel(gs.prop11_channel())


class TestUpsilon:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_noiseless(self, ell):
        assert cap.upsilon(gs.delta(ell)).value == pytest.approx(ell, abs=1e-7)

    @pytest.mark.parametrize("a", [2 / 3, 0.75, 0.9])
    def test_example4_one_shot_useless(self, a, ex4):
        assert cap.upsilon(ex4[a]).value == pytest.approx(1.0, abs=1e-6)

    def test_amplitude_damping(self, damp):
        assert cap.upsilon(damp).value == pytest.approx(1.0, abs=1e-6)

    def test_witness_is_feasible(self, damp):
        res = cap.upsilon(damp)
        viol = cap.check_upsilon_witness(damp, res.primal_witness["S_A"],
                                         res.primal_witness["U_AB"], hat=False)
        assert max(viol.values()) <= 1e-7


class TestUpsilonHat:
    @pytest.mark.parametrize("a", [0.5, 2 / 3, 0.75, 0.9])
    def test_example4(self, a, ex4):
        assert cap.upsilon_hat(ex4[a]).value == pytest.approx(1 / a, abs=1e-6)

    def test_prop11(self, prop11):
        assert cap.upsilon_hat(prop11).value == pytest.approx(1.1767, abs=2e-3)

    def test_amplitude_damping_at_least_witness(self, damp):
        assert cap.upsilon_hat(damp).value >= 9 / 8 - 1e-6

    def test_published_damping_witness_feasible(self, damp):
        S, U = gs.amplitude_damping_activation_witness()
        viol = cap.check_upsilon_witness(damp, S, U, hat=True)
        assert max(viol.values()) <= 1e-12
        assert np.trace(S).real == pytest.approx(9 / 8)

    def test_dual_witness_from_multipliers(self, damp):
        res = cap.upsilon_hat(damp)
        viol = cap.check_eq5_witness(damp, res.dual_witness["T_B"],
                                     res.dual_witness["V_AB"])
        assert max(viol.values()) <= 1e-6
        assert np.trace(res.dual_witness["T_B"]).real == pytest.approx(res.value, abs=1e-6)


class TestUpsilonHatDual:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_noiseless_with_published_witness(self, ell):
        K = gs.delta(ell)
        res = cap.upsilon_hat_dual(K)
        assert res.value == pytest.approx(ell, abs=1e-6)
        # the hand witness T = identity, V = the graph projection is feasible
        viol = cap.check_eq5_witness(K, np.eye(ell), K.P_AB)
        assert max(viol.values()) <= 1e-12

    def test_example4(self, ex4):
        assert cap.upsilon_hat_dual(ex4[0.75]).value == pytest.approx(4 / 3, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_strong_duality_random(self, seed):
        K = rand_graph(seed)
        p = cap.upsilon_hat(K).value
        d = cap.upsilon_hat_dual(K).value
        assert abs(p - d) <= 1e-6

    # with d_A != d_B, a V_AB left in the program's B (x) A order is infeasible
    @pytest.mark.parametrize("spec", [None, (2, 3, 2, 4), (3, 2, 2, 5)],
                             ids=lambda s: "prop11" if s is None else str(s))
    def test_solution_witness_feasible(self, spec, prop11):
        K = prop11 if spec is None else random_graph(RandomChannelSpec(*spec))
        res = cap.upsilon_hat_dual(K)
        T, V = res.primal_witness["T_B"], res.primal_witness["V_AB"]
        viol = cap.check_eq5_witness(K, T, V)
        assert max(viol.values()) <= 1e-6
        assert np.trace(T).real == pytest.approx(res.value, abs=1e-6)

    def test_generic_3x3_channel(self):
        K = random_graph(RandomChannelSpec(3, 3, 2, 17))
        primal = cap.upsilon_hat(K).value
        assert primal == pytest.approx(3.1935796375, abs=1e-9)
        assert cap.upsilon_hat_dual(K).value == pytest.approx(primal, abs=1e-5)


def _random_herm(rng, n, real):
    M = rng.standard_normal((n, n))
    if not real:
        M = M + 1j * rng.standard_normal((n, n))
    return M + M.conj().T


def _row_values(M, real):
    """Re/Im of the entries of M that the rows of an equation on Herm(len(M)) read."""
    rows = _Rows(len(M), real)
    return np.where(rows.im, M[rows.i, rows.j].imag, M[rows.i, rows.j].real)


class TestCoefficientHelpers:
    @pytest.mark.parametrize("real", [False, True])
    def test_lifted_functional_reads_partial_traces(self, real):
        # the entry-family rows of the Lift(1, t=d) terms read the partial traces'
        # entries: tr_A of U on A (x) B, and tr_B of V on its B (x) A reordering
        rng = np.random.default_rng(41)
        dA, dB = 2, 3
        U = _random_herm(rng, dA * dB, real)
        V = _random_herm(rng, dA * dB, real)
        V_BA = V.reshape(dA, dB, dA, dB).transpose(1, 0, 3, 2).reshape(dA * dB, dA * dB)
        for X, term, p, traced in ((U, Lift(1, t=dA), dB, partial_trace(U, dA, dB, "first")),
                                   (V_BA, Lift(1, t=dB), dA,
                                    partial_trace(V, dA, dB, "second"))):
            problem = SdpProblem([Block(dA * dB)], [X],
                                 [Equation({0: term}, np.zeros((p, p)))])
            _, (f,), _, b, _ = _preprocess(problem)
            values = np.zeros(len(b))
            values[f.k] += f.read(X)
            assert_allclose(values, _row_values(traced, real), atol=1e-12)
            assert_allclose(term.apply(X, p), traced, atol=1e-12)

    @pytest.mark.parametrize("frame", ["theta", "theta_dag"])
    @pytest.mark.parametrize("real", [False, True])
    def test_compressed_functional_reads_compressed_entries(self, real, frame):
        # frame theta on an n-block reads theta^dag X theta; frame theta^dag
        # on an r-block reads theta X theta^dag
        rng = np.random.default_rng(42)
        n, r = 5, 3
        G = rng.standard_normal((n, r))
        if not real:
            G = G + 1j * rng.standard_normal((n, r))
        theta, _ = np.linalg.qr(G)
        frame = theta if frame == "theta" else theta.conj().T
        X = _random_herm(rng, frame.shape[0], real)
        Xf = frame.conj().T @ X @ frame
        p = frame.shape[1]
        problem = SdpProblem([Block(frame.shape[0])], [None],
                             [Equation({0: Read(frame)}, np.zeros((p, p)))])
        _, (f,), _, b, _ = _preprocess(problem)
        values = np.zeros(len(b))
        values[f.k] += f.read(X)
        assert_allclose(values, _row_values(Xf, real), atol=1e-12)
        assert_allclose(Read(frame).apply(X, p), Xf, atol=1e-12)


class TestAram:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_noiseless(self, ell):
        assert cap.aram(gs.delta(ell)).value == pytest.approx(ell, abs=1e-7)

    @pytest.mark.parametrize("a", [0.5, 2 / 3, 0.75, 0.9])
    def test_example4(self, a, ex4):
        assert cap.aram(ex4[a]).value == pytest.approx(1 / a, abs=1e-6)

    def test_prop11_upper_bound(self, prop11):
        assert cap.aram(prop11).value <= 1.1751 + 1e-4

    def test_dual_witness(self, prop11):
        res = cap.aram(prop11)
        viol = cap.check_aram_dual_witness(prop11, res.dual_witness["T_B"])
        assert max(viol.values()) <= 1e-6


class TestCqDependentRows:
    # every output is full rank, so no block has a kernel and the marginal
    # rows of the cq program become dependent: its Schur matrix is rank
    # deficient from the first iteration on
    @pytest.mark.parametrize("seed", [516, 49, 61, 102])
    def test_cq_path_matches_general_path(self, seed):
        C = random_cq_graph(seed)
        general = cap.upsilon(gs.ncgraph_from_cq(C)).value
        assert cap.upsilon_cq(C).value == pytest.approx(general, abs=1e-6)


class TestCqDiagonalBlock:
    # s is the diagonal of one N x N PSD block whose coefficients read only
    # the diagonal; the solver keeps both of its iterates exactly diagonal
    @pytest.mark.parametrize("seed", [0, 1, 3, 5, 49, 516])
    @pytest.mark.parametrize("variant", ["upsilon", "hat", "aram"])
    def test_s_block_stays_diagonal(self, variant, seed):
        C = random_cq_graph(seed)
        problem = (cap.build_aram_problem(gs.ncgraph_from_cq(C)) if variant == "aram"
                   else cap.build_cq_problem(C, hat=variant == "hat"))
        sol = solve(problem)
        assert sol.optimal
        for S in (sol.primal_blocks[0], sol.dual_slacks[0]):
            assert S.shape == (C.num_inputs, C.num_inputs)
            assert np.all(S - np.diag(np.diag(S)) == 0.0)

    @pytest.mark.parametrize("seed", [1, 516])
    @pytest.mark.parametrize("fn", [cap.upsilon_cq, cap.upsilon_hat_cq, cap.aram_cq])
    def test_s_witness_is_a_vector(self, fn, seed):
        C = random_cq_graph(seed)
        res = fn(C)
        s = res.primal_witness["s"]
        assert s.shape == (C.num_inputs,) and s.dtype == np.float64
        assert np.all(s >= 0.0)
        assert s.sum() == pytest.approx(res.value, rel=1e-12)


class TestCqQuantities:
    def test_orthogonal_pure_outputs(self):
        C = gs.CqGraph([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert cap.upsilon_cq(C).value == pytest.approx(2.0, abs=1e-6)
        assert cap.upsilon_hat_cq(C).value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("a", [2 / 3, 0.75, 0.9])
    def test_example4_states(self, a):
        C = gs.cq_from_states(gs.example4_states(a))
        assert cap.upsilon_cq(C).value == pytest.approx(1.0, abs=1e-6)
        assert cap.upsilon_hat_cq(C).value == pytest.approx(1 / a, abs=1e-6)
        assert cap.aram_cq(C).value == pytest.approx(1 / a, abs=1e-6)

    def test_single_output(self):
        C = gs.CqGraph([np.diag([1.0, 0.0])])
        assert cap.upsilon_cq(C).value == pytest.approx(1.0, abs=1e-6)

    def test_identical_outputs_fully_confusable(self):
        P = np.diag([1.0, 0.0])
        C = gs.CqGraph([P, P])
        assert cap.aram_cq(C).value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthogonal_basis_outputs(self, d):
        C = gs.CqGraph([np.diag([1.0 if i == j else 0.0 for j in range(d)])
                        for i in range(d)])
        assert cap.aram_cq(C).value == pytest.approx(d, abs=1e-6)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_hat_equals_packing_random(self, seed):
        C = random_cq_graph(seed)
        assert cap.upsilon_hat_cq(C).value == pytest.approx(
            cap.aram_cq(C).value, abs=1e-6)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_cq_path_matches_general_program(self, seed):
        C = random_cq_graph(seed)
        K = gs.ncgraph_from_cq(C)
        assert cap.upsilon_cq(C).value == pytest.approx(cap.upsilon(K).value, abs=2e-6)


# the seven quantities of example 4 at alpha^2 = a: (function, graph kind, value);
# the graph is confusable (Upsilon = 1), and Upsilon-hat = A = 1/a for a cq channel
_EX4_QUANTITIES = {
    "upsilon": (cap.upsilon, "nc", lambda a: 1.0),
    "upsilon_cq": (cap.upsilon_cq, "cq", lambda a: 1.0),
    "upsilon_hat": (cap.upsilon_hat, "nc", lambda a: 1 / a),
    "upsilon_hat_dual": (cap.upsilon_hat_dual, "nc", lambda a: 1 / a),
    "upsilon_hat_cq": (cap.upsilon_hat_cq, "cq", lambda a: 1 / a),
    "aram": (cap.aram, "nc", lambda a: 1 / a),
    "aram_cq": (cap.aram_cq, "cq", lambda a: 1 / a),
}


def _ex4_result(quantity, a):
    fn, kind, value = _EX4_QUANTITIES[quantity]
    graph = (gs.ncgraph_from_channel(gs.example4_channel(a)) if kind == "nc"
             else gs.cq_from_states(gs.example4_states(a)))
    return fn(graph), value(a)


class TestNearDegenerateExample4:
    """Example 4 near its degenerate ends: at alpha^2 -> 1/2 the two outputs'
    overlap 2 alpha^2 - 1 vanishes (at 1/2 they are orthogonal, and Upsilon = 2),
    and at alpha^2 -> 1 they coincide."""

    @pytest.mark.parametrize("quantity", sorted(_EX4_QUANTITIES))
    @pytest.mark.parametrize("a", [0.51, 0.5001, 0.500001, 0.99, 0.9999, 0.999999, 0.99999999])
    def test_value(self, a, quantity):
        res, want = _ex4_result(quantity, a)
        assert res.status == "optimal"
        assert res.value == pytest.approx(want, abs=1e-6)

    @pytest.mark.xfail(strict=True, reason="upsilon returns 2.0000000102 'optimal' after "
                       "21 iterations at alpha^2 = 0.5 + 1e-8, where the value is 1")
    def test_upsilon_at_overlap_2e_8_is_right_or_fails(self):
        try:
            res, want = _ex4_result("upsilon", 0.5 + 1e-8)
        except SolverFailure:
            return
        assert res.value == pytest.approx(want, abs=1e-6)


class TestKrausSpanAtRankTol:
    """Kraus operators cos(pi/4) 1 and sin(pi/4) diag(1, e^{i eps}), whose second
    QR pivot is eps/2 of the first.  Above ``RANK_TOL`` the span is the diagonal
    matrices (dephasing, Upsilon = 2); below it the second vector is dropped and
    the graph is the identity channel's (Upsilon = 4)."""

    @pytest.mark.parametrize("quantity", ["upsilon", "upsilon_hat"])
    @pytest.mark.parametrize("eps, rank, want", [(4e-9, 2, 2.0), (1e-9, 1, 4.0)])
    def test_value_follows_the_kept_rank(self, eps, rank, want, quantity):
        c = s = np.sqrt(0.5)
        K = gs.ncgraph_from_channel(gs.KrausChannel(
            2, 2, [c * np.eye(2), s * np.diag([1.0, np.exp(1j * eps)])]))
        assert K.rank() == rank
        res = getattr(cap, quantity)(K)
        assert res.status == "optimal"
        assert res.value == pytest.approx(want, abs=1e-6)


class TestSuperdenseBound:
    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_amplitude_damping_closed_form(self, r):
        K = gs.ncgraph_from_channel(gs.amplitude_damping_channel(r))
        assert cap.superdense_bound(K) == pytest.approx((4 - 2 * r) / (3 - r), abs=1e-9)

    def test_identity_dense_coding(self):
        K = gs.ncgraph_from_channel(gs.identity_channel(2))
        assert cap.superdense_bound(K) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("ell", [1, 2, 5])
    def test_noiseless(self, ell):
        assert cap.superdense_bound(gs.delta(ell)) == pytest.approx(ell, abs=1e-9)


class TestThm9Criteria:
    def test_trivial_channel_all_false(self):
        r = cap.thm9_criteria(gs.delta(1), cap.CapacityCache())
        assert not any([r.aram_gt_1, r.pb_strict, r.trq_posdef, r.uhat_gt_1])

    def test_example4_all_true(self, ex4):
        r = cap.thm9_criteria(ex4[0.75], cap.CapacityCache())
        assert all([r.aram_gt_1, r.pb_strict, r.trq_posdef, r.uhat_gt_1])

    def test_depolarizing_all_false(self):
        r = cap.thm9_criteria(gs.ncgraph_from_channel(gs.depolarizing_channel(2)),
                              cap.CapacityCache())
        assert not any([r.aram_gt_1, r.pb_strict, r.trq_posdef, r.uhat_gt_1])
        assert r.all_agree()


class TestActivatable:
    def test_example4(self, ex4):
        assert cap.is_activatable(ex4[0.75], cap.CapacityCache())

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_noiseless_not_activatable(self, ell):
        assert not cap.is_activatable(gs.delta(ell), cap.CapacityCache())

    def test_amplitude_damping(self, damp):
        assert cap.is_activatable(damp, cap.CapacityCache())


class TestCacheRoute:
    def test_criteria_and_activation_share_one_cache(self, ex4, monkeypatch):
        K = ex4[0.75]
        expected = (cap.thm9_criteria(K, cap.CapacityCache()),
                    cap.is_activatable(K, cap.CapacityCache()))
        solved = []
        original = cap.upsilon_hat

        def counted(G, opts=None):
            solved.append(G)
            return original(G, opts)
        monkeypatch.setattr(cap, "upsilon_hat", counted)
        cache = cap.CapacityCache()
        assert (cap.thm9_criteria(K, cache), cap.is_activatable(K, cache)) == expected
        assert cache.solves == 3            # aram, upsilon_hat and upsilon
        assert cache.hits == 1 and len(solved) == 1     # upsilon_hat came from memory

    def test_threads_sharing_a_cache_share_each_solve(self, monkeypatch):
        # more asking threads than solver threads, switching as often as the
        # interpreter allows: a lost update would solve a key twice
        solved = []

        def fake(K, opts=None):
            solved.append(K.dim)
            return cap.CapacityResult("upsilon", float(K.dim), {}, {}, 0.0)
        monkeypatch.setattr(cap, "upsilon", fake)
        graphs = [gs.delta(ell) for ell in (1, 2, 3, 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as solver, ThreadPoolExecutor(16) as askers:
                for _ in range(50):
                    solved.clear()
                    cache = cap.CapacityCache(executor=solver)
                    asks = [askers.submit(cache.value, "upsilon", graphs[i % 4])
                            for i in range(64)]
                    values = [f.result(timeout=60) for f in asks]
                    assert values == [float(graphs[i % 4].dim) for i in range(64)]
                    assert sorted(solved) == [1, 4, 9, 16]
                    assert (cache.solves, cache.hits) == (4, 60)
        finally:
            sys.setswitchinterval(interval)

    def test_cache_options_reach_the_solver(self, ex4):
        with pytest.raises(SolverFailure):
            cap.thm9_criteria(ex4[0.75], cap.CapacityCache(SolverOptions(max_iter=1)))


class TestFindN0:
    def test_noiseless_bit(self):
        assert cap.find_n0(gs.delta(2), 1, cap.CapacityCache()) == 1

    def test_example4_weak_channel_no_n0_by_two(self, ex4):
        # alpha^2 = 0.9: the one-shot value stays 1 for both available powers
        assert cap.find_n0(ex4[0.9], 2, cap.CapacityCache()) is None

    def test_capacity_two_gives_one(self):
        assert cap.find_n0(gs.ncgraph_from_channel(gs.identity_channel(2)), 2,
                           cap.CapacityCache()) == 1

    def test_dimension_guard(self, damp, monkeypatch):
        # the damping channel needs activation, so the search reaches n = 2
        # where the Choi dimension 16 trips the guard before the power is built
        def unbuildable(*factors):
            raise AssertionError("Kronecker product formed past the size guard")
        monkeypatch.setattr(gs, "tensor", unbuildable)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "10")
        with pytest.raises(DimensionLimitError):
            cap.find_n0(damp, 2, cap.CapacityCache())

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValidationError):
            cap.find_n0(gs.delta(2), 0, cap.CapacityCache())

    def test_each_power_is_one_product(self, damp, monkeypatch):
        # K^k is built from K^(k-1), so a search to n makes n - 1 products
        class NeverTwo:
            def value(self, fn, K):
                return 1.0

        calls = []
        product = gs.tensor_graph

        def counted(K1, K2):
            calls.append(K1.dim * K2.dim)
            return product(K1, K2)
        monkeypatch.setattr(gs, "tensor_graph", counted)
        assert cap.find_n0(damp, 3, NeverTwo()) is None
        assert calls == [16, 64]


class TestInvariants:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_value_at_least_one(self, seed):
        K = rand_graph(seed, 2, 3, 2)
        assert cap.upsilon(K).value >= 1 - 1e-7
        assert cap.upsilon_hat(K).value >= 1 - 1e-7

    @pytest.mark.parametrize("seed", [11, 14])
    def test_relaxation_ordering(self, seed):
        K = rand_graph(seed, 3, 2, 2)
        assert cap.upsilon(K).value <= cap.upsilon_hat(K).value + 1e-6

    @pytest.mark.parametrize("seed", [15, 16])
    def test_supermultiplicative(self, seed):
        K1 = rand_graph(seed)
        K2 = rand_graph(seed + 40)
        lhs = cap.upsilon_hat(gs.tensor_graph(K1, K2)).value
        rhs = cap.upsilon_hat(K1).value * cap.upsilon_hat(K2).value
        assert lhs >= rhs - 1e-5

    @pytest.mark.parametrize("seed", [17, 18])
    def test_superdense_lower_bounds_activated(self, seed):
        K = rand_graph(seed, 2, 2, 2)
        assert cap.superdense_bound(K) <= cap.upsilon_hat(K).value + 1e-6

    def test_gap_small_on_optimal(self, damp):
        res = cap.upsilon_hat(damp)
        assert res.status == "optimal"
        assert res.gap <= 1e-8 * (1 + abs(res.value)) * 10

    def test_log2_field(self):
        res = cap.aram(gs.delta(4))
        assert res.log2_value == pytest.approx(2.0, abs=1e-7)
