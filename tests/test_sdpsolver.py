import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap.capacities import build_upsilon_problem
from nszcap.graphspace import delta, example4_channel, ncgraph_from_channel
from nszcap.matrixcore import ValidationError
from nszcap.sdpsolver import (
    PSD,
    Block,
    SdpProblem,
    SolverOptions,
    _herm,
    _nt_frame,
    _preprocess,
    constraint_residuals,
    entry_coeff,
    herm_entries,
    herm_from_entry_values,
    realify,
    solve,
)
from nszcap.theoremsuite import RandomChannelSpec, random_cq_graph, random_graph


class TestRealify:
    def test_identity(self):
        assert_allclose(realify(np.eye(2)), np.eye(4))

    def test_pauli_y_spectrum(self):
        Y = np.array([[0, -1j], [1j, 0]])
        R = realify(Y)
        assert R.shape == (4, 4)
        assert_allclose(np.linalg.eigvalsh(R), [-1, -1, 1, 1], atol=1e-12)

    def test_preserves_positivity(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = G @ G.conj().T
        assert np.linalg.eigvalsh(realify(H))[0] >= -1e-12

    def test_trace_and_inner_product_double(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = A + A.conj().T
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = B + B.conj().T
        assert np.trace(realify(A)) == pytest.approx(2 * np.trace(A).real)
        assert np.vdot(realify(A), realify(B)) == pytest.approx(2 * np.vdot(A, B).real)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            realify(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _pd(rng, n, complex_, eigs):
    A = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0)
    V, _ = np.linalg.qr(A)
    return (V * np.asarray(eigs)) @ np.conj(V).T


class TestNtFrame:
    """``X = G diag(lw) G^dag``, ``G^dag Z G = diag(lw)`` where lw^2 is above
    its 1e-14 floor, and then ``W = G G^dag`` is the NT point ``W Z W = X``."""

    @staticmethod
    def _check(X, Z):
        G, lw = _nt_frame(X, Z)
        W = G @ np.conj(G).T

        def rel(A, B):
            return np.linalg.norm(A - B) / np.linalg.norm(B)

        assert np.all(lw > 0) and np.all(np.diff(lw) >= 0)
        assert rel(G @ np.diag(lw) @ np.conj(G).T, X) <= 1e-10
        live = lw * lw > 1e-14
        GZG = np.conj(G).T @ Z @ G
        assert rel(GZG[np.ix_(live, live)], np.diag(lw[live])) <= 1e-10
        if live.all():
            assert rel(W @ Z @ W, X) <= 1e-10
        return G, lw

    @pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
    def test_random_pair(self, complex_):
        rng = np.random.default_rng(7)
        X, Z = (_pd(rng, 6, complex_, rng.uniform(0.1, 2.0, 6)) for _ in range(2))
        G, _ = self._check(X, Z)
        assert np.iscomplexobj(G) == complex_

    def test_eigenvalues_below_sqrt_floor(self):
        # X has two eigenvalues below the 1e-14 floor of its square root; Z is
        # large on their eigenvectors, as near the end of a solve, which keeps
        # lw within the 1e5 spread that the 1e-10 bound allows
        rng = np.random.default_rng(8)
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        X = (V * [2.0, 1.0, 0.3, 1e-9, 1e-15, 1e-16]) @ np.conj(V).T
        Z = _pd(rng, 6, True, rng.uniform(0.5, 2.0, 6)) + 1e5 * V[:, 4:] @ np.conj(V[:, 4:]).T
        self._check(_herm(X), _herm(Z))

    def test_roundoff_negative_product_keeps_w_bounded(self):
        # Z is PSD up to roundoff: one eigenvalue is -1e-15, so X^1/2 Z X^1/2
        # has a negative eigenvalue; lw^2 is floored at 1e-14, which bounds
        # W = G G^dag by 1e7 ||X||
        rng = np.random.default_rng(9)
        X = _pd(rng, 5, True, rng.uniform(0.5, 2.0, 5))
        Z = _pd(rng, 5, True, [-1e-15, 0.5, 1.0, 1.5, 2.0])
        G, lw = _nt_frame(X, Z)
        W = G @ np.conj(G).T
        assert np.all(np.isfinite(W))
        assert lw[0] == pytest.approx(1e-7)
        assert np.linalg.norm(W, 2) <= 1e7 * np.linalg.norm(X, 2) * (1 + 1e-10)
        self._check(X, Z)


class TestEntryHelpers:
    @pytest.mark.parametrize("real", [False, True])
    def test_functionals_read_entries(self, real):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3))
        if not real:
            M = M + 1j * rng.standard_normal((3, 3))
        M = M + M.conj().T
        for (i, j, kind) in herm_entries(3, real):
            A = entry_coeff(i, j, kind).to_dense(3)
            want = M[i, j].real if kind == "re" else M[i, j].imag
            assert np.vdot(A, M).real == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("real", [False, True])
    def test_assembly_matches_dense_sum(self, real):
        rng = np.random.default_rng(22)
        coords = list(herm_entries(3, real))
        vals = rng.standard_normal(len(coords))
        expected = sum(v * entry_coeff(i, j, kind).to_dense(3)
                       for v, (i, j, kind) in zip(vals, coords))
        assert_allclose(herm_from_entry_values(3, vals, real), expected, atol=1e-12)


def _lp(c, rows):
    """The linear program max c.x s.t. a.x = rhs, x >= 0 over (a, rhs) rows, as
    one PSD block whose objective and coefficients are diagonal: only the
    diagonal x of the block enters, and x >= 0 is exactly its PSD-ness."""
    return SdpProblem([Block(PSD, len(c))], [np.diag(np.asarray(c, dtype=float))],
                      [({0: np.diag(np.asarray(a, dtype=float))}, rhs) for a, rhs in rows])


class TestSolveBasics:
    def test_bounded_scalar(self):
        p = SdpProblem(
            blocks=[Block(PSD, 1), Block(PSD, 1)],
            objective=[np.array([[1.0]]), None],
            constraints=[({0: entry_coeff(0, 0, "re"), 1: np.array([[1.0]])}, 1.0)],
        )
        sol = solve(p)
        assert sol.optimal
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_largest_eigenvalue_complex(self):
        Y = np.array([[0, -1j], [1j, 0]])
        p = SdpProblem([Block(PSD, 2)], [Y], [({0: np.eye(2)}, 1.0)])
        sol = solve(p)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_lp_block(self):
        p = _lp([1.0, 2.0], [([1.0, 1.0], 1.0)])
        sol = solve(p)
        assert sol.primal_value == pytest.approx(2.0, abs=1e-7)

    def test_noiseless_capacity_program(self):
        prob, _ = build_upsilon_problem(delta(3), hat=False)
        sol = solve(prob)
        assert sol.optimal
        assert sol.primal_value == pytest.approx(3.0, abs=1e-7)

    def test_activated_program_example_channel(self):
        K = ncgraph_from_channel(example4_channel(0.75))
        prob, _ = build_upsilon_problem(K, hat=True)
        sol = solve(prob)
        assert sol.primal_value == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_weak_duality_and_gap(self):
        prob, _ = build_upsilon_problem(delta(2), hat=True)
        opts = SolverOptions()
        sol = solve(prob, opts)
        scale = 1.0 + abs(sol.primal_value)
        assert sol.primal_value <= sol.dual_value + 10 * opts.feas_tol * scale
        assert abs(sol.primal_value - sol.dual_value) <= opts.gap_tol * scale

    def test_deterministic(self):
        K = ncgraph_from_channel(example4_channel(2 / 3))
        prob, _ = build_upsilon_problem(K, hat=True)
        a = solve(prob).primal_value
        b = solve(prob).primal_value
        assert abs(a - b) <= 1e-9

    @pytest.mark.parametrize("graph,hat", [
        ("delta3", False),
        ("example4", True),
        ("damping", True),
        ("random", False),
    ])
    def test_witness_recheck_in_original_domain(self, graph, hat):
        from nszcap.graphspace import amplitude_damping_channel
        from nszcap.theoremsuite import RandomChannelSpec, random_channel
        K = {
            "delta3": lambda: delta(3),
            "example4": lambda: ncgraph_from_channel(example4_channel(0.75)),
            "damping": lambda: ncgraph_from_channel(amplitude_damping_channel(0.75)),
            "random": lambda: ncgraph_from_channel(
                random_channel(RandomChannelSpec(2, 3, 2, 77))),
        }[graph]()
        prob, _ = build_upsilon_problem(K, hat=hat)
        opts = SolverOptions()
        sol = solve(prob, opts)
        res = constraint_residuals(prob, sol.primal_blocks)
        assert res["max_equality_violation"] <= 10 * opts.feas_tol
        assert res["min_eigenvalue"] >= -1e-8


class TestStatuses:
    def test_unbounded(self):
        p = _lp([1.0, 1.0], [([1.0, -1.0], 0.0)])
        sol = solve(p, SolverOptions(max_iter=80))
        assert sol.status == "unbounded"

    def test_infeasible(self):
        p = _lp([1.0, 1.0], [([1.0, 1.0], -1.0)])
        sol = solve(p, SolverOptions(max_iter=80))
        assert sol.status == "infeasible"

    def test_dependent_rows(self):
        # the cq program of random_cq_graph(516): two rows equal up to one
        # ulp, and a row of rounding noise; its Schur matrix has rank 1
        p = _lp([1.0, 1.0], [([1.0, 1.0 - 2.0**-53], 1.0), ([1.0, 1.0], 1.0),
                             ([-3.25e-17, -3.9e-18], 0.0)])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("rows", [
        [([0.0, 0.0], 1.0), ([1.0, 1.0], 1.0)],
        [([1.0, 1.0], 1.0), ([1.0, 1.0], 2.0)],
    ], ids=["zero-row", "duplicate-rows"])
    def test_inconsistent_dependent_rows_are_infeasible(self, rows):
        assert solve(_lp([1.0, 1.0], rows)).status == "infeasible"

    def test_needs_constraints(self):
        with pytest.raises(ValidationError):
            solve(SdpProblem([Block(PSD, 2)], [np.eye(2)], []))


class TestValidation:
    def test_rejects_non_hermitian_coefficient(self):
        p = SdpProblem([Block(PSD, 2)], [np.eye(2)],
                       [({0: np.array([[0.0, 1.0], [0.0, 0.0]])}, 0.0)])
        with pytest.raises(ValidationError):
            p.validate()

    def test_accepts_canonical_problem(self):
        K = ncgraph_from_channel(example4_channel(0.75))
        for hat in (False, True):
            prob, _ = build_upsilon_problem(K, hat=hat)
            prob.validate()

    def test_rejects_frame_of_wrong_shape(self):
        p = SdpProblem([Block(PSD, 2)], [np.eye(2)],
                       [({0: entry_coeff(0, 0, "re", frame=np.ones((3, 2)))}, 1.0)])
        with pytest.raises(ValidationError):
            p.validate()


def _bad_program(case):
    """A 2x2 program with one framed entry row and one dense row, broken as
    ``case`` names."""
    nan = float("nan")
    frame = np.eye(2)[:, :1]
    rows = [({0: entry_coeff(0, 0, "re", frame=frame)}, 1.0), ({0: np.eye(2)}, 2.0)]
    objective = [np.eye(2)]
    if case == "nan rhs":
        rows[1] = (rows[1][0], nan)
    elif case == "inf objective":
        objective = [np.diag([1.0, np.inf])]
    elif case == "nan dense coefficient":
        rows[1] = ({0: np.diag([1.0, nan])}, 2.0)
    elif case == "nan entry weight":
        rows[0] = ({0: entry_coeff(0, 0, "re", scale=nan, frame=frame)}, 1.0)
    elif case == "nan frame":
        rows[0] = ({0: entry_coeff(0, 0, "re", frame=np.array([[1.0], [nan]]))}, 1.0)
    elif case == "frame rows differ from the block":
        rows[0] = ({0: entry_coeff(0, 0, "re", frame=np.ones((3, 1)))}, 1.0)
    elif case == "block index past the end":
        rows[1] = ({1: np.eye(2)}, 2.0)
    elif case == "negative block index":
        rows[1] = ({-1: np.eye(2)}, 2.0)
    elif case == "short objective list":
        objective = []
    elif case == "negative entry index":
        rows[1] = ({0: entry_coeff(-1, -1, "re")}, 2.0)
    elif case == "entry index past the frame":
        rows[0] = ({0: entry_coeff(1, 1, "re", frame=frame)}, 1.0)
    return SdpProblem([Block(PSD, 2)], objective, rows)


class TestMalformedPrograms:
    """solve rejects malformed data before iterating, with a ValidationError."""

    CASES = ["nan rhs", "inf objective", "nan dense coefficient", "nan entry weight",
             "nan frame", "frame rows differ from the block", "block index past the end",
             "negative block index",
             "short objective list", "negative entry index", "entry index past the frame"]

    def test_well_formed_program_solves(self):
        sol = solve(_bad_program("none"))
        assert sol.optimal and sol.primal_value == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("case", CASES)
    def test_solve_rejects(self, case):
        with pytest.raises(ValidationError):
            solve(_bad_program(case))

    @pytest.mark.parametrize("case", ["negative entry index", "entry index past the frame",
                                      "negative block index"])
    def test_validate_rejects(self, case):
        with pytest.raises(ValidationError):
            _bad_program(case).validate()


class TestFramedBlocks:
    def test_framed_block_matches_dense_coefficients(self):
        # a 2x2 block X on a plane theta in R^3 and a nonnegative slack s, the
        # diagonal of a 3x3 block, with (theta X theta^T)[i, i] + s_i = c_i,
        # maximizing tr X; once through entries framed by theta^T, once
        # through their dense matrices
        rng = np.random.default_rng(3)
        theta, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        frame = theta.T
        c = np.array([1.0, 2.0, 3.0])

        def program(dense):
            cons = []
            for i in range(3):
                L = entry_coeff(i, i, "re", frame=frame)
                cons.append(({0: L.to_dense(2) if dense else L,
                              1: np.diag(np.where(np.arange(3) == i, 1.0, 0.0))}, c[i]))
            return SdpProblem([Block(PSD, 2), Block(PSD, 3)], [np.eye(2), None], cons)

        framed, dense = solve(program(False)), solve(program(True))
        assert framed.optimal and dense.optimal
        assert framed.primal_value == pytest.approx(dense.primal_value, abs=1e-7)
        # the block comes back in its own coordinates; lifted, it stays on the plane
        X = framed.primal_blocks[0]
        assert X.shape == (2, 2)
        lifted = theta @ X @ theta.T
        perp = np.eye(3) - theta @ theta.T
        assert np.abs(perp @ lifted).max() <= 1e-12
        assert np.diag(lifted) + np.diag(framed.primal_blocks[1]) == pytest.approx(c, abs=1e-7)


def _brute_schur(problem, Ws):
    """``sum_b <A_k, W_b A_l W_b>`` from the dense matrix of every coefficient."""
    dense = []
    for coeffs, _ in problem.constraints:
        dense.append({bi: A.to_dense(problem.blocks[bi].dim) if hasattr(A, "to_dense")
                      else np.asarray(A, dtype=complex) for bi, A in coeffs.items()})
    m = problem.num_constraints
    M = np.zeros((m, m))
    for k in range(m):
        for l in range(m):
            for bi in dense[k].keys() & dense[l].keys():
                A, B, W = dense[k][bi], dense[l][bi], Ws[bi]
                M[k, l] += np.vdot(A, W @ B @ W).real
    return M


_NC_GRAPHS = {
    "delta(2)": lambda: delta(2),
    "depolarizing(2), r = 0": lambda: ncgraph_from_channel(gs.depolarizing_channel(2)),
    "amplitude-damping(0.75)": lambda: ncgraph_from_channel(gs.amplitude_damping_channel(0.75)),
    "complex 2->2": lambda: random_graph(RandomChannelSpec(2, 2, 2, 3)),
    "complex 3->2": lambda: random_graph(RandomChannelSpec(3, 2, 2, 5)),
}
_NC_BUILDERS = {
    "upsilon": lambda K: cap.build_upsilon_problem(K, hat=False),
    "upsilon_hat": lambda K: cap.build_upsilon_problem(K, hat=True),
    "upsilon_hat_dual": cap.build_upsilon_hat_dual_problem,
    "aram": cap.build_aram_problem,
}
_CQ_GRAPHS = {
    "real, rank-one outputs": lambda: gs.cq_from_states(gs.example4_states(0.75)),
    "complex, one rank-deficient output": lambda: random_cq_graph(1),
    "complex, all outputs full rank": lambda: random_cq_graph(516),
}


class TestSchurOracle:
    """The assembled Schur matrix equals the brute-force sum over dense coefficients."""

    @staticmethod
    def _compare(problem, seed):
        data, dtype = _preprocess(problem)
        rng = np.random.default_rng(seed)
        Ws = []
        for blk in problem.blocks:
            G = rng.standard_normal((blk.dim, blk.dim))
            if dtype == np.complex128:
                G = G + 1j * rng.standard_normal((blk.dim, blk.dim))
            Ws.append(G @ G.conj().T + 0.1 * np.eye(blk.dim))
        M = np.zeros((problem.num_constraints,) * 2)
        for d, W in zip(data, Ws):
            d.schur(W, M)
        want = _brute_schur(problem, Ws)
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("graph", sorted(_NC_GRAPHS))
    @pytest.mark.parametrize("builder", sorted(_NC_BUILDERS))
    def test_nc_builders(self, builder, graph):
        problem, _ = _NC_BUILDERS[builder](_NC_GRAPHS[graph]())
        self._compare(problem, seed=7)

    @pytest.mark.parametrize("graph", sorted(_CQ_GRAPHS))
    @pytest.mark.parametrize("variant", ["upsilon", "hat", "aram"])
    def test_cq_builders(self, variant, graph):
        problem, _ = cap.build_cq_problem(_CQ_GRAPHS[graph](), variant)
        self._compare(problem, seed=8)

    def test_two_frames_on_one_block(self):
        # a rank-deficient output puts unframed coupling rows and
        # theta^dag-framed marginal rows on the same kernel block
        problem, meta = cap.build_cq_problem(random_cq_graph(1), "hat")
        data, _ = _preprocess(problem)
        assert meta["r_blk"]
        assert all(len(data[b].families) == 2 for b in meta["r_blk"].values())


class TestPhaseTimes:
    def test_phases_cover_the_solve(self):
        K = ncgraph_from_channel(example4_channel(0.75))
        prob, _ = build_upsilon_problem(K, hat=True)
        t0 = time.perf_counter()
        sol = solve(prob)
        wall = time.perf_counter() - t0
        assert set(sol.phase_s) == {"scaling", "schur", "factor", "newton", "step"}
        assert all(v >= 0.0 for v in sol.phase_s.values())
        assert sum(sol.phase_s.values()) <= wall
