import math
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap import sdpsolver
from nszcap.capacities import build_upsilon_problem
from nszcap.graphspace import delta, example4_channel, ncgraph_from_channel
from nszcap.matrixcore import ValidationError, partial_trace
from nszcap.sdpsolver import (
    Block,
    Equation,
    Lift,
    Read,
    SdpProblem,
    SolverFailure,
    _cast,
    _CoreNewton,
    _eigh,
    _herm,
    _max_step_scaled,
    _nt_frame,
    _pair_all,
    _Pivoted,
    _preprocess,
    _Rows,
    _schur,
    _step_scale,
    solve,
)
from nszcap.theoremsuite import RandomChannelSpec, random_cq_graph, random_graph


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


def _entries(p, real):
    """The canonical rows of Herm(p): (i, i, re), then (i, j, re), (i, j, im) for i < j."""
    out = [(i, i, "re") for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            out += [(i, j, "re")] + ([] if real else [(i, j, "im")])
    return out


def _unit(p, i, j, kind):
    """The Hermitian E with <E, H> = Re H[i, j] (kind re) or Im H[i, j] (kind im)."""
    E = np.zeros((p, p), dtype=complex)
    E[i, j] += 0.5j if kind == "im" else 0.5
    E[j, i] += -0.5j if kind == "im" else 0.5
    return E


def _random_herm(rng, n, real, stack=()):
    M = rng.standard_normal((*stack, n, n))
    if not real:
        M = M + 1j * rng.standard_normal((*stack, n, n))
    return M + np.swapaxes(M.conj(), -1, -2)


def _swap(X, dA, dB):
    """A stack of operators on A (x) B with their factors reordered to B (x) A."""
    n = dA * dB
    return X.reshape(X.shape[:-2] + (dA, dB, dA, dB)).transpose(
        *range(X.ndim - 2), -3, -4, -1, -2).reshape(X.shape[:-2] + (n, n))


class TestEntryHelpers:
    @pytest.mark.parametrize("real", [False, True])
    def test_functionals_read_entries(self, real):
        rng = np.random.default_rng(2)
        M = _random_herm(rng, 3, real)
        rows = _Rows(3, real)
        assert list(zip(rows.i, rows.j, np.where(rows.im, "im", "re"))) == _entries(3, real)
        for (a, b, kind), value in zip(_entries(3, real), rows.read(M)):
            want = M[a, b].imag if kind == "im" else M[a, b].real
            assert np.vdot(_unit(3, a, b, kind), M).real == pytest.approx(want, abs=1e-12)
            assert value == want
        assert_allclose(rows.norm2, [np.vdot(_unit(3, *e), _unit(3, *e)).real
                                     for e in _entries(3, real)])

    @pytest.mark.parametrize("real", [False, True])
    def test_assembly_matches_dense_sum(self, real):
        # the multiplier matrix of an equation is sum_e y_e E_e over its rows
        rng = np.random.default_rng(22)
        vals = rng.standard_normal(len(_entries(3, real)))
        expected = sum(v * _unit(3, *e) for v, e in zip(vals, _entries(3, real)))
        rows = _Rows(3, real)
        assert_allclose(rows.matrix(rows.norm2 * vals), expected, atol=1e-12)

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize("real", [False, True])
    def test_trace_family_reads_and_scatters(self, real, first):
        # the partial trace over a d-dim first factor, Lift(1, t=d), is one family
        # of t = d entries per row: it reads tr_A X, or tr_B X of X reordered to
        # B (x) A, and its scatter is the adjoint 1_d (x) Y
        dA, dB = 2, 3
        d, p = (dA, dB) if first else (dB, dA)
        rng = np.random.default_rng(28)
        X = _random_herm(rng, dA * dB, real)
        Xd = X if first else _swap(X, dA, dB)       # the traced factor first
        prob = SdpProblem([Block(dA * dB)], [Xd], [Equation({0: Lift(1, t=d)}, np.eye(p))])
        (C,), (f,), _, _, (rows,) = _preprocess(prob)
        assert f.t == d and f.i.shape == f.j.shape == (len(rows), d)
        traced = partial_trace(X, dA, dB, "first" if first else "second")
        assert_allclose(f.read(Xd), rows.read(traced), atol=1e-12)
        y = rng.standard_normal(len(rows))
        acc = np.zeros_like(C)
        f.scatter(y, acc)
        Y = rows.matrix(rows.norm2 * y)
        want = np.kron(np.eye(d), Y)
        assert np.iscomplexobj(acc) != real
        assert_allclose(_herm(acc), want, atol=1e-12)

    @pytest.mark.parametrize("real", [False, True])
    def test_kraus_family_reads_and_scatters(self, real):
        # a Read of t = 3 Kraus operators is one framed family: it reads
        # scale sum_a F_a^dag X F_a, and its scatter is the adjoint scale sum_a F_a Y F_a^dag
        rng = np.random.default_rng(30)
        F = rng.standard_normal((5, 6)) + (0 if real else 1j * rng.standard_normal((5, 6)))
        term = Read(F, 0.7, t=3)
        X = _random_herm(rng, 5, real)
        prob = SdpProblem([Block(5)], [X], [Equation({0: term}, np.eye(2))])
        (C,), (f,), _, _, (rows,) = _preprocess(prob)
        assert f.t == 3 and f.r == 6
        assert_allclose(f.read(X), rows.read(term.apply(X, 2)), atol=1e-12)
        y = rng.standard_normal(len(rows))
        acc = np.zeros_like(C)
        f.scatter(y, acc)
        Y = rows.matrix(rows.norm2 * y)
        want = 0.7 * sum(F[:, a:a + 2] @ Y @ np.conj(F[:, a:a + 2]).T for a in (0, 2, 4))
        assert_allclose(_herm(acc), want, atol=1e-12)

    @pytest.mark.parametrize("budget", [100, 2000])
    @pytest.mark.parametrize("real", [False, True])
    def test_outer_row_groups_within_budget(self, monkeypatch, real, budget):
        # a wide Kraus stack (s = 40) on r2 = 3 columns, for the partial-trace rows
        # of t = 2 entries: the gathered rows (rows, 2t, s, r2) outgrow the products
        # (rows, r2, r2), and each row group bounds both or is one row; the groups
        # join to the unchunked products bit for bit, and those are sum_a X_a^dag A~_e X_a
        z = _Rows(3, real)
        c = np.where(z.im, -1j, 1.0)
        i, j = (np.stack([a, a + 3], axis=1) for a in (z.i, z.j))
        dtype = np.float64 if real else np.complex128
        f = sdpsolver._EntryFamily(0, z.k, i, j, c, None, 6, dtype)
        rng = np.random.default_rng(34)
        X = rng.standard_normal((6, 40, 3)) + (0 if real else 1j * rng.standard_normal((6, 40, 3)))
        monkeypatch.setattr(sdpsolver, "_SCHUR_BUDGET", budget)
        groups = list(f.outer(X))
        assert len(groups) > 1
        for e, R in groups:
            n = len(range(len(f.k))[e])
            assert R.shape == (n, 3, 3)
            assert n == 1 or max(n * 2 * f.t * 40 * 3, n * 3 * 3) <= budget
        monkeypatch.setattr(sdpsolver, "_SCHUR_BUDGET", 1 << 40)
        (_, whole), = f.outer(X)
        assert len(whole) == len(f.k)
        assert np.concatenate([R for _, R in groups]).tobytes() == whole.tobytes()
        for row, R in zip(range(len(f.k)), whole):
            A = np.zeros((6, 6), dtype=complex)
            A[i[row], j[row]] = np.conj(c[row]) / 2
            want = sum(np.conj(X[:, a]).T @ (A + np.conj(A).T) @ X[:, a] for a in range(40))
            assert_allclose(R, want, atol=1e-12)

    @pytest.mark.parametrize("real", [False, True])
    def test_matrix_inverts_read(self, real):
        # on a stack: matrix(read(Y)) = Y for Hermitian (real: symmetric) Y, and
        # read(matrix(v)) = v for any row values v
        rng = np.random.default_rng(23)
        Y = _random_herm(rng, 4, real, stack=(2, 3))
        rows = _Rows(4, real, start=5)
        assert np.array_equal(rows.matrix(rows.read(Y)), Y)
        v = rng.standard_normal((3, len(rows)))
        assert np.array_equal(rows.read(rows.matrix(v)), v)
        assert np.iscomplexobj(rows.matrix(v)) != real
        assert list(rows.k) == list(range(5, 5 + len(rows)))

    @pytest.mark.parametrize("real", [False, True])
    def test_matrix_inverts_read_bit_for_bit(self, real):
        # matrix writes each entry once: matrix(read(H)) is H bit for bit, p = 1
        # (no off-diagonal rows) included, and a negative zero comes back as +0.0
        rng = np.random.default_rng(31)
        for p in range(1, 6):
            rows = _Rows(p, real)
            H = _random_herm(rng, p, real)
            for part in (H.real, H.imag) if not real else (H,):
                zero = rng.random((p, p)) < 0.3
                part[zero | zero.T] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Y, Yn = rows.matrix(rows.read(H)), rows.matrix(rows.read(-H))
            assert Y.dtype == H.dtype and Y.tobytes() == H.tobytes()
            assert np.signbit((-H).view(np.float64)).any()
            assert Yn.tobytes() == (-H + 0.0).tobytes()


def _stack_cases():
    rng = np.random.default_rng(24)
    frame = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    kraus = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    return {
        "read": (Read(scale=-2.0), 3, 3),
        "read framed": (Read(frame, 0.5), 4, 2),
        "read kraus": (Read(kraus, 0.5, t=3), 4, 2),
        "lift at 1": (Lift(2, -1.5, at=1), 4, 4),
        "lift of three blocks": (Lift(2, -1.5, at=1, t=3), 7, 4),
        "map partial trace": (Read(np.eye(6), t=2), 6, 3),     # tr_A: Kraus operators <a| (x) 1
        "trace first": (Lift(1, t=2), 6, 3),           # tr_A on A (x) B, d_A = 2
        "trace second": (Lift(1, t=3), 6, 2),          # tr_B on B (x) A, d_B = 3
    }


class TestBatchedTerms:
    """Every term maps a stack of blocks (..., dim, dim) to the stack of its images."""

    @pytest.mark.parametrize("case", sorted(_stack_cases()))
    def test_stack_is_stack_of_applies(self, case):
        term, dim, p = _stack_cases()[case]
        X = _random_herm(np.random.default_rng(25), dim, False, stack=(2, 3))
        H = term.apply(X, p)
        assert H.shape == (2, 3, p, p)
        for idx in np.ndindex(2, 3):
            assert_allclose(H[idx], term.apply(X[idx], p), rtol=1e-14, atol=1e-14)

    def test_lift_is_kron(self):
        X = _random_herm(np.random.default_rng(26), 4, False)
        want = -1.5 * np.kron(X[1:3, 1:3], np.eye(2))
        assert np.array_equal(Lift(2, -1.5, at=1).apply(X, 4), want)

    def test_lift_of_three_blocks_is_their_sum(self):
        X = _random_herm(np.random.default_rng(31), 7, False)
        want = -1.5 * np.kron(X[1:3, 1:3] + X[3:5, 3:5] + X[5:7, 5:7], np.eye(2))
        assert_allclose(Lift(2, -1.5, at=1, t=3).apply(X, 4), want, rtol=1e-14, atol=1e-14)

    def test_map_is_its_definition(self):
        # a Read of t Kraus operators is scale sum_a F_a^dag X F_a, for a complex
        # frame on a complex stack
        rng = np.random.default_rng(28)
        F = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        X = _random_herm(rng, 3, False, stack=(4,))
        H = Read(F, -0.5, t=4).apply(X, 2)
        for s in range(4):
            want = sum(np.conj(F[:, a:a + 2]).T @ X[s] @ F[:, a:a + 2] for a in range(0, 8, 2))
            assert_allclose(H[s], -0.5 * want, rtol=1e-13)

    @pytest.mark.parametrize("case", ["trace first", "trace second"])
    def test_trace_is_partial_trace(self, case):
        # on each matrix of a stack on A (x) B (2 x 3 factors), tr_B read on its
        # B (x) A reordering, and as the Kraus operators <a| (x) 1 of the traced factor do
        term, dim, p = _stack_cases()[case]
        first = case == "trace first"
        X = _random_herm(np.random.default_rng(27), dim, False, stack=(2, 3))
        Xd = X if first else _swap(X, 2, 3)
        H = term.apply(Xd, p)
        for idx in np.ndindex(2, 3):
            want = partial_trace(X[idx], 2, 3, "first" if first else "second")
            assert_allclose(H[idx], want, rtol=1e-14, atol=1e-14)
        assert_allclose(H, Read(np.eye(6), t=term.t).apply(Xd, p), rtol=1e-14, atol=1e-14)


def _lp(c, rows):
    """The linear program max c.x s.t. a.x = rhs, x >= 0 over (a, rhs) rows, as
    one 1-dim block per variable, each read with scale a_i: x >= 0 is exactly
    the blocks' PSD-ness."""
    return SdpProblem([Block(1) for _ in c], [np.array([[float(ci)]]) for ci in c],
                      [Equation({i: Read(scale=float(ai)) for i, ai in enumerate(a)},
                                np.array([[rhs]])) for a, rhs in rows])


class TestSolveBasics:
    def test_bounded_scalar(self):
        p = SdpProblem(
            blocks=[Block(1), Block(1)],
            objective=[np.array([[1.0]]), None],
            constraints=[Equation({0: Read(), 1: Read()}, np.eye(1))],
        )
        sol = solve(p)
        assert sol.optimal
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_largest_eigenvalue_complex(self):
        Y = np.array([[0, -1j], [1j, 0]])
        p = SdpProblem([Block(2)], [Y], [Equation({0: Lift(1, t=2)}, np.eye(1))])
        sol = solve(p)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_lp_block(self):
        p = _lp([1.0, 2.0], [([1.0, 1.0], 1.0)])
        sol = solve(p)
        assert sol.primal_value == pytest.approx(2.0, abs=1e-7)

    def test_noiseless_capacity_program(self):
        prob = build_upsilon_problem(delta(3), hat=False)
        sol = solve(prob)
        assert sol.optimal
        assert sol.primal_value == pytest.approx(3.0, abs=1e-7)

    def test_activated_program_example_channel(self):
        K = ncgraph_from_channel(example4_channel(0.75))
        prob = build_upsilon_problem(K, hat=True)
        sol = solve(prob)
        assert sol.primal_value == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_weak_duality_and_gap(self):
        prob = build_upsilon_problem(delta(2), hat=True)
        sol = solve(prob)
        scale = 1.0 + abs(sol.primal_value)
        assert sol.primal_value <= sol.dual_value + 10 * sdpsolver.FEAS_TOL * scale
        assert abs(sol.primal_value - sol.dual_value) <= sdpsolver.GAP_TOL * scale
        # the dual objective is sum <rhs, Y> over the equations' multiplier matrices
        pairs = zip(prob.constraints, sol.dual_multipliers)
        assert sum(np.vdot(rhs, Y).real for (_, rhs), Y in pairs) == \
            pytest.approx(sol.dual_value, abs=1e-12)

    def test_deterministic(self):
        K = ncgraph_from_channel(example4_channel(2 / 3))
        prob = build_upsilon_problem(K, hat=True)
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
        sol = solve(build_upsilon_problem(K, hat=hat))
        S, U = sol.primal_blocks[:2]
        res = cap.check_upsilon_witness(K, S, U, hat)
        assert max(res.values()) <= 10 * sdpsolver.FEAS_TOL
        assert min(np.linalg.eigvalsh(X)[0] for X in sol.primal_blocks) >= -1e-8


class TestStatuses:
    @pytest.mark.parametrize("rows", [
        [([1.0, -1.0], 0.0)],
        [([1.0, 1.0], -1.0)],
        [([0.0, 0.0], 1.0), ([1.0, 1.0], 1.0)],
        [([1.0, 1.0], 1.0), ([1.0, 1.0], 2.0)],
    ], ids=["unbounded", "infeasible", "zero-row", "duplicate-rows"])
    def test_program_without_an_optimum_is_not_optimal(self, rows):
        assert solve(_lp([1.0, 1.0], rows)).status == "numerical-failure"

    def test_dependent_rows(self):
        # the cq program of random_cq_graph(516): two rows equal up to one
        # ulp, and a row of rounding noise; its Schur matrix has rank 1
        p = _lp([1.0, 1.0], [([1.0, 1.0 - 2.0**-53], 1.0), ([1.0, 1.0], 1.0),
                             ([-3.25e-17, -3.9e-18], 0.0)])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

    def test_needs_constraints(self):
        with pytest.raises(ValidationError):
            solve(SdpProblem([Block(2)], [np.eye(2)], []))


class TestNumericalFailureExits:
    """Each exit of the iteration that ends ``numerical-failure`` returns the best
    iterate it saw, with one trace record per iteration."""

    PROBLEM = build_upsilon_problem(ncgraph_from_channel(example4_channel(0.75)), hat=True)

    def _solve(self, monkeypatch, step, frame=_nt_frame):
        monkeypatch.setattr(sdpsolver, "_max_step_scaled", step)
        monkeypatch.setattr(sdpsolver, "_nt_frame", frame)
        sol = solve(self.PROBLEM)
        assert sol.status == "numerical-failure"
        assert len(sol.trace) == sol.iterations
        scored = [r for r in sol.trace if r["gap"] is not None]
        best = min(scored, key=lambda r: max(r["gap"], r["pinf"], r["dinf"]))
        assert (sol.primal_value, sol.gap) == (best["pobj"], best["gap"])
        assert all(np.all(np.isfinite(X)) for X in sol.primal_blocks)
        return sol

    def test_non_finite_iterate(self, monkeypatch):
        # a NaN frame at iteration 3 whose direction the step rule lets through
        calls = []

        def nan_frame(X, Z):
            calls.append(1)
            G, lw = _nt_frame(X, Z)
            return (G * np.nan if len(calls) > 2 * len(self.PROBLEM.blocks) else G), lw

        def step(B):
            return np.where(np.isfinite(B).all(axis=(1, 2)), _max_step_scaled(B), 1.0)

        sol = self._solve(monkeypatch, step, nan_frame)
        assert sol.iterations == 4 and sol.trace[-1]["gap"] is None

    def test_stall(self, monkeypatch):
        # steps of 1e-6 leave the residuals in place: 15 iterations without progress
        sol = self._solve(monkeypatch, lambda B: np.full(len(B), 1e-6))
        assert sol.iterations == 16 and sol.trace[-1]["alpha_p"] is None

    def test_zero_step(self, monkeypatch):
        sol = self._solve(monkeypatch, lambda B: np.zeros(len(B)))
        assert sol.iterations == 1 and sol.trace[0]["alpha_p"] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_takes_no_step(self, bad):
        D = np.diag([-1.0, 1.0])[None]
        assert _max_step_scaled(D).tolist() == [1.0]
        D[0, 0, 1] = D[0, 1, 0] = bad
        assert _max_step_scaled(D).tolist() == [0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dual_direction_keeps_the_primal_step(self, bad):
        # a block's primal and dual directions share one stack: only the
        # non-finite one takes no step
        D = np.stack([np.diag([-0.5, 1.0]), np.diag([-1.0, 1.0])])
        assert _max_step_scaled(D).tolist() == [2.0, 1.0]
        D[1, 0, 1] = D[1, 1, 0] = bad
        assert _max_step_scaled(D).tolist() == [2.0, 0.0]

    def test_scaled_step_is_the_step_from_the_frame(self):
        # the step from diag(lw) along D is the largest a that keeps diag(lw) + a D
        # PSD, where its least eigenvalue is 0; the diagonal alone would allow 1/2
        lw, D = np.array([1.0, 4.0]), np.array([[-1.0, 0.5], [0.5, -8.0]])
        a = _max_step_scaled((D * _step_scale(lw))[None])[0]
        assert np.linalg.eigvalsh(np.diag(lw) + a * D)[0] == pytest.approx(0.0, abs=1e-12)
        assert a < 0.5


class TestValidation:
    def test_accepts_canonical_problem(self):
        K = ncgraph_from_channel(example4_channel(0.75))
        for hat in (False, True):
            assert solve(build_upsilon_problem(K, hat=hat)).optimal

    def test_rejects_frame_of_wrong_shape(self):
        p = SdpProblem([Block(2)], [np.eye(2)],
                       [Equation({0: Read(np.ones((3, 2)))}, np.eye(2))])
        with pytest.raises(ValidationError):
            solve(p)


def _bad_program(case):
    """A 2x2 program with one framed Read equation and one trace equation,
    broken as ``case`` names."""
    nan = float("nan")
    frame = np.eye(2)[:, :1]
    rows = [Equation({0: Read(frame)}, np.eye(1)), Equation({0: Lift(1, t=2)}, 2 * np.eye(1))]
    blocks = [Block(2)]
    objective = [np.eye(2)]
    if case == "nan rhs":
        rows[1] = Equation(rows[1].terms, np.array([[nan]]))
    elif case == "inf objective":
        objective = [np.diag([1.0, np.inf])]
    elif case == "nan kraus frame":
        rows[1] = Equation({0: Read(np.array([[1.0, 0.0], [0.0, nan]]), t=2)}, 2 * np.eye(1))
    elif case == "nan entry weight":
        rows[0] = Equation({0: Read(frame, scale=nan)}, np.eye(1))
    elif case == "nan frame":
        rows[0] = Equation({0: Read(np.array([[1.0], [nan]]))}, np.eye(1))
    elif case == "frame rows differ from the block":
        rows[0] = Equation({0: Read(np.ones((3, 1)))}, np.eye(1))
    elif case == "block index past the end":
        rows[1] = Equation({1: Lift(1, t=2)}, 2 * np.eye(1))
    elif case == "negative block index":
        rows[1] = Equation({-1: Lift(1, t=2)}, 2 * np.eye(1))
    elif case == "short objective list":
        objective = []
    elif case == "negative entry index":
        rows[0] = Equation({0: Lift(1, at=-1)}, np.eye(1))
    elif case == "entry index past the frame":
        rows[0] = Equation({0: Lift(1, at=2)}, np.eye(1))
    elif case == "rhs not square":
        rows[1] = Equation(rows[1].terms, np.eye(1, 2))
    elif case == "map of the wrong shape":         # a frame whose width is not t p
        rows[1] = Equation({0: Read(np.eye(2), t=3)}, 2 * np.eye(1))
    elif case == "kraus count not an integer":
        rows[1] = Equation({0: Read(np.eye(2), t=2.0)}, 2 * np.eye(1))
    elif case == "kraus count below one":
        rows[1] = Equation({0: Read(np.eye(2)[:, :0], t=0)}, 2 * np.eye(1))
    elif case == "frameless kraus count above one":
        rows[0] = Equation({0: Read(t=2)}, np.eye(2))
    elif case == "lift blocks past the block":
        rows[1] = Equation({0: Lift(1, at=1, t=2)}, 2 * np.eye(1))
    elif case == "trace of the wrong dimension":   # a 3-dim traced factor of a 2-dim block
        rows[1] = Equation({0: Lift(1, t=3)}, 2 * np.eye(1))
    elif case == "trace of a non-integer factor":
        rows[1] = Equation({0: Lift(1, t=2.0)}, 2 * np.eye(1))
    elif case == "non-integer block dimension":
        blocks = [Block(2.0)]
    elif case == "complex scale":
        rows[0] = Equation({0: Read(frame, scale=1j)}, np.eye(1))
    elif case == "string scale":
        rows[1] = Equation({0: Lift(1, "2", t=2)}, 2 * np.eye(1))
    elif case == "object frame":
        rows[0] = Equation({0: Read(frame.astype(object))}, np.eye(1))
    elif case == "string rhs":
        rows[1] = Equation(rows[1].terms, np.array([["2"]]))
    elif case == "lift of a non-integer factor":
        rows[0] = Equation({0: Lift(2.0)}, np.eye(2))
    elif case == "lift at a non-integer index":
        rows[0] = Equation({0: Lift(2, at=0.5)}, np.eye(2))
    elif case == "objective larger than the block":
        objective = [np.eye(3)]
    elif case == "objective a row":
        objective = [np.ones((1, 4))]
    elif case == "non-Hermitian rhs":
        rows[0] = Equation({0: Read()}, np.array([[1.0, 0.5], [0.0, 1.0]]))
    elif case == "non-Hermitian objective":
        objective = [np.array([[1.0, 1.0], [0.0, 1.0]])]
    elif case == "unknown term":                   # a dense matrix is neither Read nor Lift
        rows[0] = Equation({0: np.eye(2)}, np.eye(1))
    return SdpProblem(blocks, objective, rows)


class TestMalformedPrograms:
    """solve rejects malformed data before iterating, with a ValidationError."""

    CASES = ["nan rhs", "inf objective", "nan kraus frame", "nan entry weight",
             "nan frame", "frame rows differ from the block", "block index past the end",
             "negative block index",
             "short objective list", "negative entry index", "entry index past the frame",
             "rhs not square", "map of the wrong shape", "kraus count not an integer",
             "kraus count below one", "frameless kraus count above one",
             "lift blocks past the block", "trace of the wrong dimension",
             "trace of a non-integer factor", "lift of a non-integer factor",
             "lift at a non-integer index", "non-integer block dimension", "complex scale",
             "string scale", "object frame", "string rhs",
             "objective larger than the block", "objective a row", "non-Hermitian rhs",
             "non-Hermitian objective", "unknown term"]

    def test_well_formed_program_solves(self):
        sol = solve(_bad_program("none"))
        assert sol.optimal and sol.primal_value == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("case", CASES)
    def test_solve_rejects(self, case):
        with pytest.raises(ValidationError):
            solve(_bad_program(case))


class TestFramedBlocks:
    def test_framed_block_matches_dense_coefficients(self):
        # a 2x2 block X on a plane theta in R^3 and a nonnegative slack s, the
        # diagonal of a 3x3 block, with (theta X theta^T)[i, i] + s_i = c_i,
        # maximizing tr X; once through Reads framed by columns of theta^T,
        # once through their dense matrices theta_i theta_i^T, read as the Kraus
        # operators sqrt(w) v of their eigendecompositions (t = 2)
        rng = np.random.default_rng(3)
        theta, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        frame = theta.T
        c = np.array([1.0, 2.0, 3.0])

        def kraus(A):
            w, V = np.linalg.eigh(A)
            return Read(V * np.sqrt(np.maximum(w, 0.0)), t=2)

        def program(dense):
            cons = []
            for i in range(3):
                row = kraus(np.outer(theta[i], theta[i])) if dense else Read(frame[:, [i]])
                cons.append(Equation({0: row, 1: Lift(1, at=i)}, np.array([[c[i]]])))
            return SdpProblem([Block(2), Block(3)], [np.eye(2), None], cons)

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


def _coefficients(problem):
    """Each row's dense coefficient per block, probed from the terms' forward
    maps: for a row reading ``Re(w H[i, j])``, ``A[b, a] = l(term(E_ab))`` with
    the complex-linear ``l(H) = (w H[i, j] + conj(w) H[j, i]) / 2``."""
    real = problem.real
    out = []
    for terms, rhs in problem.constraints:
        p = len(rhs)
        for i, j, kind in _entries(p, real):
            w = 1.0 if kind == "re" else -1j
            row = {}
            for bi, t in terms.items():
                n = problem.blocks[bi].dim
                A = np.zeros((n, n), dtype=complex)
                for a in range(n):
                    for b in range(n):
                        E = np.zeros((n, n), dtype=complex)
                        E[a, b] = 1.0
                        H = t.apply(E, p)
                        A[b, a] = 0.5 * (w * H[i, j] + np.conj(w) * H[j, i])
                row[bi] = A
            out.append(row)
    return out


def _brute_schur(problem, Ws):
    """``sum_b <A_k, W_b A_l W_b>`` from the dense matrix of every coefficient."""
    dense = _coefficients(problem)
    m = problem.num_constraints
    assert len(dense) == m
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
_CQ_BUILDERS = {
    "upsilon": lambda C: cap.build_cq_problem(C, hat=False),
    "hat": lambda C: cap.build_cq_problem(C, hat=True),
    "aram": lambda C: cap.build_aram_problem(gs.ncgraph_from_cq(C)),    # as aram_cq solves it
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
        _, families, dtype, _, _ = _preprocess(problem)
        rng = np.random.default_rng(seed)
        Ws = []
        for blk in problem.blocks:
            G = rng.standard_normal((blk.dim, blk.dim))
            if dtype == np.complex128:
                G = G + 1j * rng.standard_normal((blk.dim, blk.dim))
            Ws.append(G @ G.conj().T + 0.1 * np.eye(blk.dim))
        M = np.zeros((problem.num_constraints,) * 2)
        _schur(families, Ws, M)
        want = _brute_schur(problem, Ws)
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("graph", sorted(_NC_GRAPHS))
    @pytest.mark.parametrize("builder", sorted(_NC_BUILDERS))
    def test_nc_builders(self, builder, graph):
        problem = _NC_BUILDERS[builder](_NC_GRAPHS[graph]())
        self._compare(problem, seed=7)

    @pytest.mark.parametrize("graph", sorted(_CQ_GRAPHS))
    @pytest.mark.parametrize("variant", ["upsilon", "hat", "aram"])
    def test_cq_builders(self, variant, graph):
        problem = _CQ_BUILDERS[variant](_CQ_GRAPHS[graph]())
        self._compare(problem, seed=8)

    @pytest.mark.parametrize("real", [False, True])
    def test_kraus_families(self, real):
        # one 7-dim block read through 2 and 3 Kraus operators, and lifted from the
        # sum of 3 principal blocks, in equations that also lift and read a 2-dim block
        rng = np.random.default_rng(32)
        F2, F3 = (rng.standard_normal((7, 6)) + (0 if real else 1j * rng.standard_normal((7, 6)))
                  for _ in range(2))
        problem = SdpProblem([Block(7), Block(2)], [_random_herm(rng, 7, real), None], [
            Equation({0: Read(F2, 0.5, t=2), 1: Lift(3, at=0)}, np.eye(3)),
            Equation({0: Read(F3, -1.0, t=3)}, np.eye(2)),
            Equation({0: Lift(2, -1.0, at=1, t=3), 1: Read()}, np.eye(2))])
        _, families, dtype, _, _ = _preprocess(problem)
        assert sorted((f.t, f.G is None) for f in families if f.b == 0) == [
            (2, False), (3, False), (3, True)]
        assert (dtype == np.float64) == real
        self._compare(problem, seed=10)

    @pytest.mark.parametrize("real", [False, True])
    def test_families_of_one_two_and_three_entries(self, real):
        # one 6-dim block read whole (t = 1), and through the partial traces over
        # a 2-dim (t = 2) and a 3-dim (t = 3) first factor
        C = _random_herm(np.random.default_rng(29), 6, real)
        problem = SdpProblem([Block(6)], [C], [
            Equation({0: Read()}, np.eye(6)), Equation({0: Lift(1, t=2)}, np.eye(3)),
            Equation({0: Lift(1, t=3)}, np.eye(2))])
        _, families, dtype, _, _ = _preprocess(problem)
        assert sorted(f.t for f in families) == [1, 2, 3]
        assert (dtype == np.float64) == real
        self._compare(problem, seed=9)

    def test_two_frames_on_one_block(self):
        # a rank-deficient output puts unframed coupling rows and
        # theta^dag-framed marginal rows on the same kernel block
        problem = cap.build_cq_problem(random_cq_graph(1), hat=True)
        _, families, _, _, _ = _preprocess(problem)
        kernels = [b for b, t in problem.constraints[-1].terms.items()
                   if isinstance(t, Read) and t.frame is not None]
        assert kernels
        assert all(sum(f.b == b for f in families) == 2 for b in kernels)


class TestBitIdentities:
    """The identities by which an iteration computes each quantity once and its
    solves stay bit for bit those that compute it again."""

    PROGRAMS = {f"{name}, {g}": (builders[name], graphs[g])
                for graphs, builders in ((_NC_GRAPHS, _NC_BUILDERS), (_CQ_GRAPHS, _CQ_BUILDERS))
                for g in graphs for name in builders}

    def test_the_programs_cover_every_kind_of_family(self):
        kinds = set()
        for build, graph in self.PROGRAMS.values():
            problem = build(graph())
            for terms, _ in problem.constraints:
                kinds |= {(type(t).__name__, t.t > 1, getattr(t, "at", 0) > 0,
                           getattr(t, "frame", None) is not None, problem.real)
                          for t in terms.values()}
        for real in (True, False):
            assert ("Lift", True, False, False, real) in kinds
            assert ("Read", True, False, True, real) in kinds
            assert ("Read", False, False, True, real) in kinds
        assert any(k[:3] == ("Lift", False, True) for k in kinds)

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_pairing_of_the_negation(self, program):
        # each read is odd, bit for bit up to the sign of a zero, and a row's
        # pairing adds to +0.0: the predictor's pair_all(-X) is 0.0 - pair_all(X)
        build, graph = self.PROGRAMS[program]
        problem = build(graph())
        C, families, dtype, b, _ = _preprocess(problem)
        rng = np.random.default_rng(43)
        V = [_herm(_random_herm(rng, blk.dim, dtype == np.float64)) for blk in problem.blocks]
        neg = [-v for v in V]
        for f in families:
            assert (0.0 + f.read(neg[f.b])).tobytes() == (0.0 - f.read(V[f.b])).tobytes()
        paired = _pair_all(families, V, len(b))
        assert _pair_all(families, neg, len(b)).tobytes() == (0.0 - paired).tobytes()
        # the objective, symmetrized once, is the program's own
        for c, raw in zip(C, problem.objective):
            if raw is not None:
                assert c.tobytes() == _cast(np.asarray(raw), dtype).tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_update_of_hermitian_terms_is_hermitian(self, real):
        # X + a dX and Z + b dZ, dZ = A*(y) - (C + Z - A*(y)), from _herm outputs
        # and the identity start, need no second _herm; half of the complex cases
        # have zero imaginary parts, and some directions zero rows
        rng = np.random.default_rng(44)
        for d in range(1, 10):
            for case in range(24):
                X, dX, C, Ay = (_herm(_random_herm(rng, d, real)) for _ in range(4))
                if not real and case % 2:
                    X, dX = _herm(X.real + 0j), _herm(dX.real + 0j)
                if case % 3 == 0:
                    dX[0], dX[:, 0] = 0.0, 0.0
                if case % 4 == 0:
                    X = np.eye(d, dtype=X.dtype) * 1.7
                a = 1.0 if case % 5 == 0 else rng.uniform(1e-6, 1.0)
                for x, dx in ((X, dX), (X, Ay - (C + X - Ay))):
                    U = x + a * dx
                    assert _herm(U).tobytes() == U.tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_direct_eigendecomposition_is_numpys(self, real):
        rng = np.random.default_rng(45)
        for d in range(1, 41):
            A = _herm(_random_herm(rng, d, real))
            for M in (A, A @ A.conj().T):        # indefinite, and PSD
                w, V = _eigh(M)
                w0, V0 = np.linalg.eigh(M)
                assert w.tobytes() == w0.tobytes() and V.tobytes() == V0.tobytes()
                assert V.flags.c_contiguous


def _with_path(monkeypatch, path):
    """Send every qualifying program (any size) to the core path, or none."""
    monkeypatch.setattr(sdpsolver, "_CORE_MIN_ROWS", 0 if path == "core" else math.inf)


def _duplicated_marginal(K, rhs2):
    """The Upsilon-hat program with its output-marginal equation stated twice, the
    second time with right-hand side ``rhs2``: dependent rows outside the core."""
    prob = cap.build_upsilon_problem(K, hat=True)
    marginal, coupling = prob.constraints
    prob.constraints = [marginal, Equation(marginal.terms, rhs2), coupling]
    return prob


def _k16():
    """A random 2 -> 8 channel's graph: Upsilon has n = 16 and m = 320, above the crossover."""
    return random_graph(RandomChannelSpec(2, 8, 2, 7))


def _lemma2_graph():
    """delta(2) x delta(3), whose Upsilon-hat `nszcap verify` solves in every lemma-2
    check: n = 36 and, in real arithmetic, m = 687, above the crossover."""
    return gs.tensor_graph(delta(2), delta(3))


def _kraus_marginal(K):
    """The Upsilon-hat program with tr_A U stated as a Read of its d_A Kraus
    operators ``<a| (x) 1_B`` instead of a Lift."""
    prob = cap.build_upsilon_problem(K, hat=True)
    marginal, coupling = prob.constraints
    terms = {**marginal.terms, 1: Read(np.eye(K.dim), t=K.d_A)}
    return SdpProblem(prob.blocks, prob.objective, [Equation(terms, marginal.rhs), coupling])


def _nt_points(monkeypatch, prob):
    """Solve ``prob`` on the core path, recording at each iteration the NT point
    (Ws, Gs) and the right-hand sides of the Newton solves made there."""
    points = []
    reduce, core_solve = _CoreNewton.reduce, _CoreNewton.solve

    def spy_reduce(self, Ws, Gs):
        points.append(([W.copy() for W in Ws], [G.copy() for G in Gs], []))
        return reduce(self, Ws, Gs)

    def spy_solve(self, r):
        points[-1][2].append(r.copy())
        return core_solve(self, r)

    monkeypatch.setattr(_CoreNewton, "reduce", spy_reduce)
    monkeypatch.setattr(_CoreNewton, "solve", spy_solve)
    sol = solve(prob)
    monkeypatch.undo()
    return sol, points


def _explicit_columns(prob, core, Ws, Gs, extended=False):
    """The core path's Woodbury columns ``T_l(G_l Z G_l^dag)`` over the orthonormal
    basis Z of each low term's block, and each other row's cross column
    ``sum_b t_b(W_b A_f W_b)`` over the core terms t_b, read through ``F^dag . F``;
    ``extended``: in extended precision, from the same double inputs."""
    terms, rows, F = prob.constraints[-1].terms, core.rows, core.F
    if extended:
        F, Ws, Gs = (F.astype(np.clongdouble), [W.astype(np.clongdouble) for W in Ws],
                     [G.astype(np.clongdouble) for G in Gs])

    def read(H):
        return (core.wt * rows.read(np.conj(F).T @ H @ F)).T

    V = []
    for bi, t in terms.items():
        if bi not in (core.u, core.w):
            basis = _Rows(prob.blocks[bi].dim, rows.real)
            Z = basis.matrix(np.diag(np.sqrt(basis.norm2)))
            V.append(read(t.apply(Gs[bi] @ Z @ np.conj(Gs[bi]).T, rows.p)))
    C = np.zeros((len(rows), core.m1))
    for f in core.others:
        if f.b in terms:
            for k in f.k:
                A = np.zeros_like(Ws[f.b])
                f.scatter(np.eye(core.m)[k], A)
                C[:, k] += read(terms[f.b].apply(Ws[f.b] @ _herm(A) @ Ws[f.b], rows.p))
    return np.concatenate(V, axis=1), C


class TestNewtonOracle:
    """The core path solves the Newton system M dy = r that the dense path
    factors: at the NT points of a real solve, its relative residual in M is
    within 100 times the dense path's, plus 1e-12."""

    @pytest.mark.parametrize("program", [
        lambda: cap.build_upsilon_problem(_k16(), hat=True),
        lambda: cap.build_upsilon_problem(_lemma2_graph(), hat=True),
        lambda: cap.build_upsilon_hat_dual_problem(_lemma2_graph()),     # m = 486
        lambda: _kraus_marginal(_k16()),
    ], ids=["k16", "lemma2", "lemma2 dual", "map marginal"])
    def test_core_matches_dense_at_nt_points(self, monkeypatch, program):
        prob = program()
        _, families, _, b, rows = _preprocess(prob)
        sol, points = _nt_points(monkeypatch, prob)
        assert sol.optimal and {r["path"] for r in sol.trace} == {"core"}
        assert len(points) == sol.iterations - 1           # endgame included

        core = _CoreNewton.find(prob, families, rows)
        for Ws, Gs, rhs in points:
            M = np.zeros((len(b),) * 2)
            _schur(families, Ws, M)
            dense = _Pivoted(0.5 * (M + M.T))
            fast = core.factor(core.reduce(Ws, Gs))
            for r in rhs:
                res = [np.linalg.norm(M @ f.solve(r) - r) / np.linalg.norm(r)
                       for f in (dense, fast)]
                assert res[1] <= 100 * res[0] + 1e-12

    @staticmethod
    def _column_errors(monkeypatch, prob, extended=False):
        """Per NT point of a solve of ``prob``: the largest deviation of the core
        path's V and C from :func:`_explicit_columns`, relative to its largest entry."""
        _, families, _, _, rows = _preprocess(prob)
        sol, points = _nt_points(monkeypatch, prob)
        assert sol.optimal
        core = _CoreNewton.find(prob, families, rows)
        errors = []
        for Ws, Gs, _ in points:
            core.reduce(Ws, Gs)
            got = core.columns(Ws, Gs, core.F)
            want = _explicit_columns(prob, core, Ws, Gs, extended)
            assert [A.shape for A in got] == [B.shape for B in want]
            errors.append([float(np.abs(A - B).max() / np.abs(B).max()) for A, B in zip(got, want)])
        return np.array(errors)

    @pytest.mark.parametrize("program", [
        lambda: cap.build_upsilon_problem(_k16(), hat=False),
        lambda: cap.build_upsilon_problem(_k16(), hat=True),
        lambda: cap.build_upsilon_problem(_lemma2_graph(), hat=False),
        lambda: cap.build_upsilon_problem(_lemma2_graph(), hat=True),
        lambda: cap.build_upsilon_hat_dual_problem(_lemma2_graph()),
        lambda: _kraus_marginal(_k16()),
    ], ids=["upsilon k16", "upsilon_hat k16", "upsilon lemma2", "upsilon_hat lemma2",
            "dual lemma2", "map marginal"])
    def test_columns_match_explicit_construction(self, monkeypatch, program):
        # the Woodbury and cross columns, read from Gram and outer products of the
        # terms' Kraus operators, equal the columns built term by term
        assert self._column_errors(monkeypatch, program()).max() <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double has no extra precision on this platform")
    def test_columns_at_ill_conditioned_frames(self, monkeypatch):
        # on the k16 hat-dual, F^dag (A + B) F = 1 with a large cond(A + B) takes
        # cond(F) to about 7e3: against an extended-precision construction the Gram
        # columns stay within 1.2e-12, where the term-by-term one in doubles drifts
        # to 1.7e-9
        prob = cap.build_upsilon_hat_dual_problem(_k16())
        assert self._column_errors(monkeypatch, prob, extended=True).max() <= 1e-11

    @pytest.mark.parametrize("rhs2,status", [(1.0, "optimal"), (2.0, "numerical-failure")],
                             ids=["consistent", "inconsistent"])
    def test_dependent_border_rows(self, monkeypatch, rhs2, status):
        K = _k16()
        prob = _duplicated_marginal(K, rhs2 * np.eye(K.d_B))
        sols = {}
        for path in ("dense", "core"):
            _with_path(monkeypatch, path)
            sols[path] = solve(prob)
            first = sols[path].trace[0]
            assert first["path"] == path and first["rank"] < first["size"]
        assert sols["core"].trace[0]["size"] == 2 * K.d_B ** 2    # the border: both marginals
        assert sols["dense"].status == sols["core"].status == status
        if status == "optimal":
            assert sols["core"].primal_value == pytest.approx(sols["dense"].primal_value, rel=1e-8)

    def test_linalg_error_ends_the_solve(self, monkeypatch):
        # a failed factorisation inside the core path ends the solve with a typed
        # status, the best iterate and the trace, not a traceback
        reduce, calls = _CoreNewton.reduce, []

        def failing_reduce(self, Ws, Gs):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("not positive definite")
            return reduce(self, Ws, Gs)

        monkeypatch.setattr(_CoreNewton, "reduce", failing_reduce)
        sol = solve(cap.build_upsilon_problem(_k16(), hat=True))
        assert sol.status == "numerical-failure" and sol.iterations == 3
        assert len(sol.trace) == 3 and {r["path"] for r in sol.trace} == {"core"}
        assert sol.trace[-1]["size"] is None and np.isfinite(sol.primal_value)

    def test_lemma2_instance_agrees(self, monkeypatch):
        # the one solve of `nszcap verify` that takes the core path at the default
        # crossover; forced onto the dense path, it reaches the same solution
        prob = cap.build_upsilon_problem(_lemma2_graph(), hat=True)
        core = solve(prob)
        _with_path(monkeypatch, "dense")
        dense = solve(prob)
        assert {r["path"] for r in core.trace} == {"core"}
        assert {r["path"] for r in dense.trace} == {"dense"}
        assert dense.optimal and core.optimal
        assert core.primal_value == pytest.approx(dense.primal_value, rel=1e-8)
        assert core.primal_value == pytest.approx(6.0, rel=1e-8)     # lemma 2: 3 x 2
        assert abs(core.iterations - dense.iterations) <= 1

    @pytest.mark.parametrize("graph", ["delta(2)", "amplitude-damping(0.75)", "complex 3->2"])
    @pytest.mark.parametrize("builder", ["upsilon", "upsilon_hat"])
    def test_small_programs_agree(self, monkeypatch, builder, graph):
        # below the crossover these programs take the dense path; forced onto the
        # core path (real and complex), they reach the same solution
        prob = _NC_BUILDERS[builder](_NC_GRAPHS[graph]())
        sols = {}
        for path in ("dense", "core"):
            _with_path(monkeypatch, path)
            sols[path] = solve(prob)
            assert {r["path"] for r in sols[path].trace} == {path}
        dense, core = sols["dense"], sols["core"]
        assert dense.optimal and core.optimal
        assert core.primal_value == pytest.approx(dense.primal_value, rel=1e-8, abs=1e-8)
        assert abs(core.iterations - dense.iterations) <= 1


@pytest.mark.parametrize("term,dim,p", [
    (Read(), 4, 4),
    (Read(np.arange(24.0).reshape(4, 6) / 10, 0.7, t=3), 4, 2),
    (Lift(3, -1.0), 2, 6),
    (Lift(2, 0.5, at=1, t=2), 6, 4),
    (Lift(1, t=3), 6, 2),
], ids=["frameless", "framed t=3", "S-lift", "lift at=1 t=2", "partial trace"])
@pytest.mark.parametrize("real", [False, True])
def test_kraus_operators_reproduce_the_term(term, dim, p, real):
    # the core path's Kraus operators Theta_a of a term: scale sum_a Theta_a^dag X Theta_a
    # is the term's own map, on a stack
    rng = np.random.default_rng(32)
    X = _random_herm(rng, dim, real, stack=(2,))
    Th = sdpsolver._kraus(term, dim, p, np.float64 if real else np.complex128)
    got = term.scale * np.einsum("xap,...xy,yaq->...pq", np.conj(Th), X, Th)
    assert_allclose(got, term.apply(X, p), atol=1e-12)


class TestCoreRule:
    """The core path is chosen from the program's structure and its row count alone."""

    @pytest.mark.parametrize("builder,qualifies", [
        ("upsilon", True), ("upsilon_hat", True),
        ("upsilon_hat_dual", True),       # Y1 and T also sit in the input-marginal equation
        ("aram", False),                  # no second Read: den is 1 everywhere
    ])
    def test_nc_builders(self, monkeypatch, builder, qualifies):
        prob = _NC_BUILDERS[builder](_k16())
        _, families, _, _, rows = _preprocess(prob)
        _with_path(monkeypatch, "core")
        assert (_CoreNewton.find(prob, families, rows) is not None) == qualifies

    @pytest.mark.parametrize("variant", ["upsilon", "hat", "aram"])
    def test_cq_builders(self, monkeypatch, variant):
        # the marginal equation holds most rows, but its right-hand side is 1_B, not 0
        _with_path(monkeypatch, "core")
        prob = _CQ_BUILDERS[variant](random_cq_graph(1))
        _, families, _, _, rows = _preprocess(prob)
        assert _CoreNewton.find(prob, families, rows) is None


    def test_nonzero_core_rhs_takes_the_dense_path(self):
        # the same Upsilon-hat program with a nonzero coupling rhs
        prob = cap.build_upsilon_problem(_k16(), hat=True)
        _, families, _, _, rows = _preprocess(prob)
        assert _CoreNewton.find(prob, families, rows) is not None
        marginal, coupling = prob.constraints
        n = len(coupling.rhs)
        prob.constraints = [marginal, Equation(coupling.terms, np.eye(n) / n)]
        _, families, _, _, rows = _preprocess(prob)
        assert _CoreNewton.find(prob, families, rows) is None

    def test_marginal_read_through_a_map_takes_the_core_path(self):
        # the same Upsilon-hat program with tr_A U stated as a Read of d_A Kraus
        # operators: the core path reads the other rows' framed family on u
        K = _k16()
        prob, mapped = cap.build_upsilon_problem(K, hat=True), _kraus_marginal(K)
        for problem in (prob, mapped):
            _, families, _, _, rows = _preprocess(problem)
            assert _CoreNewton.find(problem, families, rows) is not None
        sol, want = solve(mapped), solve(prob)
        assert {r["path"] for r in sol.trace} == {"core"}
        assert sol.optimal and sol.primal_value == pytest.approx(want.primal_value, rel=1e-8)
        assert sol.iterations == want.iterations

    def test_core_equation_last(self):
        # the other rows are ids 0..m1-1 only when the core equation comes last
        prob = cap.build_upsilon_problem(_k16(), hat=True)
        prob.constraints = prob.constraints[::-1]
        _, families, _, _, rows = _preprocess(prob)
        assert _CoreNewton.find(prob, families, rows) is None

    @pytest.mark.parametrize("extra,qualifies", [
        # U[3, 3] joins the core equation's t = 1 family on U, which then holds rows of both
        (lambda n, dA: Equation({1: Lift(1, at=3)}, np.eye(1)), False),
        # the same entry read through a frame has a family of its own
        (lambda n, dA: Equation({1: Read(np.eye(n)[:, 3:4])}, np.eye(1)), True),
        # other rows on S, which the core equation lifts
        (lambda n, dA: Equation({0: Read(np.eye(dA))}, np.eye(dA)), False),
    ], ids=["row in a core family", "row in a family of its own", "rows on a lifted block"])
    def test_other_rows_on_core_blocks(self, monkeypatch, extra, qualifies):
        # an extra equation before the core equation of Upsilon-hat (blocks S, U, W, Y)
        _with_path(monkeypatch, "core")
        K = random_graph(RandomChannelSpec(4, 4, 2, 7))
        prob = cap.build_upsilon_problem(K, hat=True)
        *others, core = prob.constraints
        prob.constraints = [*others, extra(K.dim, K.d_A), core]
        _, families, _, _, rows = _preprocess(prob)
        assert 2 * len(rows[-1]) > sum(map(len, rows))    # the core equation holds most rows
        assert (_CoreNewton.find(prob, families, rows) is not None) == qualifies


class TestTrace:
    @pytest.mark.parametrize("name,problem,path", [
        ("upsilon n = 16", lambda: cap.build_upsilon_problem(_k16(), hat=False), "core"),
        ("upsilon_hat n = 16", lambda: cap.build_upsilon_problem(_k16(), hat=True), "core"),
        ("upsilon n = 16, m = 272", lambda: cap.build_upsilon_problem(
            random_graph(RandomChannelSpec(4, 4, 2, 7)), hat=False), "core"),
        # m = 153, below the crossover _CORE_MIN_ROWS = 160
        ("upsilon n = 12, m = 153", lambda: cap.build_upsilon_problem(
            random_graph(RandomChannelSpec(4, 3, 2, 7)), hat=False), "dense"),
        # m = 200, above the crossover
        ("upsilon_hat_dual n = 16", lambda: cap.build_upsilon_hat_dual_problem(_k16()), "core"),
        ("upsilon_hat_dual lemma 2", lambda: cap.build_upsilon_hat_dual_problem(_lemma2_graph()),
         "core"),
        ("aram n = 16", lambda: cap.build_aram_problem(_k16()), "dense"),
        ("cq", lambda: cap.build_cq_problem(random_cq_graph(1), hat=True), "dense"),
    ])
    def test_one_record_per_iteration(self, name, problem, path):
        sol = solve(problem())
        assert sol.optimal
        assert len(sol.trace) == sol.iterations
        assert all(r["path"] == path for r in sol.trace)
        m = sol.trace[0]["size"]
        if path == "dense":
            assert m == problem().num_constraints
        for r in sol.trace[:-1]:
            assert 0 < r["rank"] <= r["size"] and 0 < r["alpha_p"] <= 1 and 0 < r["alpha_d"] <= 1
            assert r["mu"] > 0 and r["sigma"] >= 0
        last = sol.trace[-1]
        assert last["gap"] == sol.gap and last["pinf"] == sol.primal_residual
        assert last["size"] is None                       # converged before its step

    def test_capacity_result_and_failure_carry_the_trace(self, monkeypatch):
        K = ncgraph_from_channel(example4_channel(0.75))
        res = cap.upsilon_hat(K)
        assert len(res.trace) == res.iterations
        monkeypatch.setattr(sdpsolver, "MAX_ITER", 3)
        with pytest.raises(SolverFailure) as info:
            cap.upsilon_hat(K)
        last = info.value.solution.trace[-1]
        assert len(info.value.solution.trace) == 3
        assert str(info.value).endswith(f"rank {last['rank']}")
        assert f"path {last['path']}" in str(info.value)


class TestPhaseTimes:
    def test_phases_cover_the_solve(self):
        K = ncgraph_from_channel(example4_channel(0.75))
        prob = build_upsilon_problem(K, hat=True)
        t0 = time.perf_counter()
        sol = solve(prob)
        wall = time.perf_counter() - t0
        assert set(sol.phase_s) == {"scaling", "schur", "factor", "newton", "step"}
        assert all(v >= 0.0 for v in sol.phase_s.values())
        assert sum(sol.phase_s.values()) <= wall
