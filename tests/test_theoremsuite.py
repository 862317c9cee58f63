import multiprocessing
import os
import threading

import numpy as np
import pytest

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap import theoremsuite as ts
from nszcap.graphspace import DimensionLimitError, NCGraph
from nszcap.matrixcore import ValidationError
from nszcap.theoremsuite import (
    CapacityCache,
    _compare,
    RandomChannelSpec,
    check_corollary6,
    check_lemma2,
    check_main_theorem,
    check_prop11,
    check_sandwich,
    check_theorem5,
    check_theorem7,
    check_theorem9,
    random_channel,
    random_cq_graph,
    run_suite,
)


@pytest.fixture(scope="module")
def cache():
    return CapacityCache()


@pytest.fixture(scope="module")
def ex4():
    return gs.ncgraph_from_channel(gs.example4_channel(0.75))


def rand_graph(seed, d_in=2, d_out=2, k=2):
    return gs.ncgraph_from_channel(random_channel(RandomChannelSpec(d_in, d_out, k, seed)))


class TestRandomChannels:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_preserving(self, seed):
        spec = RandomChannelSpec(3, 2, 2, seed)
        ch = random_channel(spec)
        gram = sum(E.conj().T @ E for E in ch.kraus)
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_deterministic(self):
        a = random_channel(RandomChannelSpec(2, 2, 2, 42))
        b = random_channel(RandomChannelSpec(2, 2, 2, 42))
        for E, F in zip(a.kraus, b.kraus):
            assert np.array_equal(E, F)

    def test_rejects_impossible_shape(self):
        with pytest.raises(ValidationError):
            RandomChannelSpec(3, 2, 1, 0)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_cq_valid(self, seed):
        C = random_cq_graph(seed)
        assert 2 <= C.num_inputs <= 4
        assert 2 <= C.d_B <= 3


def test_compare_rejects_unknown_relation():
    with pytest.raises(ValidationError):
        _compare(1.0, 1.0, "lt", 1e-6)


class TestLemma2:
    def test_example4(self, ex4, cache):
        c = check_lemma2(ex4, 2, "example4", cache)
        assert c.passed
        assert c.lhs == pytest.approx(8 / 3, abs=1e-5)

    def test_noiseless(self, cache):
        c = check_lemma2(gs.delta(2), 3, "delta(2)", cache)
        assert c.passed
        assert c.lhs == pytest.approx(6.0, abs=1e-5)

    def test_random(self, cache):
        assert check_lemma2(rand_graph(20), 2, "rnd", cache).passed


class TestMainTheorem:
    def test_example4(self, ex4, cache):
        c = check_main_theorem(ex4, "example4", cache)
        assert c.passed
        assert c.lhs == pytest.approx(4 / 3, abs=1e-5)

    def test_noiseless(self, cache):
        c = check_main_theorem(gs.delta(2), "delta(2)", cache)
        assert c.passed
        assert c.rhs == pytest.approx(2.0, abs=1e-6)

    def test_amplitude_damping(self, cache):
        K = gs.ncgraph_from_channel(gs.amplitude_damping_channel(0.75))
        c = check_main_theorem(K, "damping", cache)
        assert c.passed
        assert c.rhs >= 9 / 8 - 1e-6


class TestTheorem5:
    def test_noiseless_bit_activates(self, ex4, cache):
        c = check_theorem5(ex4, gs.delta(2), "ex4|delta2", cache)
        assert c.passed and not c.vacuous
        assert c.lhs == pytest.approx(8 / 3, abs=1e-5)

    def test_trivial_helper_vacuous(self, ex4, cache):
        c = check_theorem5(ex4, gs.delta(1), "ex4|delta1", cache)
        assert c.passed and c.vacuous

    def test_random_isometry_helper(self, cache):
        K1 = rand_graph(21, 2, 2, 2)
        K2 = rand_graph(22, 2, 2, 1)   # unitary channel: one-shot value 4 >= 2
        c = check_theorem5(K1, K2, "rnd pair", cache)
        assert c.passed and not c.vacuous


class TestCorollary6:
    def test_noiseless_bit(self, cache):
        c = check_corollary6(gs.delta(2), "delta(2)", cache)
        assert c.passed and not c.vacuous
        assert c.lhs == pytest.approx(4.0, abs=1e-5)

    def test_example4_below_threshold(self, ex4, cache):
        c = check_corollary6(ex4, "example4", cache)
        assert c.passed and c.vacuous

    def test_random_above_threshold(self, cache):
        K = rand_graph(23, 2, 2, 1)
        c = check_corollary6(K, "unitary", cache)
        assert c.passed and not c.vacuous


class TestTheorem7:
    def test_example4_pair(self, ex4, cache):
        c = check_theorem7(ex4, ex4, "ex4+ex4", cache)
        assert c.passed
        assert c.lhs == pytest.approx(8 / 3, abs=1e-5)

    def test_trivial_pair(self, cache):
        c = check_theorem7(gs.delta(1), gs.delta(1), "d1+d1", cache)
        assert c.passed
        assert c.lhs == pytest.approx(2.0, abs=1e-6)

    def test_random_mixed_dims(self, cache):
        c = check_theorem7(rand_graph(24, 2, 3, 2), rand_graph(25, 3, 2, 2),
                           "mixed", cache)
        assert c.passed

    def test_size_guard_before_direct_sum(self, ex4, monkeypatch):
        # the direct sum of two example4 graphs has Choi dimension 16, past the
        # limit: direct_sum refuses it before any graph is built or solved
        def unbuildable(*args):
            raise AssertionError("graph built past the size guard")
        monkeypatch.setattr(gs, "NCGraph", unbuildable)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "10")
        cache = CapacityCache()
        with pytest.raises(DimensionLimitError, match="Choi dimension 16"):
            check_theorem7(ex4, ex4, "ex4+ex4", cache)
        assert cache.solves == 0


class TestTheorem9:
    def test_amplitude_damping(self, cache):
        K = gs.ncgraph_from_channel(gs.amplitude_damping_channel(0.75))
        c = check_theorem9(K, "damping", cache)
        assert c.passed
        assert c.rhs == pytest.approx(10 / 9, abs=1e-9)

    def test_depolarizing_all_false(self, cache):
        K = gs.ncgraph_from_channel(gs.depolarizing_channel(2))
        assert check_theorem9(K, "depolarizing", cache).passed

    @pytest.mark.parametrize("seed", [26, 27, 28])
    def test_random(self, seed, cache):
        assert check_theorem9(rand_graph(seed, 2, 2, 2), f"rnd{seed}", cache).passed

    def test_criteria_solves_go_through_cache(self, ex4, monkeypatch):
        solved = []
        original = cap.upsilon_hat

        def counted(K):
            solved.append(K)
            return original(K)

        monkeypatch.setattr(cap, "upsilon_hat", counted)
        shared = CapacityCache()
        check_lemma2(ex4, 2, "ex4", shared)
        assert check_theorem9(ex4, "ex4", shared).passed
        assert sum(K is ex4 for K in solved) == 1


class TestProp11:
    def test_passes_with_margins(self, cache):
        c = check_prop11(cache)
        assert c.passed
        assert c.lhs - c.rhs >= 1e-3            # activated value beats packing
        assert c.rhs <= 1.1751 + 1e-4


class TestSandwich:
    def test_noiseless_bit(self, cache):
        c = check_sandwich(gs.delta(2), 2, "delta(2)", cache)
        assert c.passed and not c.vacuous
        assert c.lhs == pytest.approx(4.0, abs=1e-5)
        assert c.rhs == pytest.approx(4.0, abs=1e-5)

    def test_random_isometry(self, cache):
        c = check_sandwich(rand_graph(29, 2, 2, 1), 2, "unitary", cache)
        assert c.passed and not c.vacuous

    def test_n0_solve_goes_through_cache(self, monkeypatch):
        K = rand_graph(29, 2, 2, 1)
        solved = []
        original = cap.upsilon

        def counted(G):
            solved.append(G)
            return original(G)

        monkeypatch.setattr(cap, "upsilon", counted)
        shared = CapacityCache()
        assert check_corollary6(K, "unitary", shared).passed
        assert check_sandwich(K, 2, "unitary", shared).passed
        assert sum(G.dim == K.dim and np.array_equal(G.P_AB, K.P_AB) for G in solved) == 1

    def test_each_power_is_formed_once(self, monkeypatch):
        calls = []
        product = gs.tensor_graph

        def counted(K1, K2):
            calls.append(K1.dim * K2.dim)
            return product(K1, K2)
        monkeypatch.setattr(gs, "tensor_graph", counted)
        K = gs.ncgraph_from_channel(gs.amplitude_damping_channel(0.75))
        check_sandwich(K, 2, "damping", CapacityCache())
        assert calls == [16]

    def test_skip_when_n0_not_found(self, cache):
        K = gs.ncgraph_from_channel(gs.example4_channel(0.9))
        c = check_sandwich(K, 2, "weak", cache)
        assert c.passed and c.vacuous
        assert "n0 not found" in c.note

    # K.dim ** n = 16 is past the limit: delta(2) would find n0 = 1 within it,
    # amplitude damping none; the n-th power is built first, so neither solves
    @pytest.mark.parametrize("graph", ["amplitude-damping", "delta(2)"])
    def test_skip_on_dimension_guard(self, graph, monkeypatch):
        K = {"amplitude-damping": lambda: gs.ncgraph_from_channel(
                 gs.amplitude_damping_channel(0.75)),
             "delta(2)": lambda: gs.delta(2)}[graph]()
        monkeypatch.setenv("NSZCAP_MAX_DIM", "10")
        cache = CapacityCache()
        c = check_sandwich(K, 2, "guarded", cache)
        assert c.passed and c.vacuous
        assert "size guard" in c.note
        assert cache.solves == 0


class TestRunSuite:
    def test_builtins_only(self):
        report = run_suite(seeds=())
        assert not report.failures
        assert len(report.checks) >= 10

    def test_reproducible(self):
        r1 = run_suite(seeds=(7,), only="lemma2")
        r2 = run_suite(seeds=(7,), only="lemma2")
        assert [c.line() for c in r1.checks] == [c.line() for c in r2.checks]

    @pytest.mark.parametrize("only", ["lemma2", "corollary6"])
    def test_seeds_from_an_iterator(self, only):
        def instances(seeds):
            return [(c.name, c.instance) for c in run_suite(seeds=seeds, only=only).checks]
        assert instances(s for s in [1, 2]) == instances((1, 2))

    def test_only_filter(self):
        report = run_suite(seeds=(7,), only="theorem7")
        assert report.checks
        assert all(c.name == "theorem7" for c in report.checks)

    def test_corrupted_projection_is_input_error(self):
        with pytest.raises(ValidationError):
            NCGraph(2, 2, np.diag([0.4, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("only", ["theorem5", "corollary6", "sandwich"])
    def test_seeded_instances(self, only):
        report = run_suite(seeds=(2, 3), only=only)
        assert not report.failures
        assert any("seed=3" in c.instance for c in report.checks)

    def test_worker_pool_report_equals_the_inline_one(self, monkeypatch):
        def report(workers):
            monkeypatch.setattr(ts, "_solver_processes", lambda n_checks: workers)
            doc = run_suite(seeds=(1, 2, 3)).to_dict()
            assert doc.pop("workers") == workers
            del doc["elapsed_seconds"]
            for check in doc["checks"]:
                del check["elapsed_s"]
            return doc
        assert report(2) == report(1)

    def test_workers_fork_before_any_thread(self, monkeypatch):
        # a fork after threads start can deadlock the child (deprecated in 3.12)
        forks = []
        os.register_at_fork(before=lambda: forks.append(threading.active_count()))
        monkeypatch.setattr(ts, "_solver_processes", lambda n_checks: 2)
        assert run_suite(seeds=(7,), only="theorem7").workers == 2
        assert forks == [1, 1]
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    def test_report_serializes(self):
        report = run_suite(seeds=(), only="prop11")
        doc = report.to_dict()
        assert doc["num_checks"] == len(report.checks)
        assert isinstance(doc["checks"][0]["lhs"], float)
