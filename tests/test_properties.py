"""Seeded properties of the capacity programs on random channels.

Each property draws seeds of ``verify``-style graphs (``_spec_from_seed``) or
of ``random_cq_graph``; ``derandomize=True`` makes the drawn examples the same
on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap.theoremsuite import _spec_from_seed, random_cq_graph, random_graph

SEEDED = settings(max_examples=30, derandomize=True, deadline=None)
SEEDS = st.integers(min_value=1, max_value=10**6)


def _haar_unitary(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@SEEDED
@given(SEEDS)
def test_local_unitary_invariance(seed):
    # a complex U_A (x) V_B gives a complex kernel basis theta, so the kernel
    # slack is read through a complex frame theta^dag
    K = random_graph(_spec_from_seed(seed))
    rng = np.random.default_rng(seed)
    W = np.kron(_haar_unitary(rng, K.d_A), _haar_unitary(rng, K.d_B))
    KW = gs.NCGraph(K.d_A, K.d_B, W @ K.P_AB @ W.conj().T)
    for quantity in (cap.upsilon, cap.upsilon_hat):
        assert quantity(KW).value == pytest.approx(quantity(K).value, rel=1e-6)


@SEEDED
@given(SEEDS)
def test_activation_order_and_duality(seed):
    K = random_graph(_spec_from_seed(seed))
    hat = cap.upsilon_hat(K).value
    assert cap.upsilon(K).value <= hat + 1e-6
    assert cap.upsilon_hat_dual(K).value == pytest.approx(hat, rel=1e-6)


@SEEDED
@given(SEEDS)
def test_cq_path_equals_general_path(seed):
    # the cq programs against the general ones on the graph sum_i |i><i| (x) P_i
    C = random_cq_graph(seed)
    K = gs.ncgraph_from_cq(C)
    for cq, general in ((cap.upsilon_cq, cap.upsilon), (cap.upsilon_hat_cq, cap.upsilon_hat),
                        (cap.aram_cq, cap.aram)):
        assert cq(C).value == pytest.approx(general(K).value, rel=1e-6)
