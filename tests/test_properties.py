"""Seeded properties of the capacity programs on random channels.

Each property draws ``verify``-style seeds (graphs from ``_spec_from_seed``);
``derandomize=True`` makes the drawn examples the same on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap.theoremsuite import _spec_from_seed, random_graph

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
