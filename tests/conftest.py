import pytest

from nszcap import capacities as cap
from nszcap import graphspace as gs


@pytest.fixture(scope="session", autouse=True)
def warm_solver():
    # solve once before the timed tests so one-off import and first-call
    # costs are not charged to them
    cap.upsilon(gs.delta(2))
    K = gs.ncgraph_from_cq(gs.CqGraph([[[1.0, 0.0], [0.0, 0.0]]]))
    cap.upsilon_hat(K)
