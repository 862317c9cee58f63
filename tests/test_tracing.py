"""The benchmark's trace mode reads the solver's programs: its counts must match them."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nszcap import capacities as cap
from nszcap import graphspace as gs
from nszcap import sdpsolver
from nszcap.theoremsuite import RandomChannelSpec, random_cq_graph, random_graph

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

_PROGRAMS = {
    "upsilon": lambda K, C: cap.build_upsilon_problem(K, hat=False),
    "upsilon_hat": lambda K, C: cap.build_upsilon_problem(K, hat=True),
    "upsilon_hat_dual": lambda K, C: cap.build_upsilon_hat_dual_problem(K),
    "aram": lambda K, C: cap.build_aram_problem(K),
    "cq_upsilon": lambda K, C: cap.build_cq_problem(C, hat=False),
    "cq_hat": lambda K, C: cap.build_cq_problem(C, hat=True),
    "cq_aram": lambda K, C: cap.build_aram_problem(gs.ncgraph_from_cq(C)),
}


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_solve_counts_match_the_program(name, complex_):
    if complex_:
        K, C = random_graph(RandomChannelSpec(2, 2, 2, 3)), random_cq_graph(1)
    else:
        K = gs.ncgraph_from_channel(gs.example4_channel(0.75))
        C = gs.cq_from_states(gs.example4_states(0.75))
    problem = _PROGRAMS[name](K, C)
    sol = sdpsolver.solve(problem)
    assert sol.optimal
    counts = tracing.solve_counts(problem, sol, sdpsolver)
    # an equation on Herm(p) has p(p+1)/2 rows in real arithmetic and p^2 in complex
    rows = sum(len(Y) * (len(Y) + 1) // 2 if np.isrealobj(Y) else len(Y) ** 2
               for Y in sol.dual_multipliers)
    assert counts["m"] == problem.num_constraints == rows
    assert np.isrealobj(sol.dual_multipliers[0]) != complex_
