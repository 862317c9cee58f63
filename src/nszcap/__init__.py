"""No-signalling-assisted zero-error capacities of quantum channels.

The package computes the one-shot capacity, its activated variant, and the
semidefinite packing number of a quantum channel's non-commutative bipartite
graph by building the corresponding semidefinite programs and solving them
with an embedded interior-point solver.  A verification suite exercises the
structural identities these quantities satisfy (activation, direct sums,
tensor powers, dense-coding bounds) on built-in channels and seeded random
instances.
"""

from .matrixcore import (
    ValidationError,
    tensor,
    partial_trace,
    eig_hermitian,
    support_projection,
    generalized_pauli,
    op_norm,
)
from .graphspace import (
    KrausChannel,
    NCGraph,
    CqGraph,
    choi_matrix,
    ncgraph_from_channel,
    ncgraph_from_cq,
    delta,
    tensor_graph,
    tensor_power,
    tensor_powers,
    direct_sum,
    superdense_cq,
    cq_from_states,
)
from .sdpsolver import SdpProblem, SdpSolution, SolverOptions, solve
from .capacities import (
    CapacityResult,
    upsilon,
    upsilon_hat,
    upsilon_hat_dual,
    aram,
    upsilon_cq,
    upsilon_hat_cq,
    aram_cq,
    superdense_bound,
    thm9_criteria,
    is_activatable,
    find_n0,
)

__version__ = "0.1.0"
