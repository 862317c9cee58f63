"""Spans around the public functions of each ``nszcap`` module.

The tracer replaces each function where its caller looks it up (a module
attribute, a class attribute, or an entry of ``cli.QUANTITIES``) by a wrapper
that records one span: name, layer, start, end, parent span and command id.
Spans stay in memory; the per-layer metrics and the span file are computed
after the run.  ``install`` returns a function that restores every original.
No file of the program is changed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

CHECK_NAMES = ("lemma2", "main_theorem", "theorem5", "corollary6", "theorem7",
               "theorem9", "prop11", "sandwich")

# layer of each span kind, as named in the per-layer metrics
GRAPH_FUNCTIONS = ("ncgraph_from_channel", "ncgraph_from_cq", "cq_from_states",
                   "tensor_graph", "tensor_power", "direct_sum", "superdense_cq")
BUILD_FUNCTIONS = ("build_upsilon_problem", "build_upsilon_hat_dual_problem",
                   "build_aram_problem", "build_cq_problem")
CAPACITY_FUNCTIONS = ("upsilon", "upsilon_hat", "upsilon_hat_dual", "aram",
                      "upsilon_cq", "upsilon_hat_cq", "aram_cq", "superdense_bound")
WITNESS_FUNCTIONS = ("check_upsilon_witness", "check_eq5_witness",
                     "check_aram_dual_witness")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "cmd", "args", "result")

    def __init__(self, name, layer, parent, cmd):
        self.name, self.layer, self.parent, self.cmd = name, layer, parent, cmd
        self.start = self.end = 0.0
        self.args = self.result = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.cmd = None          # id of the command being run
        self._stack = []

    def wrap(self, fn, name: str, layer: str, keep: bool = False):
        """Wrapper recording a span per call; ``keep`` retains args and result."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, self.cmd)
            if keep:
                span.args = args
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                span.result = result
            return result

        return traced

    def install(self, nsz) -> callable:
        """Wrap the layer boundaries of the ``nszcap`` modules in ``nsz``."""
        cli, gs, cap, ts = nsz.cli, nsz.graphspace, nsz.capacities, nsz.theoremsuite
        undo = []

        def patch(owner, attr, name, layer, keep=False):
            if not hasattr(owner, attr):
                return
            orig = getattr(owner, attr)
            setattr(owner, attr, self.wrap(orig, name, layer, keep))
            undo.append(lambda: setattr(owner, attr, orig))

        patch(cli, "main", "cli.main", "cli")
        patch(cli, "document_to_channel", "cli.document_to_channel", "cli.load")
        patch(cli, "parse_builtin_arg", "cli.parse_builtin_arg", "cli.load")
        for fn in GRAPH_FUNCTIONS:
            patch(gs, fn, f"graphspace.{fn}", "graphspace")
        patch(cap, "tensor_power", "graphspace.tensor_power", "graphspace")
        for fn in BUILD_FUNCTIONS:
            patch(cap, fn, f"capacities.{fn}", "capacities.build")
        for fn in CAPACITY_FUNCTIONS:
            patch(cap, fn, f"capacities.{fn}", "capacities.fn", keep=True)
        for fn in WITNESS_FUNCTIONS:
            patch(cap, fn, f"capacities.{fn}", "capacities.witness_check")
        patch(cap, "solve", "sdpsolver.solve", "sdpsolver", keep=True)
        patch(ts, "run_suite", "theoremsuite.run_suite", "theoremsuite")
        for check in CHECK_NAMES:
            patch(ts, f"check_{check}", f"theoremsuite.check_{check}", "theoremsuite.check")
        if hasattr(ts, "CapacityCache"):
            patch(ts.CapacityCache, "result", "theoremsuite.CapacityCache.result",
                  "theoremsuite.cache")

        quantities = getattr(cli, "QUANTITIES", {})
        saved = dict(quantities)
        for q, (kind, fn) in saved.items():
            if fn is not None:
                quantities[q] = (kind, self.wrap(fn, f"capacities.{fn.__name__}",
                                                 "capacities.fn", keep=True))
        undo.append(lambda: quantities.update(saved))

        def uninstall():
            for restore in reversed(undo):
                restore()

        return uninstall


# ---------------------------------------------------------------------------
# Computed counts of one solve (from the public SdpProblem / SdpSolution)
# ---------------------------------------------------------------------------

def solve_counts(problem, solution, sdp) -> dict:
    """Sizes and coefficient paths of one solve; computed, not measured.

    A PSD-block coefficient counts as sparse when it is a ``Coo`` with at most
    ``_DENSE_NNZ_THRESHOLD`` nonzeros (the solver's rule for its triplet
    Schur path) and as dense otherwise.
    """
    threshold = getattr(sdp, "_DENSE_NNZ_THRESHOLD", 9)
    coo_type = getattr(sdp, "Coo", ())
    psd = getattr(sdp, "PSD", "psd-hermitian")
    blocks = problem.blocks
    sparse = dense = 0
    real = True
    for coeffs, _ in problem.constraints:
        for bi, A in coeffs.items():
            arr = A.vv if isinstance(A, coo_type) else A
            if real and _has_imag(arr):
                real = False
            if blocks[bi].kind != psd:
                continue
            if isinstance(A, coo_type) and A.nnz <= threshold:
                sparse += 1
            else:
                dense += 1
    for b, C in zip(blocks, problem.objective):
        if real and (_has_imag(C) or _has_imag(getattr(b, "basis", None))):
            real = False
    m = problem.num_constraints
    iterations = int(getattr(solution, "iterations", 0)) if solution is not None else 0
    return {
        "computed": True,
        "name": problem.name,
        "m": m,
        "blocks": [[b.kind, int(b.dim), getattr(b, "basis", None) is not None]
                   for b in blocks],
        "mode": "real" if real else "complex",
        "iterations": iterations,
        "status": getattr(solution, "status", "exception"),
        "sparse_coeffs": sparse,
        "dense_coeffs": dense,
        "chol_gflop": iterations * m ** 3 / 3 / 1e9,
        "schur_mb": 8 * m * m / 1e6,
    }


def _has_imag(arr) -> bool:
    if arr is None:
        return False
    a = np.asarray(arr)
    return bool(np.iscomplexobj(a) and np.abs(a.imag).max(initial=0.0) > 0.0)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Span duration minus the time covered by its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _graph_key(span):
    """(quantity, graph bytes) of a capacity-function call, for redundancy."""
    if not span.args:
        return None
    g = span.args[0]
    if hasattr(g, "P_AB"):
        return (span.name, g.d_A, g.d_B, g.P_AB.tobytes())
    if hasattr(g, "projections"):
        return (span.name, tuple(p.tobytes() for p in g.projections))
    return None


def layer_metrics(spans, rounds: int, sdp) -> tuple:
    """Per-layer metrics per traced round, and the computed count of each solve.

    Times and counts are totals over the traced rounds divided by ``rounds``.
    """
    selft = self_times(spans)
    tot = defaultdict(float)
    calls = Counter()
    for s, st in zip(spans, selft):
        tot[s.layer] += st
        calls[s.layer] += 1

    check_s = defaultdict(float)
    for s in spans:
        if s.layer == "theoremsuite.check":
            check_s[s.name.rsplit("check_", 1)[1]] += s.end - s.start

    # cache: a lookup that opened no capacity-function span was a hit
    fn_sids = [i for i, s in enumerate(spans) if s.layer == "capacities.fn"]
    missed = set()
    for j in fn_sids:
        p = spans[j].parent
        while p is not None:
            if spans[p].layer == "theoremsuite.cache":
                missed.add(p)
            p = spans[p].parent
    lookups = sum(s.layer == "theoremsuite.cache" for s in spans)
    hits, misses = lookups - len(missed), len(missed)

    seen = set()
    redundant = 0
    for i in fn_sids:
        s = spans[i]
        if s.name == "capacities.superdense_bound":
            continue
        key = (s.cmd, _graph_key(s))
        if key[1] is None:
            continue
        if key in seen:
            redundant += 1
        seen.add(key)

    solves = []
    for s in spans:
        if s.layer == "sdpsolver":
            counts = solve_counts(s.args[0], s.result, sdp)
            counts["cmd"] = s.cmd
            counts["seconds"] = s.end - s.start
            solves.append(counts)

    solve_s = tot["sdpsolver"]
    iterations = sum(c["iterations"] for c in solves)
    chol = sum(c["chol_gflop"] for c in solves)
    r = float(rounds)
    out = {
        "cli.self_s": tot["cli"] / r,
        "cli.load_s": tot["cli.load"] / r,
        "cli.commands": calls["cli"] / r,
        "graphspace.graph_s": tot["graphspace"] / r,
        "graphspace.calls": calls["graphspace"] / r,
        "capacities.build_s": tot["capacities.build"] / r,
        "capacities.extract_s": tot["capacities.fn"] / r,
        "capacities.witness_check_s": tot["capacities.witness_check"] / r,
        "capacities.constraints": sum(c["m"] for c in solves) / r,
        "capacities.sparse_coeffs": sum(c["sparse_coeffs"] for c in solves) / r,
        "capacities.dense_coeffs": sum(c["dense_coeffs"] for c in solves) / r,
        "sdpsolver.solve_s": solve_s / r,
        "sdpsolver.solves": len(solves) / r,
        "sdpsolver.iterations": iterations / r,
        "sdpsolver.iter_s": solve_s / iterations if iterations else 0.0,
        "sdpsolver.nonoptimal": sum(c["status"] != "optimal" for c in solves) / r,
        "sdpsolver.chol_gflop": chol / r,
        "sdpsolver.chol_gflop_per_s": chol / solve_s if solve_s else 0.0,
        "sdpsolver.schur_mb": max((c["schur_mb"] for c in solves), default=0.0),
        "theoremsuite.self_s": (tot["theoremsuite"] + tot["theoremsuite.check"]
                                + tot["theoremsuite.cache"]) / r,
        "theoremsuite.cache_hits": hits / r,
        "theoremsuite.cache_misses": misses / r,
        "theoremsuite.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "theoremsuite.redundant_solves": redundant / r,
    }
    for check in CHECK_NAMES:
        out[f"theoremsuite.check_s.{check}"] = check_s[check] / r
    return out, solves


def span_records(spans) -> list:
    return [{"id": i, "name": s.name, "layer": s.layer, "start": s.start,
             "end": s.end, "parent": s.parent, "cmd": s.cmd}
            for i, s in enumerate(spans)]
