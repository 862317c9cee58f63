"""Executable verification of the structural capacity identities.

Each check computes both sides of one identity or inequality on a concrete
graph instance with the embedded solver and records the comparison in a
:class:`TheoremCheck`.  ``run_suite`` drives all checks over the built-in
channels plus seeded random instances and aggregates a deterministic report.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import capacities as cap
from . import graphspace as gs
from .capacities import CapacityCache
from .matrixcore import ValidationError, partial_trace, permute_systems, tensor
from .sdpsolver import SolverOptions

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
EQ_TOL = 1e-5   # theorem equality tolerance: 1000x the solver's default gap tolerance
CHECK_NAMES = ("lemma2", "main_theorem", "theorem5", "corollary6", "theorem7",
               "theorem9", "prop11", "sandwich")


@dataclass
class TheoremCheck:
    name: str
    instance: str
    lhs: float
    rhs: float
    relation: str           # eq | ge | le
    tolerance: float
    passed: bool
    vacuous: bool = False
    note: str = ""
    # the cost of the check in run_suite: seconds, capacity solves and cache hits
    elapsed_s: float = 0.0
    solves: int = 0
    cache_hits: int = 0

    def line(self) -> str:
        status = "VACUOUS" if self.vacuous else ("PASS" if self.passed else "FAIL")
        out = (f"{status:8s} {self.name:18s} {self.instance:42s} "
               f"lhs={self.lhs:.8f} rhs={self.rhs:.8f} rel={self.relation} tol={self.tolerance:g}")
        if self.note:
            out += f"  [{self.note}]"
        return out


def _compare(lhs: float, rhs: float, relation: str, tol: float) -> bool:
    if relation == "eq":
        return abs(lhs - rhs) <= tol
    if relation == "ge":
        return lhs >= rhs - tol
    if relation == "le":
        return lhs <= rhs + tol
    raise ValidationError(f"unknown relation {relation!r}")


@dataclass(frozen=True)
class RandomChannelSpec:
    d_in: int
    d_out: int
    num_kraus: int
    seed: int

    def __post_init__(self):
        if self.d_out * self.num_kraus < self.d_in:
            raise ValidationError(
                "trace preservation needs d_out * num_kraus >= d_in")

    def label(self) -> str:
        return f"random({self.d_in}->{self.d_out},k={self.num_kraus},seed={self.seed})"


def random_channel(spec: RandomChannelSpec) -> gs.KrausChannel:
    """Haar-random isometry into B (x) E, sliced along E into Kraus operators."""
    rng = np.random.default_rng(spec.seed)
    rows = spec.d_out * spec.num_kraus
    G = rng.standard_normal((rows, spec.d_in)) + 1j * rng.standard_normal((rows, spec.d_in))
    Q, R = np.linalg.qr(G)
    phases = np.diag(R).copy()
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    V = Q * phases.conj()
    ops = [V[i * spec.d_out:(i + 1) * spec.d_out, :] for i in range(spec.num_kraus)]
    return gs.KrausChannel(spec.d_in, spec.d_out, ops)


def random_graph(spec: RandomChannelSpec) -> gs.NCGraph:
    return gs.ncgraph_from_channel(random_channel(spec))


def random_cq_graph(seed: int) -> gs.CqGraph:
    """Random cq graph: 2 to 4 mixed-rank output states on a 2- or 3-dim output space."""
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(2, 5))
    d = int(rng.integers(2, 4))
    outputs = []
    for _ in range(n_in):
        rank = int(rng.integers(1, d + 1))
        G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        rho = G @ G.conj().T
        outputs.append(rho / np.trace(rho).real)
    return gs.cq_from_states(outputs)


# ---------------------------------------------------------------------------
# Witness constructions used in the proofs (and verified by the checks)
# ---------------------------------------------------------------------------

def activation_witness(K: gs.NCGraph, S, U):
    """Lift an activated-capacity witness of K to a plain witness of K x delta(2).

    From a feasible (S, U) of the relaxed program build
    ``S' = S (x) 1_2`` and ``U' = U (x) (|00><00|+|11><11|)
    + Ubar (x) (|01><01|+|10><10|)`` with
    ``Ubar = S/tr(S) (x) (1_B - tr_A U)``, reordered to (A A')(B B'): the
    :func:`cross_activation_witness` of (S, U) with delta(2)'s witness (1_2, P).
    """
    D = gs.delta(2)
    return cross_activation_witness(K, S, U, D, np.eye(2), D.P_AB)


def cross_activation_witness(K1: gs.NCGraph, S1, U1, K2: gs.NCGraph, S2, U2):
    """Combine an activated witness of K1 with a plain witness of K2.

    Valid when ``tr S2 - 1 >= 1/tr S1``; produces a plain witness of
    K1 (x) K2 with value ``tr S1 * tr S2``.
    """
    S1 = np.asarray(S1); U1 = np.asarray(U1)
    S2 = np.asarray(S2); U2 = np.asarray(U2)
    V2 = (tensor(S2, np.eye(K2.d_B)) - U2) / (np.trace(S2).real - 1.0)
    Ubar = tensor(S1 / np.trace(S1), np.eye(K1.d_B) - partial_trace(U1, K1.d_A, K1.d_B, "first"))
    U = tensor(U1, U2) + tensor(Ubar, V2)
    U = permute_systems(U, [K1.d_A, K1.d_B, K2.d_A, K2.d_B], [0, 2, 1, 3])
    return tensor(S1, S2), U


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_lemma2(K: gs.NCGraph, ell: int, label: str,
                 cache: CapacityCache) -> TheoremCheck:
    """Tensoring with a noiseless ell-channel multiplies the activated capacity."""
    uh = cache.value("upsilon_hat", K)
    lhs = cache.value("upsilon_hat", gs.tensor_graph(K, gs.delta(ell)))
    rhs = ell * uh
    abs_tol = EQ_TOL * ell * (1.0 + uh)
    return TheoremCheck("lemma2", f"{label} x delta({ell})", lhs, rhs, "eq",
                        abs_tol, _compare(lhs, rhs, "eq", abs_tol))


def check_main_theorem(K: gs.NCGraph, label: str,
                       cache: CapacityCache) -> TheoremCheck:
    """The activated capacity equals half the capacity after borrowing one bit.

    Besides comparing the two solver values, the explicit lifting of the
    activated witness is re-verified as a feasible point of the borrowed-bit
    program.
    """
    KD = gs.tensor_graph(K, gs.delta(2))
    lhs = cache.value("upsilon", KD) / 2.0
    rhs = cache.value("upsilon_hat", K)
    res = cache.result("upsilon_hat", K)
    S2, U2 = activation_witness(K, res.primal_witness["S_A"], res.primal_witness["U_AB"])
    viol = max(cap.check_upsilon_witness(KD, S2, U2, hat=False).values())
    passed = _compare(lhs, rhs, "eq", EQ_TOL) and viol <= 1e-6
    return TheoremCheck("main_theorem", label, lhs, rhs, "eq",
                        EQ_TOL, passed,
                        note=f"lifted witness violation {viol:.1e}")


def check_theorem5(K1: gs.NCGraph, K2: gs.NCGraph, label: str,
                   cache: CapacityCache) -> TheoremCheck:
    """A channel with enough one-shot capacity activates an activatable one.

    When the hypothesis holds, the combined witness construction is also
    re-verified as a feasible point of the product program.
    """
    u2 = cache.value("upsilon", K2)
    uh1 = cache.value("upsilon_hat", K1)
    if u2 - 1.0 < 1.0 / uh1 - 1e-9:
        return TheoremCheck("theorem5", label, u2 - 1.0, 1.0 / uh1, "ge", 0.0,
                            True, vacuous=True, note="hypothesis not met")
    K12 = gs.tensor_graph(K1, K2)
    lhs = cache.value("upsilon", K12)
    rhs = uh1 * u2
    r1 = cache.result("upsilon_hat", K1)
    r2 = cache.result("upsilon", K2)
    S, U = cross_activation_witness(
        K1, r1.primal_witness["S_A"], r1.primal_witness["U_AB"],
        K2, r2.primal_witness["S_A"], r2.primal_witness["U_AB"])
    viol = max(cap.check_upsilon_witness(K12, S, U, hat=False).values())
    passed = _compare(lhs, rhs, "ge", EQ_TOL) and viol <= 1e-5
    return TheoremCheck("theorem5", label, lhs, rhs, "ge", EQ_TOL, passed,
                        note=f"combined witness violation {viol:.1e}")


def check_corollary6(K: gs.NCGraph, label: str,
                     cache: CapacityCache) -> TheoremCheck:
    """Golden-ratio self-activation."""
    u = cache.value("upsilon", K)
    if u < GOLDEN_RATIO - 1e-9:
        return TheoremCheck("corollary6", label, u, GOLDEN_RATIO, "ge", 0.0,
                            True, vacuous=True, note="one-shot value below golden ratio")
    lhs = cache.value("upsilon", gs.tensor_graph(K, K))
    rhs = cache.value("upsilon_hat", K) * u
    return TheoremCheck("corollary6", label, lhs, rhs, "ge",
                        EQ_TOL, _compare(lhs, rhs, "ge", EQ_TOL))


def check_theorem7(K1: gs.NCGraph, K2: gs.NCGraph, label: str,
                   cache: CapacityCache) -> TheoremCheck:
    """Direct-sum additivity of the one-shot capacity into activated parts."""
    D = gs.direct_sum(K1, K2)
    lhs = cache.value("upsilon", D)
    rhs = cache.value("upsilon_hat", K1) + cache.value("upsilon_hat", K2)
    return TheoremCheck("theorem7", label, lhs, rhs, "eq",
                        EQ_TOL, _compare(lhs, rhs, "eq", EQ_TOL))


def check_theorem9(K: gs.NCGraph, label: str,
                   cache: CapacityCache) -> TheoremCheck:
    """Positivity criteria agree; dense-coding bound holds and is attained as
    the packing number of the dense-coding cq graph."""
    report = cap.thm9_criteria(K, cache)
    uh = cache.value("upsilon_hat", K)
    sdb = cap.superdense_bound(K)
    acq = cache.value("aram_cq", gs.superdense_cq(K))
    agree = report.all_agree()
    bound_ok = uh >= sdb - 1e-6
    attain_ok = abs(acq - sdb) <= EQ_TOL
    passed = agree and bound_ok and attain_ok
    note = "" if passed else \
        f"agree={agree} bound_ok={bound_ok} attain_ok={attain_ok} margins={report.margins}"
    return TheoremCheck("theorem9", label, uh, sdb, "ge", 1e-6, passed, note=note)


def check_prop11(cache: CapacityCache) -> TheoremCheck:
    """The activated capacity can exceed the packing number (built-in witness)."""
    K = gs.ncgraph_from_channel(gs.prop11_channel())
    uh = cache.value("upsilon_hat", K)
    a = cache.value("aram", K)
    T = gs.prop11_packing_dual_witness()
    feas = cap.check_aram_dual_witness(K, T)
    tr_ok = abs(np.trace(T).real - 1.1751) <= 1e-6
    witness_ok = max(feas.values()) <= 1e-6
    passed = (uh - a >= 1e-3) and (a <= 1.1751 + 1e-4) and tr_ok and witness_ok
    note = f"aram={a:.6f} witness_viol={max(feas.values()):.2e}"
    return TheoremCheck("prop11", "builtin prop11 channel", uh, a, "ge", 1e-3,
                        passed, note=note)


def check_sandwich(K: gs.NCGraph, n: int, label: str,
                   cache: CapacityCache) -> TheoremCheck:
    """Finite tensor-power sandwich around the activated capacity."""
    if n < 1:
        raise ValidationError("the sandwich needs a tensor power n of at least 1")
    try:
        # K^k at index k, each formed once, all within the size guard before any solve
        powers = [gs.delta(1), *gs.tensor_powers(K, n)]
        n0 = cap.first_n0(powers[1:], cache)
        if n0 is None:
            return TheoremCheck("sandwich", label, 0.0, 0.0, "le", EQ_TOL, True,
                                vacuous=True, note=f"n0 not found up to {n}")
        mid = cache.value("upsilon", powers[n])
        lo = 2.0 * cache.value("upsilon_hat", powers[n - n0])
        hi = cache.value("upsilon_hat", powers[n])
    except gs.DimensionLimitError as exc:
        return TheoremCheck("sandwich", label, 0.0, 0.0, "le", EQ_TOL, True,
                            vacuous=True, note=f"size guard: {exc}")
    lower_ok = _compare(lo, mid, "le", EQ_TOL)
    upper_ok = _compare(mid, hi, "le", EQ_TOL)
    return TheoremCheck("sandwich", f"{label} n={n} n0={n0}", lo, hi, "le",
                        EQ_TOL, lower_ok and upper_ok,
                        note=f"middle={mid:.8f}")


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    checks: list
    elapsed: float = 0.0
    workers: int = 1        # solver processes; 1 when every solve ran inline

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    @property
    def vacuous(self) -> list:
        return [c for c in self.checks if c.vacuous]

    def summary(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"{len(self.checks)} checks: "
                     f"{len(self.checks) - len(self.failures) - len(self.vacuous)} passed, "
                     f"{len(self.vacuous)} vacuous, {len(self.failures)} failed "
                     f"({self.elapsed:.1f}s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "checks": [vars(c) for c in self.checks],
            "num_checks": len(self.checks),
            "num_failed": len(self.failures),
            "num_vacuous": len(self.vacuous),
            "elapsed_seconds": self.elapsed,
            "workers": self.workers,
        }


def _spec_from_seed(seed: int) -> RandomChannelSpec:
    rng = np.random.default_rng(seed)
    while True:
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        if d_out * k >= d_in:
            return RandomChannelSpec(d_in, d_out, k, seed)


def _solver_processes(n_checks: int) -> int:
    """Solver processes for a run of ``n_checks`` checks: one per CPU this
    process may run on, and no more than there are checks.  One means that
    every solve runs inline, as it does where processes cannot be forked."""
    if "fork" not in mp.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_checks))


def _run_check(check, cache: CapacityCache):
    """Run ``check(cache=cache)`` in this thread: the check, the keys it asked
    the cache for in order, and its own thread CPU seconds outside lookups."""
    lookups = cache.lookups()
    start, cpu = len(lookups), time.thread_time()
    result = check(cache=cache)
    mine = lookups[start:]
    return result, [key for key, _ in mine], time.thread_time() - cpu - sum(s for _, s in mine)


def run_suite(seeds=(), only: str | None = None,
              opts: SolverOptions | None = None, progress=None) -> SuiteReport:
    """Run every check on built-ins plus the seeded random instances.

    With more than one CPU, each check runs in its own thread and the distinct
    solves run on forked worker processes, one per CPU; the checks are still
    reported in run order, with the costs a sequential run would give them.
    """
    seeds = tuple(seeds)
    if only is not None and only not in CHECK_NAMES:
        raise ValidationError(f"unknown check {only!r}; known: {', '.join(CHECK_NAMES)}")
    if any(s < 0 for s in seeds):
        raise ValidationError(f"seeds must be nonnegative, got {list(seeds)!r}")
    gs.max_choi_dim()      # a bad NSZCAP_MAX_DIM is an input error before any check runs
    t0 = time.perf_counter()
    plan = []              # the checks in run order, each waiting for its cache

    def add(check, *args):
        if only is None or only == check.__name__.removeprefix("check_"):
            plan.append(functools.partial(check, *args))

    ex4 = gs.ncgraph_from_channel(gs.example4_channel(0.75))
    damp = gs.ncgraph_from_channel(gs.amplitude_damping_channel(0.75))
    depol = gs.ncgraph_from_channel(gs.depolarizing_channel(2))
    builtins = [("example4(0.75)", ex4), ("amplitude-damping(0.75)", damp)]
    rand = [(s.label(), random_graph(s)) for s in map(_spec_from_seed, seeds)]

    for label, K in builtins + rand:
        add(check_lemma2, K, 2, label)
    add(check_lemma2, gs.delta(2), 3, "delta(2)")
    for label, K in builtins + rand:
        add(check_main_theorem, K, label)
    add(check_main_theorem, gs.delta(2), "delta(2)")
    add(check_theorem5, ex4, gs.delta(2), "example4(0.75) | delta(2)")
    add(check_theorem5, ex4, gs.delta(1), "example4(0.75) | delta(1)")
    for (l1, K1), (l2, K2) in zip(rand[0::2], rand[1::2]):
        add(check_theorem5, K1, K2, f"{l1} | {l2}")
    add(check_corollary6, gs.delta(2), "delta(2)")
    add(check_corollary6, ex4, "example4(0.75)")
    # small inputs keep K (x) K solvable quickly when the hypothesis holds
    for s in seeds[:4]:
        rng = np.random.default_rng(s)
        spec = RandomChannelSpec(2, int(rng.integers(2, 4)), int(rng.integers(1, 3)), s)
        add(check_corollary6, random_graph(spec), spec.label())
    add(check_theorem7, gs.delta(1), gs.delta(1), "delta(1) + delta(1)")
    add(check_theorem7, ex4, ex4, "example4 + example4")
    for (l1, K1), (l2, K2) in zip(rand[0::2], rand[1::2]):
        add(check_theorem7, K1, K2, f"{l1} + {l2}")
    for label, K in builtins + [("depolarizing(2)", depol)] + rand:
        add(check_theorem9, K, label)
    add(check_prop11)
    add(check_sandwich, gs.delta(2), 2, "delta(2)")
    # isometry channels have one-shot capacity >= 2, so n0 = 1
    for s in seeds[:5]:
        rng = np.random.default_rng(s)
        spec = RandomChannelSpec(2, int(rng.integers(2, 4)), 1, s)
        add(check_sandwich, random_graph(spec), 2, spec.label())

    checks, paid = [], set()
    workers = _solver_processes(len(plan))
    with contextlib.ExitStack() as stack:
        if workers == 1:
            cache = CapacityCache(opts)
            runs = (_run_check(check, cache) for check in plan)
        else:
            pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"))
            threads = ThreadPoolExecutor(len(plan))
            # callbacks run last first: the pool cancels its pending solves, so
            # that after an error no check thread waits on one, before the
            # check threads are joined
            stack.callback(threads.shutdown, cancel_futures=True)
            stack.callback(pool.shutdown, cancel_futures=True)
            pool.submit(int)    # forks every worker now, before any thread starts
            cache = CapacityCache(opts, pool)
            runs = (run.result() for run in
                    [threads.submit(_run_check, check, cache) for check in plan])
        for check, keys, cpu in runs:
            # a solve is charged to the first check in run order that asked for it
            new = [key for key in dict.fromkeys(keys) if key not in paid]
            paid.update(new)
            check.solves, check.cache_hits = len(new), len(keys) - len(new)
            check.elapsed_s = cpu + sum(cache.seconds(key) for key in new)
            checks.append(check)
            if progress:
                progress(check)

    order = {id(c): i for i, c in enumerate(checks)}
    checks.sort(key=lambda c: (c.name, c.instance, order[id(c)]))
    return SuiteReport(checks, elapsed=time.perf_counter() - t0, workers=workers)
