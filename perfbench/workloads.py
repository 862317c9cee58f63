"""Seeded inputs, command rounds and the correctness gate of each workload.

A workload is a sequence of rounds.  Round ``i`` of a run with seed ``s`` is
built from ``numpy.random.default_rng([s, i])`` (plus, for the product-channel
workloads, one fixed base channel), so the same seed always gives the same
commands.  Generating a round, writing its channel documents and
solving its reference values all happen before the round is timed.

Each round carries the checks its command outputs must pass.  A command
fails when it exits non-zero, reports a status other than ``optimal`` (or
``exact`` for the dense-coding bound), or takes part in a failed check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EQ_TOL = 1e-5        # equality of two solver values, as in `nszcap verify`
CLOSED_TOL = 1e-6    # solver value against a closed form (acceptance criteria 1-2)
BOUND_TOL = 1e-9     # the dense-coding bound is computed without a solve

NC_QUANTITIES = ("upsilon", "upsilon-hat", "upsilon-hat-dual", "aram",
                 "superdense-bound")
CQ_QUANTITIES = ("upsilon-cq", "upsilon-hat-cq", "aram-cq")


@dataclass
class Command:
    key: tuple           # (input label, quantity)
    argv: list


@dataclass
class Check:
    what: str
    keys: tuple          # commands whose values the check reads
    test: object         # callable(values: dict) -> bool


@dataclass
class Round:
    commands: list
    checks: list = field(default_factory=list)
    verify: bool = False


def close(a: float, b: float, tol: float) -> bool:
    """``a`` equals ``b`` to ``tol``, relative once ``|b|`` exceeds 1."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def closed_form(key, expected: float, tol: float = CLOSED_TOL) -> Check:
    return Check(f"{key[1]}({key[0]}) = {expected:.9g}", (key,),
                 lambda v: close(v[key], expected, tol))


def relation(lo_key, hi_key, tol: float = CLOSED_TOL) -> Check:
    return Check(f"{lo_key[1]}({lo_key[0]}) <= {hi_key[1]}({hi_key[0]})",
                 (lo_key, hi_key), lambda v: v[lo_key] <= v[hi_key] + tol)


def equal(a_key, b_key, tol: float = EQ_TOL) -> Check:
    return Check(f"{a_key[1]}({a_key[0]}) = {b_key[1]}({b_key[0]})",
                 (a_key, b_key), lambda v: close(v[a_key], v[b_key], tol))


def gate(round_: Round, results: dict) -> dict:
    """The commands that fail ``round_``'s gate, each with the reason.

    ``results`` maps each command key to ``(exit code, parsed stdout or None)``.
    """
    failed = {}
    values = {}
    for cmd in round_.commands:
        rc, doc = results[cmd.key]
        if rc != 0 or doc is None:
            failed[cmd.key] = f"exit code {rc}"
        elif round_.verify:
            if doc.get("num_failed") != 0:
                failed[cmd.key] = f"{doc.get('num_failed')} checks failed"
        elif doc.get("status") not in ("optimal", "exact") \
                or not isinstance(doc.get("value"), (int, float)) \
                or not math.isfinite(doc["value"]):
            failed[cmd.key] = f"status {doc.get('status')}, value {doc.get('value')}"
        else:
            values[cmd.key] = float(doc["value"])
    for check in round_.checks:
        # a command without a value has failed already
        if any(k not in values for k in check.keys) or check.test(values):
            continue
        for k in check.keys:
            failed.setdefault(k, f"check {check.what}: "
                                 f"{[values.get(key) for key in check.keys]}")
    return failed


def gate_rejects_wrong_reference() -> bool:
    """The gate must count a value checked against a wrong reference as failed."""
    key = ("example4(0.75)", "upsilon-hat")
    good = Round([Command(key, [])], [closed_form(key, 1 / 0.75)])
    wrong = Round([Command(key, [])], [closed_form(key, 1 / 0.75 + 1e-4)])
    results = {key: (0, {"status": "optimal", "value": 1 / 0.75})}
    return not gate(good, results) and list(gate(wrong, results)) == [key]


# ---------------------------------------------------------------------------
# Random inputs and channel documents
# ---------------------------------------------------------------------------

def haar_unitary(rng, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_kraus(rng, d_in: int, d_out: int, k: int) -> list:
    """Haar-random isometry into B (x) E, sliced along E into Kraus operators."""
    G = rng.standard_normal((d_out * k, d_in)) + 1j * rng.standard_normal((d_out * k, d_in))
    Q, R = np.linalg.qr(G)
    V = Q * (np.diag(R) / np.abs(np.diag(R))).conj()
    return [V[i * d_out:(i + 1) * d_out] for i in range(k)]


def random_states(rng, n_in: int, d: int) -> list:
    """``n_in`` density matrices on C^d, of ranks cycling through 1..d."""
    out = []
    for i in range(n_in):
        rank = 1 + i % d
        G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        rho = G @ G.conj().T
        out.append(rho / np.trace(rho).real)
    return out


def _pairs(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, complex)]


def kraus_doc(ops) -> dict:
    d_out, d_in = np.asarray(ops[0]).shape
    return {"type": "kraus", "d_in": d_in, "d_out": d_out,
            "kraus": [_pairs(E) for E in ops]}


def cq_doc(states) -> dict:
    return {"type": "cq", "outputs": [_pairs(rho) for rho in states]}


def example4_states(alpha_sq: float) -> list:
    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    return [np.outer(v, v) for v in (np.array([a, b]), np.array([a, -b]))]


class _Docs:
    """Writes channel documents into the run's work directory."""

    def __init__(self, workdir: Path, prefix: str):
        self.workdir = workdir
        self.prefix = prefix
        self.count = 0

    def write(self, doc: dict) -> str:
        path = self.workdir / f"{self.prefix}-{self.count}.json"
        self.count += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


def _compute(label: str, quantity: str, source: list) -> Command:
    return Command((label, quantity), ["compute", *source, "--quantity", quantity])


def _nc_commands(label: str, source: list) -> list:
    return [_compute(label, q, source) for q in NC_QUANTITIES]


def _nc_relations(label: str) -> list:
    hat = (label, "upsilon-hat")
    return [relation((label, "upsilon"), hat),
            relation((label, "superdense-bound"), hat),
            equal((label, "upsilon-hat-dual"), hat)]


def _cq_commands(label: str, path: str) -> list:
    cmds = [_compute(label, q, ["--channel", path]) for q in CQ_QUANTITIES]
    # the same document through the general program, on the embedded graph
    cmds.append(_compute(label, "upsilon", ["--channel", path]))
    return cmds


def _cq_relations(label: str) -> list:
    return [equal((label, "upsilon-cq"), (label, "upsilon")),
            equal((label, "upsilon-hat-cq"), (label, "aram-cq")),
            relation((label, "upsilon-cq"), (label, "upsilon-hat-cq"))]


# ---------------------------------------------------------------------------
# compute-small: every quantity on built-ins and small seeded documents
# ---------------------------------------------------------------------------

# (d_in, d_out, Kraus rank) of the random Kraus documents, two of each per round
SMALL_KRAUS_SHAPES = [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 2),
                      (3, 3, 1), (3, 3, 2), (3, 2, 3), (2, 2, 3), (3, 3, 3)]
# (inputs, output dimension) of the random cq documents
SMALL_CQ_SHAPES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3),
                   (2, 2), (3, 2), (2, 3), (3, 3), (4, 3)]


def compute_small_round(seed: int, index: int, workdir: Path, _reference) -> Round:
    rng = np.random.default_rng([seed, index])
    docs = _Docs(workdir, f"small-{index}")
    cmds, checks = [], []

    alphas = [float(f"{a:.6f}") for a in rng.uniform(0.55, 0.95, size=3)]
    for a in alphas:
        label = f"example4({a})"
        cmds += _nc_commands(label, ["--builtin", f"example4:alpha_sq={a}"])
        checks += _nc_relations(label)
        checks += [closed_form((label, "upsilon"), 1.0),
                   closed_form((label, "upsilon-hat"), 1 / a),
                   closed_form((label, "aram"), 1 / a)]

    label = "amplitude-damping(0.75)"
    cmds += _nc_commands(label, ["--builtin", "amplitude-damping:r=0.75"])
    checks += _nc_relations(label)
    checks += [closed_form((label, "upsilon"), 1.0),
               closed_form((label, "superdense-bound"), 10 / 9, BOUND_TOL),
               Check("upsilon-hat(amplitude-damping(0.75)) >= 9/8",
                     ((label, "upsilon-hat"),),
                     lambda v, k=(label, "upsilon-hat"): v[k] >= 9 / 8 - CLOSED_TOL)]

    cmds += _nc_commands("prop11", ["--builtin", "prop11"])
    checks += _nc_relations("prop11")

    for ell in (1, 2, 3):
        label = f"delta({ell})"
        cmds += _nc_commands(label, ["--builtin", f"delta:l={ell}"])
        checks += [closed_form((label, q), float(ell),
                               BOUND_TOL if q == "superdense-bound" else CLOSED_TOL)
                   for q in NC_QUANTITIES]

    for name in ("depolarizing", "identity"):
        label = f"{name}(2)"
        cmds += _nc_commands(label, ["--builtin", f"{name}:d=2"])
        checks += _nc_relations(label)

    label = f"example4-cq({alphas[0]})"
    cmds += _cq_commands(label, docs.write(cq_doc(example4_states(alphas[0]))))
    checks += _cq_relations(label)
    checks += [closed_form((label, "aram-cq"), 1 / alphas[0])]

    for j, (d_in, d_out, k) in enumerate(SMALL_KRAUS_SHAPES * 2):
        label = f"kraus{j}({d_in}->{d_out},k={k})"
        path = docs.write(kraus_doc(random_kraus(rng, d_in, d_out, k)))
        cmds += _nc_commands(label, ["--channel", path])
        checks += _nc_relations(label)

    for j, (n_in, d) in enumerate(SMALL_CQ_SHAPES):
        label = f"cq{j}({n_in}x{d})"
        cmds += _cq_commands(label, docs.write(cq_doc(random_states(rng, n_in, d))))
        checks += _cq_relations(label)
    return Round(cmds, checks)


# ---------------------------------------------------------------------------
# compute-large / compute-dual: K (x) delta(2) at Choi dimension n = 36
# ---------------------------------------------------------------------------

# K: the 3->3 channel with two Kraus operators that the ROADMAP baseline
# calls RandomChannelSpec(3, 3, 2, 7), drawn the same way from seed 7
BASE_CHANNEL_SEED = 7


def product_channel(seed: int, index: int):
    """Kraus operators of K and of K (x) delta(2) for round ``index``.

    K is the base channel rotated by input and output unitaries drawn from
    the run seed and the round.  The capacities, and the interior-point path,
    are invariant under such local unitaries, so every round of every seed
    does the same solver work on different numbers.
    """
    base = random_kraus(np.random.default_rng(BASE_CHANNEL_SEED), 3, 3, 2)
    rng = np.random.default_rng([seed, index])
    U, V = haar_unitary(rng, 3), haar_unitary(rng, 3)
    K = [V @ E @ U.conj().T for E in base]
    dephase = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    return K, [np.kron(E, F) for E in K for F in dephase]


def _product_round(seed, index, workdir, reference, quantities) -> Round:
    K, KD = product_channel(seed, index)
    ref = reference(K)        # solved before the round is timed
    path = _Docs(workdir, f"product-{index}").write(kraus_doc(KD))
    label = f"K{index}xdelta(2)"
    cmds = [_compute(label, q, ["--channel", path]) for q in quantities]
    # Theorem: upsilon(K x delta(2)) / 2 = upsilon-hat(K); Lemma: upsilon-hat
    # (and its dual) of K x delta(2) = 2 upsilon-hat(K)
    checks = [closed_form((label, q), 2 * ref, EQ_TOL) for q in quantities]
    return Round(cmds, checks)


def compute_large_round(seed, index, workdir, reference) -> Round:
    return _product_round(seed, index, workdir, reference, ("upsilon", "upsilon-hat"))


def compute_dual_round(seed, index, workdir, reference) -> Round:
    return _product_round(seed, index, workdir, reference, ("upsilon-hat-dual",))


# ---------------------------------------------------------------------------
# verify: the theorem suite on three derived seeds
# ---------------------------------------------------------------------------

# Instance shape (d_in, d_out, Kraus rank) that `nszcap verify` derives from
# each of the three seeds, in order.  The second is an isometry, so the
# theorem5 hypothesis holds for the pair; every seed also yields a 2->2
# isometry for corollary6 and the sandwich check.  Fixing the shapes fixes
# which checks are vacuous and the Choi dimensions solved (at most 16 for the
# random instances), so each command does the same kind of work.
VERIFY_SHAPES = [(2, 2, 2), (2, 2, 1), (2, 2, 3)]


def verify_instance_shapes(s: int):
    """The instance shapes `nszcap verify --seed s` builds from ``s``.

    Mirrors the seed mapping of the verification suite: the main random
    instance, then the (d_out, Kraus rank) drawn for corollary6 and the
    sandwich check.
    """
    rng = np.random.default_rng(s)
    while True:
        d_in, d_out, k = (int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                          int(rng.integers(1, 4)))
        if d_out * k >= d_in:
            break
    rng = np.random.default_rng(s)
    return (d_in, d_out, k), (int(rng.integers(2, 4)), int(rng.integers(1, 3)))


def verify_seeds(seed: int, index: int) -> list:
    rng = np.random.default_rng([seed, index])
    seeds = []
    for shape in VERIFY_SHAPES:
        while True:
            s = int(rng.integers(1, 2**31 - 1))
            if verify_instance_shapes(s) == (shape, (2, 1)):
                seeds.append(s)
                break
    return seeds


def verify_round(seed, index, _workdir, _reference) -> Round:
    seeds = verify_seeds(seed, index)
    argv = ["verify"]
    for s in seeds:
        argv += ["--seed", str(s)]
    return Round([Command((f"seeds{seeds}", "verify"), argv)], verify=True)


WORKLOADS = {
    "compute-small": compute_small_round,
    "compute-large": compute_large_round,
    "compute-dual": compute_dual_round,
    "verify": verify_round,
}
