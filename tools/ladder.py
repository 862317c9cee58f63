"""Equivalence ladder: record capacity solves on fixed instances, or compare two records.

    python3 tools/ladder.py --out FILE [--large] [--xl] [--xxl] [--boundary]
    python3 tools/ladder.py --compare A B

Run it from the root of a checkout; it imports ``nszcap`` from that
checkout's ``src/``.  ``--out`` solves the ladder and writes, per instance and
quantity, the value, the iteration count, the status (``optimal``, or the
status of a ``SolverFailure``) and a sha256 digest of the bits of the value and
of every witness array (of the dual multiplier matrices, one per equation, for a
failure), the seconds, and from the solve's trace its Newton ``path`` (``dense``
or ``core``) and the largest matrix it factored (``factored``: m on the dense
path, the border on the core path).  The ladder is:

- ``upsilon``, ``upsilon_hat``, ``upsilon_hat_dual`` and ``aram`` on five
  built-in channels and on the random channels of ``verify`` seeds 1..40;
- ``upsilon_cq``, ``upsilon_hat_cq`` and ``aram_cq`` on ``random_cq_graph(1..20)``
  and on seeds 516, 49, 61 and 102, whose outputs are all full rank, so their
  cq programs have dependent rows and a rank-deficient Schur matrix;
- with ``--large``, ``upsilon``, ``upsilon_hat`` and ``upsilon_hat_dual`` on
  K (x) delta(2) at Choi dimension 36, from ``perfbench``'s
  ``product_channel(1, 0..1)``;
- with ``--xl``, ``upsilon``, ``upsilon_hat`` and ``upsilon_hat_dual`` on K (x) K
  (the last of ``graphspace.tensor_powers``, as for ``--xxl``) at Choi
  dimension 81, K the random channel ``RandomChannelSpec(3, 3, 2, 7)``
  (with ``--large``, about 11 s and 140 MB on a 2-core VM with one BLAS thread;
  each of the three n = 81 solves takes 0.6-0.8 s and ends ``optimal``);
- with ``--xxl``, ``upsilon`` on K^(x)3 at Choi dimension 216 (m = 47 385), K
  the random channel ``RandomChannelSpec(2, 3, 1, 5)``, whose value is 64 in
  closed form (about 17 s and 0.76 GB peak RSS);
- with ``--boundary``, ``upsilon`` of amplitude damping at 401 log-spaced r in
  [1e-6, 1e-2], where the true value is 1 and the dual witness grows like 1/r
  (about 20 s; many of these solves end ``numerical-failure``).

``--out`` exits 1 when a solve outside the ``--boundary`` rung is not
``optimal``, naming each such solve.

``--compare`` exits 1 unless both records hold the same solves, every value
agrees to 1e-8 relative, the statuses are equal and the iteration counts
differ by at most 1.  It also reports how many solves are bit-identical (equal
digests), in all, per Newton path (``dense/core`` where the two records took
different paths) and per quantity, the largest relative value deviation, how
many solves differ in their iteration counts, and the summed seconds of each
record per rung (base, ``--large``, ``--xl``, ``--xxl``, ``--boundary``).  Those
seconds come from the single run that wrote each record, and runs of the same
code on a shared machine differ by up to 45 %, so they are not a timing
comparison: time a change with repeated, alternating runs of both sides.  For
the boundary rung it reports, per record, the failed solves and the ``optimal``
values farther than ``sdpsolver.GAP_TOL (1 + v)`` from the true value 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VALUE_RTOL = 1e-8
ITER_SLACK = 1
BOUNDARY_R = 401         # log-spaced amplitude-damping parameters in [1e-6, 1e-2]

NC = ("upsilon", "upsilon_hat", "upsilon_hat_dual", "aram")
CQ = ("upsilon_cq", "upsilon_hat_cq", "aram_cq")
LARGE = ("upsilon", "upsilon_hat", "upsilon_hat_dual")


def ladder(large: bool, xl: bool, xxl: bool, boundary: bool):
    """Yield (instance label, quantities, graph) in a fixed order."""
    import numpy as np
    from nszcap import graphspace as gs
    from nszcap.theoremsuite import (RandomChannelSpec, _spec_from_seed, random_cq_graph,
                                     random_graph)

    builtins = {
        "example4(0.75)": gs.example4_channel(0.75),
        "amplitude-damping(0.75)": gs.amplitude_damping_channel(0.75),
        "prop11": gs.prop11_channel(),
        "depolarizing(2)": gs.depolarizing_channel(2),
        "delta(3)": gs.dephasing_channel(3),
    }
    for label, channel in builtins.items():
        yield label, NC, gs.ncgraph_from_channel(channel)
    for seed in range(1, 41):
        spec = _spec_from_seed(seed)
        yield f"seed{seed}:{spec.label()}", NC, random_graph(spec)
    for seed in (*range(1, 21), 516, 49, 61, 102):
        yield f"cq{seed}", CQ, random_cq_graph(seed)
    if large:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import product_channel
        for index in range(2):
            _, kraus = product_channel(1, index)
            yield (f"K{index}xdelta(2)", LARGE,
                   gs.ncgraph_from_channel(gs.KrausChannel(6, 6, kraus)))
    if xl:
        spec = RandomChannelSpec(3, 3, 2, 7)
        *_, K2 = gs.tensor_powers(random_graph(spec), 2)
        yield f"{spec.label()}^2", LARGE, K2
    if xxl:
        spec = RandomChannelSpec(2, 3, 1, 5)
        *_, K3 = gs.tensor_powers(random_graph(spec), 3)
        yield f"{spec.label()}^3", ("upsilon",), K3
    if boundary:
        for r in np.logspace(-6, -2, BOUNDARY_R):
            yield (f"boundary:amplitude-damping({float(r)!r})", ("upsilon",),
                   gs.ncgraph_from_channel(gs.amplitude_damping_channel(float(r))))


RUNGS = ("base", "large", "xl", "xxl", "boundary")


def rung(key: str) -> str:
    """The ladder rung of a solve's key, one of :data:`RUNGS`."""
    label = key.rsplit("/", 1)[0]
    if label.startswith("boundary:"):
        return "boundary"
    if label.endswith("^3"):
        return "xxl"
    if label.endswith("^2"):
        return "xl"
    return "large" if label.endswith("xdelta(2)") else "base"


def boundary_report(rec: dict) -> str:
    """The boundary rung's failed solves and its ``optimal`` values farther than
    ``GAP_TOL (1 + v)`` from 1, the true value."""
    from nszcap.sdpsolver import GAP_TOL

    rows = [r for k, r in rec.items() if rung(k) == "boundary"]
    failed = sum(r["status"] != "optimal" for r in rows)
    off = [r["value"] for r in rows
           if r["status"] == "optimal" and abs(r["value"] - 1.0) > GAP_TOL * (1 + r["value"])]
    worst = max(off, key=lambda v: abs(v - 1.0), default=None)
    return (f"{len(rows)} solves, {failed} not optimal, {len(off)} optimal values off 1 by more "
            f"than GAP_TOL (1 + v)" + (f", the worst {worst!r}" if off else ""))


def digest(value: float, arrays: dict) -> str:
    """sha256 over the bits of ``value`` and of every array in ``arrays`` (dicts by
    sorted key, lists in order), each with its name, dtype and shape."""
    import numpy as np

    h = hashlib.sha256(np.float64(value).tobytes())

    def add(name, item):
        if isinstance(item, dict):
            for key in sorted(item):
                add(f"{name}.{key}", item[key])
        elif isinstance(item, list):
            for i, x in enumerate(item):
                add(f"{name}[{i}]", x)
        else:
            a = np.ascontiguousarray(item)
            h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
            h.update(a.tobytes())

    add("", arrays)
    return h.hexdigest()


def record(large: bool, xl: bool, xxl: bool, boundary: bool) -> dict:
    from nszcap import capacities as cap
    from nszcap.sdpsolver import SolverFailure

    rows = {}
    for label, quantities, graph in ladder(large, xl, xxl, boundary):
        for q in quantities:
            t0 = time.perf_counter()
            try:
                res = getattr(cap, q)(graph)
                row = {"value": res.value, "iterations": res.iterations, "status": res.status,
                       "digest": digest(res.value, {"primal": res.primal_witness,
                                                    "dual": res.dual_witness})}
                trace = res.trace
            except SolverFailure as exc:
                sol = exc.solution
                row = {"value": sol.primal_value, "iterations": sol.iterations,
                       "status": sol.status,
                       "digest": digest(sol.primal_value, {"y": sol.dual_multipliers})}
                trace = sol.trace
            row["seconds"] = round(time.perf_counter() - t0, 4)
            row["path"] = trace[0]["path"]
            row["factored"] = max((r["size"] for r in trace if r["size"] is not None), default=0)
            rows[f"{label}/{q}"] = row
    return rows


def relative_deviation(ra: dict, rb: dict) -> float:
    """``|a - b| / max(1, |a|, |b|)`` for the values of two rows."""
    scale = max(1.0, abs(ra["value"]), abs(rb["value"]))
    return abs(ra["value"] - rb["value"]) / scale


def compare(a: dict, b: dict) -> list:
    """Human-readable disagreements between two records; empty when they agree."""
    problems = [f"{key}: only in one record" for key in sorted(a.keys() ^ b.keys())]
    for key in sorted(a.keys() & b.keys()):
        ra, rb = a[key], b[key]
        if not relative_deviation(ra, rb) <= VALUE_RTOL:
            problems.append(f"{key}: value {ra['value']!r} vs {rb['value']!r}")
        if ra["status"] != rb["status"]:
            problems.append(f"{key}: status {ra['status']} vs {rb['status']}")
        if abs(ra["iterations"] - rb["iterations"]) > ITER_SLACK:
            problems.append(f"{key}: iterations {ra['iterations']} vs {rb['iterations']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="solve the ladder and write the record here")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                       help="compare two records")
    parser.add_argument("--large", action="store_true",
                        help="also solve the n = 36 product instances (about a minute)")
    parser.add_argument("--xl", action="store_true",
                        help="also solve the n = 81 instance (about 5 s)")
    parser.add_argument("--xxl", action="store_true",
                        help="also solve the n = 216 instance (about 17 s and 0.76 GB)")
    parser.add_argument("--boundary", action="store_true",
                        help="also solve the 401-point amplitude-damping grid (about 20 s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    if args.compare:
        a, b = (json.loads(p.read_text())["solves"] for p in args.compare)
        problems = compare(a, b)
        for line in problems:
            print(line)
        iters = [sum(r["iterations"] for r in rec.values()) for rec in (a, b)]
        common = a.keys() & b.keys()

        def identical(k):
            return a[k].get("digest") is not None and a[k].get("digest") == b[k].get("digest")

        same = sum(map(identical, common))
        deviation = max((relative_deviation(a[k], b[k]) for k in common), default=0.0)
        moved = sum(a[k]["iterations"] != b[k]["iterations"] for k in common)
        print(f"{len(common)} common solves, {len(problems)} disagreements, "
              f"total iterations {iters[0]} vs {iters[1]}")
        print(f"{same} of {len(common)} solves bit-identical; largest relative value "
              f"deviation {deviation:.2e}; {moved} solves with different iteration counts")
        paths = {k: "/".join(dict.fromkeys(rec[k].get("path", "?") for rec in (a, b)))
                 for k in common}
        for path in sorted(set(paths.values())):
            keys = [k for k in common if paths[k] == path]
            print(f"path {path}: {sum(map(identical, keys))} of {len(keys)} solves bit-identical")
        for q in sorted({k.rsplit("/", 1)[1] for k in common}):
            keys = [k for k in common if k.rsplit("/", 1)[1] == q]
            print(f"quantity {q}: {sum(map(identical, keys))} of {len(keys)} solves bit-identical")
        for name in RUNGS:
            keys = [k for k in common if rung(k) == name]
            if keys:
                secs = [sum(rec[k].get("seconds", 0.0) for k in keys) for rec in (a, b)]
                print(f"rung {name}: {len(keys)} solves, single-run seconds {secs[0]:.2f} vs "
                      f"{secs[1]:.2f} (one run per record, not a timing comparison)")
        if any(rung(k) == "boundary" for k in common):
            for side, rec in zip("AB", (a, b)):
                print(f"boundary {side}: {boundary_report(rec)}")
        return 1 if problems else 0

    t0 = time.perf_counter()
    rows = record(args.large, args.xl, args.xxl, args.boundary)
    doc = {"large": args.large, "xl": args.xl, "xxl": args.xxl, "boundary": args.boundary,
           "seconds": round(time.perf_counter() - t0, 2), "solves": rows}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    failed = sum(r["status"] != "optimal" for r in rows.values())
    print(f"{len(rows)} solves, {failed} not optimal, {doc['seconds']} s -> {args.out}")
    # the boundary rung is expected to fail in places; every other solve must be optimal
    bad = sorted(k for k, r in rows.items() if r["status"] != "optimal" and rung(k) != "boundary")
    for key in bad:
        print(f"{key}: {rows[key]['status']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
