"""Benchmark of `nszcap compute` and `nszcap verify`, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compute-small --seed 1 --seconds 15 --trace 0

One process, one caller in a closed loop: each command is a call of
``nszcap.cli.main([...])`` in this process, started when the previous one
returns.  The program is imported from ``src/`` of the checkout; nothing is
installed or built.

Set-up (import plus one warm-up command per quantity path) is timed in this
process and in four fresh child processes, and ``setup_s`` is their median.
Then rounds of commands (see ``workloads.py``) run until ``--seconds`` have
passed; the last round started always completes.  Every command is checked
(``workloads.gate``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each round
twice on the same inputs, once with the layer wrappers of ``tracing.py``
installed and once without, alternating which goes first; it reports the
per-layer metrics of the traced rounds and the tracing overhead, and writes
the spans to ``perfbench/out/``.

The last line of standard output is the result, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the environment sets another count.  On a 2-core
# machine, two OpenBLAS threads made one n = 36 solve slower (3.8-4.5 s
# against 3.4-3.7 s, at twice the CPU time) and tied it to other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
SETUP_SAMPLES = 5        # this process plus four child processes
WORKLOAD_NAMES = ("compute-small", "compute-large", "compute-dual", "verify")

WARMUP_CQ = {"type": "cq", "outputs": [
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
]}
WARMUP = [["compute", "--builtin", "delta:l=2", "--quantity", q]
          for q in ("upsilon", "upsilon-hat", "upsilon-hat-dual", "aram", "superdense-bound")]
WARMUP_CQ_QUANTITIES = ("upsilon-cq", "upsilon-hat-cq", "aram-cq")
WARMUP_VERIFY = ["verify", "--only", "prop11"]


class BenchError(RuntimeError):
    """The benchmark cannot run or its own self-check failed."""


def run_command(cli, argv):
    """Call ``cli.main(argv)``; return (exit code, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # a traceback is a failed command, not a crash
            rc = -1
            print(f"command {argv} raised {exc!r}", file=sys.__stderr__)
    return rc, out.getvalue(), time.perf_counter() - t0


def timed_setup(workdir: Path) -> float:
    """Import nszcap from ``src/`` and warm up every quantity path; seconds."""
    if not (SRC / "nszcap" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    cq_path = workdir / "warmup-cq.json"
    cq_path.write_text(json.dumps(WARMUP_CQ), encoding="utf-8")
    argvs = WARMUP + [["compute", "--channel", str(cq_path), "--quantity", q]
                      for q in WARMUP_CQ_QUANTITIES] + [WARMUP_VERIFY]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("nszcap.cli")
    for argv in argvs:
        rc, _, _ = run_command(cli, argv)
        if rc != 0:
            raise BenchError(f"warm-up command {argv} exited with {rc}")
    seconds = time.perf_counter() - t0

    if Path(cli.__file__).resolve().parent != SRC / "nszcap":
        raise BenchError(f"imported nszcap from {cli.__file__}, not from {SRC}")
    return seconds


def setup_probe(workdir: Path) -> float:
    """One set-up in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its C API."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nsz) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "solver_uses_numba": bool(getattr(nsz.sdpsolver, "_HAVE_NUMBA", False)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def reference_solver(nsz):
    """Activated capacity of a Kraus channel through the library, for references."""
    gs, cap = nsz.graphspace, nsz.capacities

    def upsilon_hat(ops) -> float:
        d_out, d_in = ops[0].shape
        K = gs.ncgraph_from_channel(gs.KrausChannel(d_in, d_out, list(ops)))
        return cap.upsilon_hat(K).value

    return upsilon_hat


class Runner:
    def __init__(self, nsz, workloads):
        self.nsz = nsz
        self.wl = workloads
        self.next_cmd = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.traced_nonzero = 0

    def run_round(self, rnd, tracer=None) -> tuple:
        """Run one round; (summed command seconds, per-command seconds)."""
        results, times = {}, []
        uninstall = tracer.install(self.nsz) if tracer else None
        try:
            for cmd in rnd.commands:
                if tracer:
                    tracer.cmd = self.next_cmd
                self.next_cmd += 1
                rc, out, seconds = run_command(self.nsz.cli, cmd.argv)
                times.append(seconds)
                results[cmd.key] = (rc, out)
                if tracer and rc != 0:
                    self.traced_nonzero += 1
        finally:
            if uninstall:
                uninstall()
        parsed = {}
        for key, (rc, out) in results.items():
            try:
                parsed[key] = (rc, json.loads(out))
            except json.JSONDecodeError:
                parsed[key] = (rc, None)
        bad = self.wl.gate(rnd, parsed)
        self.attempted += len(rnd.commands)
        self.failed += len(bad)
        self.failures += [f"{key}: {why}" for key, why in bad.items()]
        return sum(times), times


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, nsz, workloads, tracing, workdir: Path) -> dict:
    make_round = workloads.WORKLOADS[args.workload]
    reference = reference_solver(nsz)
    runner = Runner(nsz, workloads)
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, cmd_times = [], [], []

    t_start = time.perf_counter()
    index = 0
    while True:
        rnd = make_round(args.seed, index, workdir, reference)
        if tracer:
            for traced in ((True, False) if index % 2 == 0 else (False, True)):
                wall, _ = runner.run_round(rnd, tracer if traced else None)
                (traced_walls if traced else walls).append(wall)
        else:
            wall, times = runner.run_round(rnd)
            walls.append(wall)
            cmd_times += times
        index += 1
        if time.perf_counter() - t_start >= args.seconds:
            break

    run = {"runner": runner, "rounds": index, "walls": walls}
    if tracer:
        layer, solves = tracing.layer_metrics(tracer.spans, len(traced_walls), nsz.sdpsolver)
        layer["cli.exit_nonzero"] = runner.traced_nonzero / len(traced_walls)
        layer["trace.wall_s"] = statistics.median(traced_walls)
        layer["trace.untraced_wall_s"] = statistics.median(walls)
        layer["trace.overhead_ratio"] = sum(traced_walls) / sum(walls) - 1.0
        outside = (layer["cli.self_s"] + layer["cli.load_s"] + layer["graphspace.graph_s"]
                   + layer["capacities.build_s"] + layer["capacities.extract_s"])
        layer["outside_solve.share"] = outside / statistics.mean(traced_walls)
        run.update(layer=layer, spans=tracing.span_records(tracer.spans), solves=solves)
    else:
        run.update(cmd_times=cmd_times)
    return run


# ---------------------------------------------------------------------------
# Metrics and output
# ---------------------------------------------------------------------------

# unit by name suffix, longest first; checked against BENCHMARK.json
UNITS = {"_gflop_per_s": "GFLOP/s", "_gflop": "GFLOP", "_mb": "MB", "_s": "s",
         "_ratio": "ratio", ".share": "ratio"}


def unit_of(name: str) -> str:
    if ".check_s." in name:
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return {m["name"]: m["unit"] for m in cfg["per_layer" if trace else "end_to_end"]}


def end_to_end(setup_samples, run) -> dict:
    times = run["cmd_times"]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(run["walls"]),
        "cmd_p50_s": statistics.median(times),
        "cmd_p90_s": percentile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not args.setup_probe and args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(Path(args.workdir))}))
        return 0

    if not (ROOT / "BENCHMARK.json").is_file() or not (SRC / "nszcap").is_dir():
        print(f"error: {ROOT} needs BENCHMARK.json and the program source in src/nszcap",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        setup_samples = [timed_setup(workdir)]
        setup_samples += [setup_probe(workdir) for _ in range(SETUP_SAMPLES - 1)]

        import nszcap
        import workloads
        import tracing
        if tuple(workloads.WORKLOADS) != WORKLOAD_NAMES:
            raise BenchError("workloads.py and run.py name different workloads")
        if not workloads.gate_rejects_wrong_reference():
            raise BenchError("self-check: the gate accepted a wrong reference value")
        env = environment(nszcap)
        run = measure(args, nszcap, workloads, tracing, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runner = run["runner"]
    values = run["layer"] if args.trace else end_to_end(setup_samples, run)
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    declared = declared_metrics(bool(args.trace))
    if {k: m["unit"] for k, m in metrics.items()} != declared:
        print(f"error: self-check: printed metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(declared)} with their units", file=sys.stderr)
        return 3

    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "traced_rounds": run["rounds"], "metrics": values,
            "solves_computed": run["solves"], "spans": run["spans"]}), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")

    n_cmd = runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  rounds {run['rounds']}  "
          f"commands {n_cmd}  failed {runner.failed}  "
          f"fail_ratio {runner.failed / n_cmd:.4f}")
    if not args.trace:
        print(f"cmd_p50_s and cmd_p90_s over {len(run['cmd_times'])} commands; "
              f"wall_s is the median of {len(run['walls'])} rounds; "
              f"setup_s the median of {len(setup_samples)} set-ups")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for failure in runner.failures[:20]:
        print(f"  failed: {failure}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": n_cmd,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
