"""Command-line front end.

Three subcommands:

``compute``   evaluate one capacity quantity on a channel document or a
              built-in channel and print a JSON result document;
``verify``    run the theorem-verification suite (text progress on stderr,
              JSON report on stdout);
``examples``  list the built-in channels and their parameters.

Channel documents are JSON, one document per file, with complex numbers as
``[re, im]`` pairs:

    {"type": "kraus", "d_in": 2, "d_out": 2, "kraus": [ [[..],..], .. ]}
    {"type": "cq", "outputs": [ [[..],..], .. ]}
    {"type": "builtin", "name": "example4", "params": {"alpha_sq": 0.75}}

Exit codes: 0 success, 1 input error, 2 solver failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import capacities as cap
from . import graphspace as gs
from . import theoremsuite as ts
from .matrixcore import ValidationError
from .sdpsolver import SolverFailure

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# Built-in channel registry
# ---------------------------------------------------------------------------

def _square(make, value, name: str):
    """``make(d)`` for the d -> d channel of parameter ``name``; its Choi
    dimension d*d is checked by the size guard before anything is built."""
    d = _number(value, f"parameter '{name}'", True)
    gs.require_choi_dim(d * d)
    return make(d)


BUILTINS = {
    "identity": {
        "factory": lambda p: _square(gs.identity_channel, p.get("d", 2), "d"),
        "params": {"d": "input/output dimension (default 2)"},
        "about": "noiseless qudit channel",
    },
    "depolarizing": {
        "factory": lambda p: _square(gs.depolarizing_channel, p.get("d", 2), "d"),
        "params": {"d": "input/output dimension (default 2)"},
        "about": "completely depolarizing channel; full Kraus span, zero capacity",
    },
    "example4": {
        "factory": lambda p: gs.example4_channel(_number(p["alpha_sq"], "parameter 'alpha_sq'")),
        "params": {"alpha_sq": "squared overlap amplitude, in (0, 1]"},
        "about": "two-input cq channel with pure outputs a|0> +/- b|1>; "
                 "activatable for alpha_sq in (1/2, 1)",
    },
    "amplitude-damping": {
        "factory": lambda p: gs.amplitude_damping_channel(_number(p["r"], "parameter 'r'")),
        "params": {"r": "decay probability, in [0, 1]"},
        "about": "qubit amplitude damping channel",
    },
    "prop11": {
        "factory": lambda p: gs.prop11_channel(),
        "params": {},
        "about": "three-level channel whose activated capacity exceeds its "
                 "packing number",
    },
    "delta": {
        "factory": lambda p: _square(gs.dephasing_channel, p["l"], "l"),
        "params": {"l": "number of noiseless symbols, >= 1"},
        "about": "noiseless classical channel on l symbols",
    },
}

QUANTITIES = {
    "upsilon": ("nc", cap.upsilon),
    "upsilon-hat": ("nc", cap.upsilon_hat),
    "upsilon-hat-dual": ("nc", cap.upsilon_hat_dual),
    "aram": ("nc", cap.aram),
    "upsilon-cq": ("cq", cap.upsilon_cq),
    "upsilon-hat-cq": ("cq", cap.upsilon_hat_cq),
    "aram-cq": ("cq", cap.aram_cq),
    "superdense-bound": ("bound", None),
}


# ---------------------------------------------------------------------------
# Channel document (de)serialization
# ---------------------------------------------------------------------------

def _matrix_to_pairs(M) -> list:
    A = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def _number(value, what: str, integer: bool = False):
    """A float; with ``integer``, a positive integer (a fraction or a bool is an error)."""
    try:
        x = float(value)
        if isinstance(value, bool) or integer and not (x.is_integer() and x >= 1):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        kind = "a positive integer" if integer else "a number"
        raise ValidationError(f"{what} must be {kind}, got {value!r}") from None
    return int(x) if integer else x


def _matrices(doc: dict, field: str) -> list:
    if not isinstance(doc[field], list):
        raise ValidationError(f"channel document: '{field}' must be a list of matrices")
    return [_matrix_from_pairs(M, f"{field}[{i}]") for i, M in enumerate(doc[field])]


def _matrix_from_pairs(rows, what: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: not a numeric nested array") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(f"{what}: expected a matrix of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: entries must be finite")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def channel_to_document(obj) -> dict:
    """Serialize a KrausChannel or CqGraph to the document schema."""
    if isinstance(obj, gs.KrausChannel):
        return {"type": "kraus", "d_in": obj.d_in, "d_out": obj.d_out,
                "kraus": [_matrix_to_pairs(E) for E in obj.kraus]}
    if isinstance(obj, gs.CqGraph):
        return {"type": "cq",
                "outputs": [_matrix_to_pairs(P) for P in obj.projections]}
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def document_to_channel(doc: dict):
    """Parse a channel document into a KrausChannel or CqGraph."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValidationError("channel document: missing 'type' field")
    kind = doc["type"]
    if kind == "kraus":
        for field in ("d_in", "d_out", "kraus"):
            if field not in doc:
                raise ValidationError(f"channel document: missing '{field}' field")
        d_in, d_out = (_number(doc[f], f"channel document: '{f}'", True)
                       for f in ("d_in", "d_out"))
        return gs.KrausChannel(d_in, d_out, _matrices(doc, "kraus"))
    if kind == "cq":
        if "outputs" not in doc:
            raise ValidationError("channel document: missing 'outputs' field")
        mats = _matrices(doc, "outputs")
        # accept either density matrices or projections
        try:
            return gs.cq_from_states(mats)
        except ValidationError as as_states:
            try:
                return gs.CqGraph(mats)
            except ValidationError as as_projections:
                raise ValidationError(
                    f"cq outputs are neither density matrices ({as_states}) "
                    f"nor projections ({as_projections})") from None
    if kind == "builtin":
        if "name" not in doc:
            raise ValidationError("channel document: missing 'name' field")
        return make_builtin(doc["name"], doc.get("params", {}))
    raise ValidationError(f"channel document: unknown type {kind!r}")


def make_builtin(name: str, params: dict):
    if not isinstance(name, str) or name not in BUILTINS:
        raise ValidationError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}")
    if not isinstance(params, dict):
        raise ValidationError(f"builtin {name!r}: 'params' must be an object, got {params!r}")
    try:
        return BUILTINS[name]["factory"](params)
    except KeyError as exc:
        raise ValidationError(f"builtin {name!r}: missing parameter {exc}") from exc


def parse_builtin_arg(text: str):
    """Parse ``name`` or ``name:key=val,key=val``."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValidationError(f"builtin parameter {item!r} is not key=val")
            params[key.strip()] = val.strip()
    return make_builtin(name.strip(), params)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_channel(args):
    if args.builtin and args.channel:
        raise ValidationError("give either --channel or --builtin, not both")
    if args.builtin:
        return parse_builtin_arg(args.builtin)
    if args.channel:
        try:
            with open(args.channel, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read {args.channel}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.channel}: invalid JSON ({exc})") from exc
        return document_to_channel(doc)
    raise ValidationError("one of --channel or --builtin is required")


def _serialize_witness(witness: dict) -> dict:
    out = {}
    for name, M in witness.items():
        if isinstance(M, list):
            out[name] = [_matrix_to_pairs(x) for x in M]
        elif np.ndim(M) == 2:
            out[name] = _matrix_to_pairs(M)
        else:
            out[name] = [float(x) for x in np.atleast_1d(M)]
    return out


def cmd_compute(args) -> int:
    kind, fn = QUANTITIES[args.quantity]
    channel = _load_channel(args)
    # the size guard reads the Choi dimension off the channel, before any graph is built
    cq = isinstance(channel, gs.CqGraph)
    gs.require_choi_dim(channel.num_inputs * channel.d_B if cq else channel.d_in * channel.d_out)

    if kind == "cq":
        if not cq:
            raise ValidationError(
                f"{args.quantity} needs a cq channel document (type 'cq')")
        result = fn(channel)
    else:
        K = gs.ncgraph_from_cq(channel) if cq else gs.ncgraph_from_channel(channel)
        if kind == "bound":
            value = cap.superdense_bound(K)
            print(json.dumps({"quantity": args.quantity, "value": value,
                              "log2_value": float(np.log2(value)), "gap": 0.0,
                              "status": "exact"}))
            return EXIT_OK
        result = fn(K)

    out = {"quantity": args.quantity, "value": result.value,
           "log2_value": result.log2_value, "gap": result.gap,
           "status": result.status, "iterations": result.iterations}
    if args.witness:
        out["witness"] = _serialize_witness(result.primal_witness)
        if result.dual_witness:
            out["dual_witness"] = _serialize_witness(result.dual_witness)
    print(json.dumps(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = ts.run_suite(
        seeds=args.seed or (),
        only=args.only,
        progress=lambda c: print(c.line(), file=sys.stderr, flush=True),
    )
    print(json.dumps(report.to_dict()))
    print(report.summary().splitlines()[-1], file=sys.stderr)
    return EXIT_OK if not report.failures else EXIT_VERIFY


def cmd_examples(_args) -> int:
    out = {"builtins": {
        name: {"params": info["params"], "about": info["about"]}
        for name, info in sorted(BUILTINS.items())
    }}
    print(json.dumps(out, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argument misuse is an input error (exit 1); exit 2 is reserved for
    # solver failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nszcap",
        description="No-signalling-assisted zero-error capacities of quantum channels.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one capacity quantity")
    pc.add_argument("--channel", help="path to a channel document (JSON)")
    pc.add_argument("--builtin", help="builtin channel, e.g. example4:alpha_sq=0.75")
    pc.add_argument("--quantity", required=True, choices=sorted(QUANTITIES))
    pc.add_argument("--witness", action="store_true", help="include witness matrices")
    pc.set_defaults(fn=cmd_compute)

    pv = sub.add_parser("verify", help="run the theorem-verification suite")
    pv.add_argument("--seed", type=int, action="append",
                    help="random-instance seed (repeatable; none = built-ins only)")
    pv.add_argument("--only", help="run a single check by name")
    pv.set_defaults(fn=cmd_verify)

    pe = sub.add_parser("examples", help="list builtin channels")
    pe.set_defaults(fn=cmd_examples)
    return ap


# parsing leaves the parser unchanged, so one instance serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, gs.DimensionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except np.linalg.LinAlgError as exc:
        print(f"solver failure: linear algebra error ({exc})", file=sys.stderr)
        return EXIT_SOLVER
    except BrokenProcessPool as exc:
        print(f"solver failure: a solver process died ({exc})", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
