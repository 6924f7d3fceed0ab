"""Command-line front end.

Subcommands parse states from JSON-shaped state files, run classification,
invariant computation, seeded monotonicity trials, partial-order queries,
and protocol demonstrations, and emit deterministic machine-readable
reports (sorted keys, floats at 17 significant digits, byte-stable for
identical arguments and seed).

Exit codes: 0 success, 1 usage or input error (message on stderr) or a
failed monotone trial (report on stdout), 2 unresolved decision (a class-
boundary distance inside the unresolved band, or an illegal rank signature).

Environment fallbacks (flags win): ENTCLASS_DISTANCE_EPS, ENTCLASS_SEED.

Party indices are 1-based on this boundary (r1, r2, r3 in reports,
--party {1,2,3}); the library underneath is 0-based.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .classify import (
    classify,
    partial_order,
    reachable,
    witness_map,
)
from .errors import AmbiguityError, EntclassError, StateFileError
from .invariants import (
    KNOWN_STABILIZER_DIMS,
    InvariantReport,
    invariant_report,
    nonlocal_dimension,
)
from .labels import ClassLabel
from .monotone import MEASURES, monte_carlo
from .numerics import DEFAULT_POLICY, TolerancePolicy
from .protocols import (
    _DISTILL_BRANCHES,
    ProtocolOutcome,
    _distill_key,
    distill_from_generic,
    entanglement_swap,
)
from .tensor import LocalOperation, StateTensor, _scaled_norm, make_state, representative

SCHEMA = "entclass-report/1"

ENV_DISTANCE_EPS = "ENTCLASS_DISTANCE_EPS"
ENV_SEED = "ENTCLASS_SEED"


class UsageError(Exception):
    pass


class _Exit(Exception):
    """--help or --version finished the request; args[0] is the status."""


class _Parser(argparse.ArgumentParser):
    """argparse that hands usage problems and exits back to ``run``."""

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        raise _Exit(status)  # argparse passes a message only from error()


# ---------------------------------------------------------------------------
# Deterministic rendering


_quote = json.encoder.encode_basestring_ascii  # what json.dumps(str) returns


def render(value: Any, indent: int = 0) -> str:
    """Canonical JSON text: sorted keys, floats at 17 significant digits."""
    parts: list[str] = []
    emit = parts.append

    def walk(value, pad):  # builtin types by exact type, the commonest first
        kind = type(value)
        if kind is str:
            return emit(_quote(value))
        if kind is float:
            if not math.isfinite(value):
                raise ValueError(f"cannot serialize non-finite float {value}")
            return emit(format(value, ".17g"))
        if kind is dict:
            if not value:
                return emit("{}")
            inner = pad + "  "
            sep = "{\n" + inner
            for k in sorted(value, key=str):
                emit(sep + _quote(str(k)) + ": ")
                walk(value[k], inner)
                sep = ",\n" + inner
            return emit("\n" + pad + "}")
        if kind is list:
            if not value:
                return emit("[]")
            inner = pad + "  "
            sep = "[\n" + inner
            for item in value:
                emit(sep)
                walk(item, inner)
                sep = ",\n" + inner
            return emit("\n" + pad + "]")
        if kind is int:
            return emit(str(value))
        if kind is bool or value is None:
            return emit("null" if value is None else "true" if value else "false")
        return walk(_builtin(value), pad)

    walk(value, "  " * indent)
    return "".join(parts)


def _builtin(value: Any) -> Any:
    """The builtin value ``render`` writes for any other value: a subclass, a
    numpy scalar, a tuple or a complex number. The first test it passes decides."""
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {float(value)}")
        return float(value)
    if isinstance(value, dict):
        return {k: value[k] for k in value}
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    raise TypeError(f"cannot serialize {type(value)!r}")


def _serialize_matrix(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _serialize_operation(op: LocalOperation | None) -> Any:
    if op is None:
        return None
    return {
        "factors": [_serialize_matrix(m) for m in op.factors],
        "invertible": list(op.invertible),
    }


def _serialize_invariants(report: InvariantReport, psi: StateTensor) -> dict:
    norm = report.norm
    if math.isinf(norm):  # JSON has no inf: send the norm as mantissa * 2**exp2
        norm = dict(zip(("mantissa", "exp2"), _scaled_norm(psi.amplitudes)[3:]))
    return {
        "local_ranks": list(report.local_ranks),
        "rank_rtr": report.rank_rtr,
        "singular_values_rtr": list(report.singular_values_rtr),
        "det222": report.det222,
        "det222_abs": None if report.det222 is None else abs(report.det222),
        "det223": report.det223,
        "det223_abs": None if report.det223 is None else abs(report.det223),
        "norm": norm,
        "distances": dict(report.distances),
    }


def _serialize_protocol(outcome: ProtocolOutcome) -> dict:
    return {
        "branch": outcome.branch,
        "probability": outcome.probability,
        "class": outcome.post_class.display_name,
        "grade": outcome.post_class.grade,
        "recovery": _serialize_operation(outcome.recovery),
    }


# ---------------------------------------------------------------------------
# State files


def read_state_file(path: str) -> StateTensor:
    """Parse a state file; '-' reads standard input."""
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fp:
                doc = json.load(fp)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # not UTF-8, or an integer over the str digit limit
        raise StateFileError(f"{path}: {exc}") from exc
    return parse_state_document(doc, source=path)


def _integers(obj: dict, key: str, where: str) -> tuple[int, ...]:
    """The integer array ``obj[key]``; bools, floats and strings are rejected,
    not truncated."""
    value = obj.get(key)
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        return tuple(value)
    raise StateFileError(f"{where}: {key!r} must be an array of integers, got {value!r}")


def parse_state_document(doc: Any, source: str = "<state>") -> StateTensor:
    if not isinstance(doc, dict):
        raise StateFileError(f"{source}: top level must be an object")
    dims = _integers(doc, "dims", source)
    raw = doc.get("amplitudes")
    if not isinstance(raw, list) or not raw:
        raise StateFileError(f"{source}: 'amplitudes' must be a nonempty array")
    entries = []
    for pos, item in enumerate(raw):
        where = f"{source}: amplitudes[{pos}]"
        if not isinstance(item, dict):
            raise StateFileError(f"{where}: expected an object")
        index = _integers(item, "index", where)
        parts = [item.get("re", 0.0), item.get("im", 0.0)]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
            raise StateFileError(f"{where}: 're' and 'im' must be numbers, got {parts!r}")
        try:
            entries.append((index, complex(*parts)))
        except OverflowError:
            raise StateFileError(f"{where}: 're' and 'im' exceed the float range") from None
    try:
        state = make_state(dims, entries)
    except EntclassError as exc:
        raise StateFileError(f"{source}: {exc}") from exc
    normalize = doc.get("normalize", True)
    if not isinstance(normalize, bool):
        raise StateFileError(
            f"{source}: 'normalize' must be true or false, got {normalize!r}"
        )
    if normalize:
        state = state.normalize()
    return state


def state_document(psi: StateTensor, normalize: bool = True) -> dict:
    """The state-file document for a tensor, nonzero amplitudes only."""
    amplitudes = []
    for index in np.ndindex(*psi.dims):
        value = psi.amplitudes[index]
        if value != 0:
            amplitudes.append(
                {
                    "index": [int(i) for i in index],
                    "re": float(value.real),
                    "im": float(value.imag),
                }
            )
    return {"dims": list(psi.dims), "amplitudes": amplitudes, "normalize": normalize}


# ---------------------------------------------------------------------------
# Argument plumbing


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The process's one parser and its subcommand parsers by name, built on
    first use; they keep no request state."""
    parser = _Parser(prog="entclass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"entclass {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, text in (
        ("classify", "classify a state file"),
        ("invariants", "invariant report for a state file"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--distance-eps", type=float, default=None)

    p = sub.add_parser("monotone", help="seeded averaged-measure trials")
    p.add_argument("--measure", choices=sorted(MEASURES), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--party", type=int, choices=(1, 2, 3), default=None)

    p = sub.add_parser("order", help="reachability and witnesses, or the full DAG")
    p.add_argument("--from", dest="from_label", default=None)
    p.add_argument("--to", dest="to_label", default=None)
    p.add_argument("--dump", action="store_true")

    sub.add_parser("swap", help="entanglement-swapping trace")

    p = sub.add_parser("distill", help="distillation trace from the generic class")
    p.add_argument("--target", type=_distill_key, choices=list(_DISTILL_BRANCHES), required=True)

    p = sub.add_parser("rep", help="write a class representative state file")
    p.add_argument("--class", dest="class_label", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("dim", help="nonlocal parameter count of a format")
    p.add_argument("--dims", required=True)
    p.add_argument("--delta", type=int, default=None)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``'s namespace. An argv naming a subcommand first
    goes straight to that subcommand's parser, as the top-level parser sends it;
    ``_Parser.error`` drops ``prog``, so the messages are the same."""
    parser, subparsers = _build_parser()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.subcommand = argv[0]
    return args


def _flag_or_env(flag, name: str, cast, default):
    """The flag if given, else the environment variable ``name``, else ``default``."""
    if flag is not None:
        return flag
    env = os.environ.get(name)
    try:
        return cast(env) if env else default
    except ValueError:
        raise UsageError(f"{name}={env!r} is not a valid {cast.__name__}") from None


def _policy_from(args) -> TolerancePolicy:
    eps = _flag_or_env(args.distance_eps, ENV_DISTANCE_EPS, float, DEFAULT_POLICY.distance_eps)
    return TolerancePolicy(eps)


def _emit(doc: Any, out=None) -> None:
    (out or sys.stdout).write(render(doc) + "\n")


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns (result, exit code) for the envelope


def _cmd_state(args, policy, seed) -> tuple[dict, int]:
    """classify and invariants: one state file, one invariant report."""
    psi = read_state_file(args.infile)
    if args.subcommand == "invariants":
        return {"invariants": _serialize_invariants(invariant_report(psi, policy), psi)}, 0
    label, report = classify(psi, policy)
    result = {
        "label": label.display_name,
        "grade": label.grade,
        "invariants": _serialize_invariants(report, psi),
    }
    return result, 0


def _cmd_monotone(args, policy, seed) -> tuple[dict, int]:
    party = None if args.party is None else args.party - 1
    summary = monte_carlo(args.measure, args.trials, seed, party=party)
    result = {
        "measure": summary.measure,
        "trials": summary.trials,
        "party": None if summary.party is None else summary.party + 1,
        "min_slack": summary.min_slack,
        "min_slack_trial": summary.min_slack_trial,
        "min_slack_seed": [summary.seed, summary.min_slack_trial],
        "min_slack_measure_before": summary.min_slack_before,
        "failures": summary.failures,
        "pass": summary.passed,
    }
    return result, 0 if summary.passed else 1


def _cmd_order(args, policy, seed) -> tuple[dict, int]:
    if (args.dump, args.dump) != (not args.from_label, not args.to_label):
        raise UsageError("use either --dump or both --from and --to")
    if args.dump:
        result = {
            "nodes": [
                {"label": label.display_name, "grade": label.grade}
                for label in ClassLabel
            ],
            "edges": [
                [a.display_name, b.display_name] for a, b in partial_order()
            ],
        }
        return result, 0
    src = ClassLabel.parse(args.from_label)
    dst = ClassLabel.parse(args.to_label)
    witness, chain = witness_map(src, dst) or (None, None)
    result = {
        "from": src.display_name,
        "to": dst.display_name,
        "reachable": reachable(src, dst),
        "grade_from": src.grade,
        "grade_to": dst.grade,
        "witness_chain": None if chain is None else [c.display_name for c in chain],
        "witness": _serialize_operation(witness),
    }
    return result, 0


def _cmd_swap(args, policy, seed) -> tuple[dict, int]:
    branches = entanglement_swap()
    result = {
        "initial_class": ClassLabel.GEN224.display_name,
        "branches": [_serialize_protocol(b) for b in branches],
        "probability_sum": float(sum(b.probability for b in branches)),
    }
    return result, 0


def _cmd_distill(args, policy, seed) -> tuple[dict, int]:
    result = {
        "target": args.target,
        "initial_class": ClassLabel.GEN224.display_name,
        "branch": _serialize_protocol(distill_from_generic(args.target)),
    }
    return result, 0


def _cmd_dim(args, policy, seed) -> tuple[dict, int]:
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError:
        raise UsageError(f"malformed --dims {args.dims!r}") from None
    delta = args.delta
    if delta is None:
        if dims not in KNOWN_STABILIZER_DIMS:
            raise UsageError(
                f"no documented stabilizer dimension for {dims}; pass --delta"
            )
        delta = KNOWN_STABILIZER_DIMS[dims]
    return dataclasses.asdict(nonlocal_dimension(dims, delta)), 0


def _cmd_rep(args) -> int:
    """Write a state document, not a report envelope."""
    doc = state_document(representative(args.class_label, args.n))
    if args.out == "-":
        _emit(doc)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fp:
            _emit(doc, out=fp)
    except OSError as exc:
        raise StateFileError(f"cannot write {args.out}: {exc}") from exc
    return 0


_COMMANDS = {
    "classify": _cmd_state,
    "invariants": _cmd_state,
    "monotone": _cmd_monotone,
    "order": _cmd_order,
    "swap": _cmd_swap,
    "distill": _cmd_distill,
    "dim": _cmd_dim,
}


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns its exit code, --help and --version too."""
    argv = list(argv)
    try:
        args = _parse(argv)
        if args.subcommand == "rep":
            return _cmd_rep(args)
        # The tolerances and the seed are read, and reported, only where a
        # subcommand has the flag for them.
        policy = _policy_from(args) if "distance_eps" in vars(args) else None
        seed = _flag_or_env(args.seed, ENV_SEED, int, 0) if "seed" in vars(args) else None
        result, code = _COMMANDS[args.subcommand](args, policy, seed)
        _emit(
            {
                "schema": SCHEMA,
                "command": argv,
                "seed": seed,
                "tolerances": None if policy is None else dict(vars(policy)),
                "result": result,
            }
        )
        return code
    except _Exit as exc:
        return exc.args[0]
    except (UsageError, EntclassError, ValueError) as exc:
        print(f"entclass: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, AmbiguityError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
