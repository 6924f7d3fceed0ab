"""Command-line front end.

Subcommands parse states from JSON-shaped state files, run classification,
invariant computation, seeded monotonicity trials, partial-order queries,
and protocol demonstrations, and emit deterministic machine-readable
reports (sorted keys, floats at 17 significant digits, byte-stable for
identical arguments and seed).

Exit codes: 0 success, 1 usage or input error, 2 numerical ambiguity
(the classifier's determinant and rank cross-check disagreed).

Environment fallbacks (flags win): ENTCLASS_RANK_EPS, ENTCLASS_DET_EPS,
ENTCLASS_SEED.

Party indices are 1-based on this boundary (r1, r2, r3 in reports,
--party {1,2,3}); the library underneath is 0-based.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__
from .classify import (
    classify,
    grade,
    hasse_edges,
    reachable,
    witness_chain,
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
from .monotone import monte_carlo
from .numerics import DEFAULT_POLICY, TolerancePolicy
from .protocols import ProtocolOutcome, distill_from_generic, entanglement_swap
from .tensor import LocalOperation, StateTensor, make_state, representative

SCHEMA = "entclass-report/1"

ENV_RANK_EPS = "ENTCLASS_RANK_EPS"
ENV_DET_EPS = "ENTCLASS_DET_EPS"
ENV_SEED = "ENTCLASS_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Deterministic rendering


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


def render(value: Any, indent: int = 0) -> str:
    """Canonical JSON text: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{inner}{json.dumps(str(k))}: {render(value[k], indent + 1)}'
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        parts = [f"{inner}{render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, (bool, np.bool_)) or value is None:
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return render({"re": float(value.real), "im": float(value.imag)}, indent)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _serialize_matrix(m: np.ndarray) -> dict:
    return {
        "re": [[float(x.real) for x in row] for row in m],
        "im": [[float(x.imag) for x in row] for row in m],
    }


def _serialize_operation(op: LocalOperation | None) -> Any:
    if op is None:
        return None
    return {
        "factors": [_serialize_matrix(m) for m in op.factors],
        "invertible": list(op.invertible),
    }


def _serialize_invariants(report: InvariantReport) -> dict:
    return {
        "local_ranks": list(report.local_ranks),
        "rank_rtr": report.rank_rtr,
        "singular_values_rtr": [float(s) for s in report.singular_values_rtr],
        "det222": report.det222,
        "det222_abs": None if report.det222 is None else abs(report.det222),
        "det223": report.det223,
        "det223_abs": None if report.det223 is None else abs(report.det223),
        "norm": report.norm,
        "margins": dict(report.margins),
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
        try:
            value = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        except (TypeError, ValueError):
            raise StateFileError(f"{where}: malformed re/im") from None
        entries.append((index, value))
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="entclass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"entclass {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_eps(p):
        p.add_argument("--rank-eps", type=float, default=None)
        p.add_argument("--det-eps", type=float, default=None)

    p = sub.add_parser("classify", help="classify a state file")
    p.add_argument("--in", dest="infile", required=True)
    add_eps(p)

    p = sub.add_parser("invariants", help="invariant report for a state file")
    p.add_argument("--in", dest="infile", required=True)
    add_eps(p)

    p = sub.add_parser("monotone", help="seeded averaged-measure trials")
    p.add_argument("--measure", choices=sorted(["det222", "det223"]), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--party", type=int, choices=(1, 2, 3), default=None)

    p = sub.add_parser("order", help="reachability and witnesses, or the full DAG")
    p.add_argument("--from", dest="from_label", default=None)
    p.add_argument("--to", dest="to_label", default=None)
    p.add_argument("--dump", action="store_true")

    sub.add_parser("swap", help="entanglement-swapping trace")

    p = sub.add_parser("distill", help="distillation trace from the generic class")
    p.add_argument("--target", choices=["GHZ", "W", "BELL_AB"], required=True)

    p = sub.add_parser("rep", help="write a class representative state file")
    p.add_argument("--class", dest="class_label", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("dim", help="nonlocal parameter count of a format")
    p.add_argument("--dims", required=True)
    p.add_argument("--delta", type=int, default=None)

    return parser


def _policy_from(args) -> TolerancePolicy:
    rank_eps, det_eps = args.rank_eps, args.det_eps
    if rank_eps is None:
        env = os.environ.get(ENV_RANK_EPS)
        rank_eps = float(env) if env else DEFAULT_POLICY.rank_rel_eps
    if det_eps is None:
        env = os.environ.get(ENV_DET_EPS)
        det_eps = float(env) if env else DEFAULT_POLICY.det_rel_eps
    return TolerancePolicy(rank_rel_eps=rank_eps, det_rel_eps=det_eps)


def _seed_from(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get(ENV_SEED)
        seed = int(env) if env else 0
    return int(seed)


def _emit(doc: Any, out=None) -> None:
    (out or sys.stdout).write(render(doc) + "\n")


def _report(argv: Sequence[str], policy: TolerancePolicy | None, seed, result) -> dict:
    """The report envelope; ``policy`` is None where no tolerance applies."""
    return {
        "schema": SCHEMA,
        "command": list(argv),
        "seed": seed,
        "tolerances": None if policy is None else dataclasses.asdict(policy),
        "result": result,
    }


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_classify(argv, args) -> int:
    policy = _policy_from(args)
    psi = read_state_file(args.infile)
    label, report = classify(psi, policy)
    result = {
        "label": label.display_name,
        "grade": label.grade,
        "invariants": _serialize_invariants(report),
    }
    _emit(_report(argv, policy, None, result))
    return 0


def _cmd_invariants(argv, args) -> int:
    policy = _policy_from(args)
    psi = read_state_file(args.infile)
    report = invariant_report(psi, policy)
    _emit(_report(argv, policy, None, {"invariants": _serialize_invariants(report)}))
    return 0


def _cmd_monotone(argv, args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    seed = _seed_from(args)
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
    _emit(_report(argv, None, seed, result))
    return 0 if summary.passed else 1


def _cmd_order(argv, args) -> int:
    if args.dump == bool(args.from_label and args.to_label):
        raise UsageError("use either --dump or both --from and --to")
    if args.dump:
        result = {
            "nodes": [
                {"label": label.display_name, "grade": label.grade}
                for label in ClassLabel
            ],
            "edges": [
                [a.display_name, b.display_name] for a, b in hasse_edges()
            ],
        }
    else:
        try:
            src = ClassLabel.parse(args.from_label)
            dst = ClassLabel.parse(args.to_label)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        ok = reachable(src, dst)
        witness = witness_map(src, dst) if (ok and src != dst) else None
        chain = witness_chain(src, dst) if (ok and src != dst) else None
        result = {
            "from": src.display_name,
            "to": dst.display_name,
            "reachable": ok,
            "grade_from": src.grade,
            "grade_to": dst.grade,
            "witness_chain": None if chain is None else [c.display_name for c in chain],
            "witness": _serialize_operation(witness),
        }
    _emit(_report(argv, None, None, result))
    return 0


def _cmd_swap(argv, args) -> int:
    branches = entanglement_swap()
    result = {
        "initial_class": ClassLabel.GEN224.display_name,
        "branches": [_serialize_protocol(b) for b in branches],
        "probability_sum": float(sum(b.probability for b in branches)),
    }
    _emit(_report(argv, None, None, result))
    return 0


def _cmd_distill(argv, args) -> int:
    outcome = distill_from_generic(args.target)
    result = {
        "target": args.target,
        "initial_class": ClassLabel.GEN224.display_name,
        "branch": _serialize_protocol(outcome),
    }
    _emit(_report(argv, None, None, result))
    return 0


def _cmd_rep(argv, args) -> int:
    try:
        label = ClassLabel.parse(args.class_label)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    n = args.n if args.n is not None else max(2, label.min_clare_dim)
    psi = representative(label, n)
    doc = state_document(psi)
    if args.out == "-":
        _emit(doc)
    else:
        with open(args.out, "w", encoding="utf-8") as fp:
            _emit(doc, out=fp)
    return 0


def _cmd_dim(argv, args) -> int:
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
    count = nonlocal_dimension(dims, delta)
    result = {
        "dims": list(count.dims),
        "delta": count.delta,
        "raw": count.raw,
        "nonnegative": count.nonnegative,
    }
    _emit(_report(argv, None, None, result))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
    "monotone": _cmd_monotone,
    "order": _cmd_order,
    "swap": _cmd_swap,
    "distill": _cmd_distill,
    "rep": _cmd_rep,
    "dim": _cmd_dim,
}


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](argv, args)
    except UsageError as exc:
        print(f"entclass: {exc}", file=sys.stderr)
        return 1
    except AmbiguityError as exc:
        print(f"entclass: {exc}", file=sys.stderr)
        return 2
    except (StateFileError, EntclassError, ValueError) as exc:
        print(f"entclass: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
