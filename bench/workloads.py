"""The benchmark workloads: inputs made from a seed, one operation, checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns. Inputs are generated during set-up from the
workload seed with the library's public functions only (``RandomSource``,
``random_sl``, ``random_unitary``, ``representative``, ``apply_local``), so
the timed loop measures the library and nothing else.

A workload exposes ``items`` (one pass of inputs), ``run(item)`` (one
operation, returning its output or raising) and ``check(index, output)``,
which returns ``None`` or a one-line reason the output of ``items[index]``
is wrong. The loop checks each output as it arrives, outside the timed
call, and keeps no output: a workload that needs more than the verdict
folds it into state of a fixed size while it checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

import entclass as ec
import entclass.cli

#: The checkout holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Classes in a fixed order; operations visit them round-robin.
LABELS = tuple(ec.ClassLabel)

#: Largest per-factor condition number of the classify-dressed dressing. At 10
#: the calibration sweep in ROADMAP.md saw no failure in 900 states; heavier
#: dressing is the conditioning axis of ``explore.py``'s classify-domain.
DRESSED_MAX_COND = 10.0


def natural_n(label: ec.ClassLabel) -> int:
    return max(2, label.min_clare_dim)


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()[:16]


def dressing(dims, gen, max_cond: float) -> ec.LocalOperation:
    """Random invertible local maps (criterion 2's shape), redrawn until every
    factor's condition number is at most ``max_cond``."""
    while True:
        factors = tuple(ec.random_sl(k, gen) for k in dims)
        if max(np.linalg.cond(f) for f in factors) <= max_cond:
            return ec.LocalOperation(factors)


class _Classify:
    """The loop body of the classify workloads: item = (label, state)."""

    units = 1

    def run(self, item):
        return ec.classify(item[1])[0]

    def check(self, index, label):
        expected = self.items[index][0]
        return None if label == expected else f"labelled {label}, expected {expected}"

    def warm_up(self):
        for label in LABELS:
            ec.classify(ec.representative(label, natural_n(label)))

    def fingerprint(self) -> str:
        return _digest(*(psi.amplitudes.tobytes() for _, psi in self.items))


class ClassifyDressed(_Classify):
    name = "classify-dressed"
    per_class = 120

    def __init__(self, seed: int, work_dir: Path):
        self.items = []
        self.origin = []
        reps = {label: ec.representative(label, natural_n(label)) for label in LABELS}
        for i in range(self.per_class):
            for c, label in enumerate(LABELS):
                stream = c * self.per_class + i
                gen = ec.RandomSource(seed, stream).generator()
                op = dressing(reps[label].dims, gen, DRESSED_MAX_COND)
                self.items.append((label, ec.apply_local(op, reps[label])))
                self.origin.append(f"RandomSource({seed}, {stream}) {label}")


class McOutcome(NamedTuple):
    det222: Any  # MonteCarloSummary of the det222 chunk
    det223: Any  # MonteCarloSummary of the det223 chunk
    det222_ns: int  # time spent in the det222 chunk
    det223_ns: int  # time spent in the det223 chunk


class MonteCarlo:
    """One operation is a det222 chunk then a det223 chunk of ``monte_carlo``,
    each with its own seed and party drawn from the workload seed."""

    name = "monte-carlo"
    pairs = 64
    trials = 12
    units = 2 * trials

    def __init__(self, seed: int, work_dir: Path):
        self.first: dict[int, tuple] = {}
        self.verdict: dict[int, str | None] = {}
        #: Each chunk's fastest visit, det222 and det223, for the per-measure rates.
        self.best_ns: dict[str, list[int]] = {m: [0] * self.pairs for m in ("det222", "det223")}
        self.items = []
        for i in range(self.pairs):
            chunks = []
            for j, measure in enumerate(("det222", "det223")):
                gen = ec.RandomSource(seed, 2 * i + j).generator()
                chunk_seed = int(gen.integers(0, 2**63))
                party = (None, 0, 1, 2)[int(gen.integers(0, 4))]
                chunks.append((measure, chunk_seed, party))
            self.items.append(tuple(chunks))

    def run(self, item):
        (m1, seed1, party1), (m2, seed2, party2) = item
        start = time.perf_counter_ns()
        first = ec.monte_carlo(m1, self.trials, seed1, party=party1)
        middle = time.perf_counter_ns()
        second = ec.monte_carlo(m2, self.trials, seed2, party=party2)
        return McOutcome(first, second, middle - start, time.perf_counter_ns() - middle)

    def warm_up(self):
        for measure in ("det222", "det223"):
            ec.monte_carlo(measure, 2, 0)

    def fingerprint(self) -> str:
        return _digest(self.items)

    def check(self, index, out):
        for measure, ns in (("det222", out.det222_ns), ("det223", out.det223_ns)):
            best = self.best_ns[measure]
            best[index] = ns if best[index] == 0 else min(best[index], ns)
        summaries = out[:2]
        if index not in self.verdict:
            self.first[index] = summaries
            checks = (self._check_chunk(c, m) for c, m in zip(self.items[index], summaries))
            self.verdict[index] = next((c for c in checks if c), None)
        if self.verdict[index] is None and summaries != self.first[index]:
            return "a repeat of the chunks gave a different summary"
        return self.verdict[index]

    @staticmethod
    def _check_chunk(chunk, summary) -> str | None:
        measure, chunk_seed, party = chunk
        if measure == "det222" and summary.failures != 0:
            return f"det222 chunk seed {chunk_seed} reports {summary.failures} violations"
        # Replay the minimum-slack trial alone; it must reproduce bit for bit.
        _, dims, _ = ec.MEASURES[measure]
        gen = ec.RandomSource(chunk_seed, summary.min_slack_trial).generator()
        psi = ec.random_state(dims, gen)
        p = int(gen.integers(0, 3)) if party is None else party
        pair = ec.random_povm_pair(dims[p], gen, party=p)
        chk = ec.check_monotone(psi, pair, measure)
        if chk.slack != summary.min_slack or chk.before != summary.min_slack_before:
            return (
                f"replay of {measure} ({chunk_seed}, {summary.min_slack_trial}) gave slack "
                f"{chk.slack!r}, summary says {summary.min_slack!r}"
            )
        return None

    def violations(self) -> int:
        """det223 violations in one pass: an output count, not a failure.
        Every visit of a chunk must repeat its first summary, so one pass's
        count is the first visits' count."""
        return sum(first.failures for _, first in self.first.values())


def cli_env() -> dict:
    """The CLI's environment: the checkout's sources, no tolerance overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENTCLASS_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliOutcome(NamedTuple):
    code: int
    report: Any  # the parsed JSON report, when the exit code is 0
    stderr: str


class CliRequests:
    """A seeded mix of CLI requests and the check of each report; the
    workloads below differ only in how a request runs."""

    units = 1

    def __init__(self, seed: int, work_dir: Path):
        gen = ec.RandomSource(seed, 0).generator()
        items = []
        for label in LABELS:
            path = work_dir / f"{label.name}.json"
            doc = entclass.cli.state_document(ec.representative(label, natural_n(label)))
            path.write_text(json.dumps(doc), encoding="utf-8")
            items.append((["classify", "--in", str(path)], ("label", label.display_name)))
            items.append((["invariants", "--in", str(path)], ("ranks", list(label.rank_signature))))
        for _ in range(3):
            a, b = (LABELS[int(i)] for i in gen.choice(len(LABELS), size=2, replace=False))
            expect = ("order", a.display_name, b.display_name, ec.reachable(a, b))
            items.append((["order", "--from", a.name, "--to", b.name], expect))
        items.append((["swap"], ("swap",)))
        for target, cls in (("GHZ", "GHZ"), ("W", "W"), ("BELL_AB", "B3")):
            items.append((["distill", "--target", target], ("branch", cls)))
        party = int(gen.integers(0, 4))
        seed_arg = str(int(gen.integers(0, 2**31)))
        monotone = ["monotone", "--measure", "det222", "--trials", "20", "--seed", seed_arg]
        items.append((monotone + (["--party", str(party)] if party else []), ("monotone",)))
        self.items = [items[int(i)] for i in gen.permutation(len(items))]

    def fingerprint(self) -> str:
        return _digest([[Path(a).name for a in argv] for argv, _ in self.items])

    def check(self, index, out: CliOutcome) -> str | None:
        argv, expect = self.items[index]
        if out.code != 0 or out.report is None:
            return f"{' '.join(argv)} exited {out.code}: {out.stderr.strip()[:200]}"
        result = out.report["result"]
        kind = expect[0]
        if kind == "label":
            ok = result["label"] == expect[1]
        elif kind == "branch":
            ok = result["branch"]["class"] == expect[1]
        elif kind == "ranks":
            ok = result["invariants"]["local_ranks"] == expect[1]
        elif kind == "order":
            chain = result["witness_chain"]
            ok = result["reachable"] == expect[3] and (
                chain is None if not expect[3] else chain[0] == expect[1] and chain[-1] == expect[2]
            )
        elif kind == "swap":
            ok = all(b["class"] == "B3" for b in result["branches"]) and len(result["branches"]) == 4
            ok = ok and math.isclose(result["probability_sum"], 1.0, abs_tol=1e-12)
        else:
            ok = result["pass"] is True and result["failures"] == 0
        return None if ok else f"{' '.join(argv)}: unexpected report {json.dumps(result)[:200]}"


class CliInProcess(CliRequests):
    """The requests through ``entclass.cli.run`` in this process: argument
    parsing, state files, the library and rendering, without the interpreter
    start-up and imports of a fresh process (``explore.py``'s cli-mix)."""

    name = "cli-inproc"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        for key in [k for k in os.environ if k.startswith("ENTCLASS_")]:
            del os.environ[key]  # the CLI reads tolerance and seed overrides here

    def warm_up(self):
        for item in self.items:
            self.run(item)

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entclass.cli.run(item[0])
        text = out.getvalue()
        return CliOutcome(code, json.loads(text) if code == 0 and text else None, err.getvalue())


WORKLOADS = {w.name: w for w in (ClassifyDressed, MonteCarlo, CliInProcess)}
