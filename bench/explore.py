"""Exploratory workloads: run like the benchmark's, not registered in it.

    python3 bench/explore.py --workload classify-domain|cli-mix --seed N --seconds S

Both are closed loops with one caller, built from ``--seed`` with the
library's public functions, with every output checked, as in ``run.py``.
They stay out of ``BENCHMARK.json`` for reasons the numbers give:

- classify-domain: most of its operations fail at the library as it stood
  when the benchmark was added, and a registered workload must have none
  fail. It reports the failures split by domain axis and by error instead.
- cli-mix: the run-to-run spread of whole-process timings was above the
  largest bound a registered metric may have. Start-up is measured in
  every traced run of the benchmark as ``cli.startup_ms``.

The run prints each named figure with its unit and sample count and ends
with one JSON line ``{"workload", "seed", "named"}``. It runs untraced only.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

EXPLORE_NAMES = ("classify-domain", "cli-mix")

DOMAIN_ERRORS = (
    "FormatError",
    "ZeroStateError",
    "NormalizationError",
    "NumericalInstabilityError",
    "AmbiguityError",
)


def make_workloads():
    """The workload classes; they import the library, so build them late."""
    import numpy as np

    import entclass as ec
    import workloads as w

    def conditioned_factor(k: int, cond: float, gen) -> np.ndarray:
        """U diag(sigma) V with Haar U, V and singular values from 1 down to 1/cond."""
        sigma = cond ** (-np.arange(k) / (k - 1)) if k > 1 else np.ones(1)
        return ec.random_unitary(k, gen) @ np.diag(sigma) @ ec.random_unitary(k, gen)

    class ClassifyDomain(w._Classify):
        """Each item varies one axis of the documented domain, the others benign:
        Clare dimension n up to ``MAX_LEVELS``, amplitude scale 10^u with u in
        [-300, 300], or a per-factor condition number log-uniform in [1, 1e6]."""

        name = "classify-domain"
        per_axis = 600
        axes = ("n", "scale", "cond")

        def __init__(self, seed: int, work_dir: Path):
            self.items = []
            self.axis_of = []
            self.origin = []
            for i in range(self.per_axis):
                label = w.LABELS[i % len(w.LABELS)]
                for a, axis in enumerate(self.axes):
                    stream = a * self.per_axis + i
                    gen = ec.RandomSource(seed, stream).generator()
                    self.items.append((label, self._make(axis, label, gen)))
                    self.axis_of.append(axis)
                    self.origin.append(f"RandomSource({seed}, {stream}) {label} axis {axis}")

        @staticmethod
        def _make(axis, label, gen) -> ec.StateTensor:
            if axis == "n":
                n = int(gen.integers(w.natural_n(label), ec.MAX_LEVELS + 1))
                psi = ec.representative(label, n)
                qubits = w.dressing((2, 2), gen, w.DRESSED_MAX_COND).factors
                return ec.apply_local(ec.LocalOperation((*qubits, ec.random_unitary(n, gen))), psi)
            psi = ec.representative(label, w.natural_n(label))
            if axis == "scale":
                dressed = ec.apply_local(w.dressing(psi.dims, gen, w.DRESSED_MAX_COND), psi).normalize()
                exponent = float(gen.uniform(-300.0, 300.0))
                return ec.StateTensor(psi.dims, dressed.amplitudes * 10.0**exponent)
            conds = 10.0 ** gen.uniform(0.0, 6.0, size=3)
            op = ec.LocalOperation(tuple(conditioned_factor(k, c, gen) for k, c in zip(psi.dims, conds)))
            return ec.apply_local(op, psi)

    class CliMix(w.CliRequests):
        """The cli-inproc requests, each as one ``python -m entclass`` process."""

        name = "cli-mix"

        def __init__(self, seed: int, work_dir: Path):
            super().__init__(seed, work_dir)
            self.work_dir = work_dir
            self.env = w.cli_env()
            self.peak_rss_kib = 0  # the largest peak of the entclass processes

        def warm_up(self):
            self.run(self.items[0])

        def run(self, item):
            out_path = self.work_dir / "stdout.txt"
            err_path = self.work_dir / "stderr.txt"
            with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
                proc = subprocess.Popen([sys.executable, "-m", "entclass", *item[0]],
                                        stdout=fo, stderr=fe, env=self.env, cwd=bench.ROOT)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            text = out_path.read_text(encoding="utf-8")
            report = json.loads(text) if proc.returncode == 0 and text else None
            return w.CliOutcome(proc.returncode, report, err_path.read_text(encoding="utf-8"))

    return {cls.name: cls for cls in (ClassifyDomain, CliMix)}


def domain_split(wl, stats) -> dict:
    """Failed inputs over inputs per axis, and failing inputs per kind. A
    classification is deterministic, so an input fails on every visit or
    on none, and its first reason stands for all of them."""
    inputs = {axis: wl.axis_of.count(axis) for axis in wl.axes}
    failed = dict.fromkeys(wl.axes, 0)
    kinds = dict.fromkeys((*DOMAIN_ERRORS, "wrong_label", "other"), 0)
    for index, reason in stats.reasons.items():
        failed[wl.axis_of[index]] += 1
        kind = reason.split(":", 1)[0]
        kinds[kind if kind in kinds else "wrong_label" if reason.startswith("labelled ") else "other"] += 1
    out = {f"domain.{axis}.failed_frac": failed[axis] / inputs[axis] for axis in wl.axes}
    out.update({f"domain.{kind}.count": count for kind, count in kinds.items()})
    return out


def main(argv=None) -> int:
    args = bench.parse_args(argv, EXPLORE_NAMES)
    if args.workload == "all" or args.trace:
        sys.exit("explore: name one workload; these run untraced")
    bench.import_library()
    bench.WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench.WORK_DIR))
    try:
        wl = make_workloads()[args.workload](args.seed, work_dir)
        wl.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "inputs": wl.fingerprint()}))
            return 0
        print(f"inputs {wl.fingerprint()} ({len(wl.items)} per pass, seed {args.seed})")
        print("provenance " + json.dumps(bench.provenance(), sort_keys=True))
        stats = bench.closed_loop(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    s = bench.summarize(wl, stats)
    best, tail = bench.sample_notes(s)
    print(f"{wl.name} seed={args.seed}: closed loop, 1 caller, {args.seconds:g} s")
    if wl.name == "classify-domain":
        good = len(wl.items) - len(stats.reasons)
        named = [("goodput_per_s", good * s["ops_per_s"] / len(wl.items), "1/s", f"correct classifications; {best}"),
                 ("classify_per_s", s["ops_per_s"], "1/s", f"failed calls included; {best}"),
                 ("peak_rss_mib", s["peak_rss_mib"], "MiB", "peak of the workload process")]
        named += [(k, v, "ratio" if k.endswith("frac") else "count", f"over n={len(wl.items)} inputs")
                  for k, v in domain_split(wl, stats).items()]
    else:
        named = [("process_per_s", s["ops_per_s"], "1/s", best),
                 ("process_p50_ms", s["op_p50_us"] / 1e3, "ms", best),
                 ("process_tail_ms", s["tail_us"] / 1e3, "ms", tail),
                 ("peak_rss_mib", wl.peak_rss_kib / 1024, "MiB", "largest peak of the entclass processes")]
    named += [("setup_s", setup_s, "s", "one set-up"),
              ("failed_frac", stats.failed / stats.visits, "ratio", f"{stats.failed}/{stats.visits} operations")]
    for name, value, unit, samples in named:
        bench.show(name, value, unit, samples)
    bench.list_failures(wl, stats)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "named": {n: v for n, v, _, _ in named}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
