"""entclass benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Set-up imports the library from the checkout's ``src/``, generates every
input from ``--seed`` and warms the caches. The run then calls the
workload's operation in a closed loop (one caller, one process), in whole
passes over the inputs, for at least ``--seconds``; it checks every output,
prints each metric by name with its unit and sample count, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. Set-up is timed in
this process and in twelve fresh ones, one before each twelfth of the loop,
and ``setup_s`` is their median. With ``--trace 1`` the first half of the
time runs untraced and as many passes run traced, in alternating slices;
the metrics are the per-layer ones (calls and self time per operation)
plus the tracing overhead, traced minus untraced, of each end-to-end
metric. The first
traced pass's spans are written to ``bench/_out/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "_out"
WORK_DIR = BENCH / "_work"

WORKLOAD_NAMES = ("classify-dressed", "monte-carlo", "cli-inproc")

#: Fresh set-ups per plain run, one before each twelfth of the loop, so
#: that their median is taken over the machine's speed through the whole
#: run rather than over one stretch of it. Their fastest would hang on the
#: rare fast stretch: a set-up lasts up to a second, a loop visit 1-10 ms.
FRESH_SETUPS = 12

#: Untraced and traced slices of a traced run, alternating.
TRACE_SLICES = 6

#: Tail percentiles, highest first; the first with at least ten visits
#: beyond it is the one printed.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Visit times for the tail are counted in bins 1% wide from 1 us to about
#: an hour, so the loop's memory does not grow with the visits it makes.
BIN_RATIO = 1.01
N_BINS = 2200

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
)

#: Per-layer span metrics: span name -> the statistics reported for it.
SPAN_METRICS = {
    "linalg.svd": ("calls", "self_us"),
    "linalg.eig": ("calls",),
    "linalg.qr": ("calls",),
    "linalg.det": ("calls",),
    "tensor.apply_local": ("calls", "self_us"),
    "tensor.StateTensor": ("calls", "self_us"),
    "numerics.numerical_rank": ("calls", "self_us"),
    "invariants.invariant_report": ("calls", "self_us"),
    "invariants.local_ranks": ("calls", "self_us"),
    "invariants.rank_rtr": ("calls", "self_us"),
    "invariants.adjust_format": ("calls", "self_us"),
    "invariants.det222": ("calls", "self_us"),
    "invariants.det223": ("calls", "self_us"),
    "classify.classify": ("calls", "self_us"),
    "numerics.RandomSource.generator": ("calls", "self_us"),
    "numerics.random_state": ("calls", "self_us"),
    "numerics.random_unitary": ("calls", "self_us"),
    "monotone.monte_carlo": ("calls", "self_us"),
    "monotone.random_povm_pair": ("calls", "self_us"),
    "monotone.PovmPair": ("calls", "self_us"),
    "monotone.apply_povm": ("calls", "self_us"),
    "monotone.check_monotone": ("calls", "self_us"),
    "cli.run": ("self_us",),
    "cli.read_state_file": ("self_us",),
    "cli.render": ("self_us",),
    "classify.witness_map": ("self_us",),
    "protocols.entanglement_swap": ("self_us",),
    "protocols.distill_from_generic": ("self_us",),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span, stats in SPAN_METRICS.items():
        names += [(f"{span}.{s}", "count" if s == "calls" else "us") for s in stats]
    names.append(("monotone.det223.violations", "count"))
    names.append(("cli.startup_ms", "ms"))
    names += [(f"trace_overhead.{name}", unit) for name, unit in END_TO_END]
    return names


def parse_args(argv=None, workloads=WORKLOAD_NAMES):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    return args


def import_library():
    """Import entclass from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "entclass" / "__init__.py").is_file():
        sys.exit(f"bench: no library sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import entclass

    if Path(entclass.__file__).resolve().parent != (src / "entclass").resolve():
        sys.exit(f"bench: imported entclass from {entclass.__file__}, not {src}")
    return entclass


def provenance() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "cpu_model": cpu,
    }


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it, if it can."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


# ---------------------------------------------------------------------------
# The closed loop and its statistics


class LoopStats:
    """What a closed loop keeps, in memory that does not grow with the number
    of visits: each input's fastest visit, the counts, each failing input's
    first reason and a histogram of visit times for the tail."""

    def __init__(self, n_inputs: int):
        self.best_ns = [0] * n_inputs  # 0 until the input is visited
        self.visits = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[int, str] = {}
        self.bins = [0] * N_BINS
        self.passes = 0
        self.peak_rss_mib = 0.0

    def add(self, index: int, ns: int, reason: str | None, wrong: bool) -> None:
        best = self.best_ns[index]
        if best == 0 or ns < best:
            self.best_ns[index] = ns
        self.visits += 1
        self.bins[min(N_BINS - 1, int(math.log(max(ns, 1000) / 1000) / math.log(BIN_RATIO)))] += 1
        if reason is not None:
            self.failed += 1
            self.wrong += wrong
            self.reasons.setdefault(index, reason)

    def tail_ns(self, pct: float) -> float:
        """The ``pct`` percentile of the visit times, to within 1%: the upper
        edge of the bin that holds it."""
        rank = self.visits * pct / 100
        seen = 0
        for b, count in enumerate(self.bins):
            seen += count
            if seen >= rank:
                break
        return 1000 * BIN_RATIO ** (b + 1)


def closed_loop(wl, seconds=None, passes=None, tracer=None, stats=None) -> LoopStats:
    """Call the workload's operation on its inputs round-robin, one at a time.

    The loop runs whole passes over the inputs: until ``seconds`` have
    passed, finishing the pass under way, or exactly ``passes`` passes.
    Each output is checked after its call returns. An exception is recorded,
    not raised: a failed operation is data, and the loop must go on. With a
    tracer, each call is an ``op`` span, the tracer records only while a
    call runs, and each call's spans are folded into its totals after it.
    Given ``stats``, the loop adds to them rather than starting afresh.
    """
    run = wl.run if tracer is None else tracer.wrap("op", wl.run)
    stats = LoopStats(len(wl.items)) if stats is None else stats
    clock = time.perf_counter_ns
    deadline = None if seconds is None else clock() + int(seconds * 1e9)
    while clock() < deadline if passes is None else stats.passes < passes:
        for index, item in enumerate(wl.items):
            output = error = None
            if tracer is not None:
                tracer.enabled = True
            start = clock()
            try:
                output = run(item)
            except Exception as exc:  # noqa: BLE001 - recorded and counted as failed
                error = f"{type(exc).__name__}: {exc}"
            end = clock()
            if tracer is not None:
                tracer.enabled = False
                tracer.fold(keep=stats.passes == 0)
            wrong = None if error else wl.check(index, output)
            stats.add(index, end - start, error or wrong, wrong is not None)
        stats.passes += 1
    stats.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return stats


def tail_percentile(n: int) -> float:
    return next((pct for pct in TAIL_LADDER if n * (1 - pct / 100) >= 10), 50.0)


def summarize(wl, stats: LoopStats) -> dict:
    """End-to-end figures of one loop, from each input's fastest visit.

    The loop visits every input many times, and each input's time is its
    fastest visit per unit of work, as ``timeit`` reports its best repeat.
    Contention from other tenants only ever slows a visit, and on a shared
    2-vCPU Xeon VM it swung the speed by up to a factor of two within seconds. p50 is the
    median of the per-input times; throughput is the work of one visit to
    every input over the sum of their fastest times. The tail is taken over
    every visit instead, since it is where contention shows.
    """
    pct = tail_percentile(stats.visits)
    return {
        "ops_per_s": len(stats.best_ns) * wl.units / (sum(stats.best_ns) / 1e9),
        "op_p50_us": statistics.median(stats.best_ns) / 1e3 / wl.units,
        "tail_us": stats.tail_ns(pct) / 1e3 / wl.units,
        "tail_pct": pct,
        "inputs": len(stats.best_ns),
        "visits": stats.visits,
        "peak_rss_mib": stats.peak_rss_mib,
    }


def fresh_setup(args) -> dict:
    """Time one set-up in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"fresh set-up failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def startup_ms(env, pairs: int = 5) -> float:
    """A fresh ``import entclass`` minus a bare interpreter, median of pairs."""
    def timed(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
        return time.perf_counter() - start

    bare, full = [], []
    for _ in range(pairs):
        bare.append(timed("pass"))
        full.append(timed("import entclass"))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


# ---------------------------------------------------------------------------
# Reporting


def show(name, value, unit, note=""):
    print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")


def sample_notes(s: dict) -> tuple[str, str]:
    """How many samples a best-visit figure and a tail figure rest on."""
    best = f"n={s['inputs']} inputs, best of {s['visits'] / s['inputs']:.1f} visits each"
    tail = f"p{s['tail_pct']:g} of n={s['visits']} visits, to 1%"
    return best, tail


def named_metrics(wl, s: dict, stats: LoopStats, setup: list) -> list[tuple[str, float, str, str]]:
    """This workload's named end-to-end metrics: (name, value, unit, samples)."""
    best, tail = sample_notes(s)
    out = []
    if wl.name == "classify-dressed":
        out += [("classify_per_s", s["ops_per_s"], "1/s", best),
                ("classify_p50_us", s["op_p50_us"], "us", best),
                ("classify_tail_us", s["tail_us"], "us", tail)]
    elif wl.name == "monte-carlo":
        for measure, times in wl.best_ns.items():
            rate = wl.trials * 1e9 / statistics.median(times)
            out.append((f"{measure}_trials_per_s", rate, "1/s", f"median over n={len(times)} chunks of {wl.trials}, best visits"))
        out += [("trials_per_s", s["ops_per_s"], "1/s", f"both measures; {best}"),
                ("trial_p50_us", s["op_p50_us"], "us", f"chunk pairs; {best}"),
                ("trial_tail_us", s["tail_us"], "us", f"chunk pairs; {tail}")]
    else:
        out += [("request_per_s", s["ops_per_s"], "1/s", best),
                ("request_p50_us", s["op_p50_us"], "us", best),
                ("request_tail_us", s["tail_us"], "us", tail)]
    out += [("setup_s", statistics.median(setup), "s", f"median of n={len(setup)} set-ups"),
            ("peak_rss_mib", s["peak_rss_mib"], "MiB", "peak of the workload process"),
            ("failed_frac", stats.failed / stats.visits, "ratio", f"{stats.failed}/{stats.visits} operations")]
    return out


def list_failures(wl, stats: LoopStats, limit=12):
    for n, (index, reason) in enumerate(sorted(stats.reasons.items())):
        if n == limit:
            print("  ... more failing inputs not listed")
            break
        origin = wl.origin[index] if hasattr(wl, "origin") else repr(wl.items[index])[:120]
        print(f"  FAILED input {index} [{origin}]: {reason[:160]}")


# ---------------------------------------------------------------------------
# Runs


def plain_run(wl, args, setup_s: float, fingerprint: str):
    stats = LoopStats(len(wl.items))
    fresh = []
    loop_s = 0.0
    for k in range(1, FRESH_SETUPS + 1):
        fresh.append(fresh_setup(args))
        # Each slice runs to its share of --seconds of loop time, so one
        # slice's last pass, which may overrun, shortens the next slice.
        start = time.perf_counter()
        closed_loop(wl, k * args.seconds / FRESH_SETUPS - loop_s, stats=stats)
        loop_s += time.perf_counter() - start
    setup = [setup_s] + [f["setup_s"] for f in fresh]
    s = summarize(wl, stats)
    print(f"{wl.name} seed={args.seed} trace=0: closed loop, 1 caller, {args.seconds:g} s")
    named = named_metrics(wl, s, stats, setup)
    for name, value, unit, samples in named:
        show(name, value, unit, samples)
    list_failures(wl, stats)
    same_inputs = all(f["inputs"] == fingerprint for f in fresh)
    if not same_inputs:
        print("  a fresh set-up made different inputs")
    print("named " + json.dumps({name: value for name, value, _, _ in named}))
    values = {"setup_s": statistics.median(setup), **{name: s[name] for name in ("peak_rss_mib", "ops_per_s", "op_p50_us")}}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return stats.wrong == 0 and same_inputs, stats.visits, stats.failed, metrics


def traced_run(wl, args):
    import tracing
    from workloads import cli_env

    # Untraced and traced slices alternate, so both sides sample the same
    # stretches of the machine's speed. Each traced slice brings the traced
    # passes up to the untraced ones: the same visits and the same best-visit
    # estimator on both sides, so their difference is the overhead.
    untraced, traced = LoopStats(len(wl.items)), LoopStats(len(wl.items))
    tracer = tracing.Tracer()
    install_s = []
    for k in range(TRACE_SLICES):
        closed_loop(wl, args.seconds / 2 / TRACE_SLICES, stats=untraced)
        if k == 0:
            untraced_rss = untraced.peak_rss_mib  # the peak before any span is kept
        start = time.perf_counter()
        uninstall = tracing.install(tracer)
        install_s.append(time.perf_counter() - start)
        closed_loop(wl, passes=untraced.passes, tracer=tracer, stats=traced)
        uninstall()
    a, b = summarize(wl, untraced), summarize(wl, traced)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracing.dump(trace_path, tracer.kept, {"workload": wl.name, "seed": args.seed, "ops": len(wl.items)})

    ops = traced.visits
    values = {}
    for span, stats in SPAN_METRICS.items():
        calls, self_ns = tracer.totals.get(span, (0, 0))
        for stat in stats:
            values[f"{span}.{stat}"] = calls / ops if stat == "calls" else self_ns / 1e3 / ops
    values["monotone.det223.violations"] = wl.violations() if wl.name == "monte-carlo" else 0
    values["cli.startup_ms"] = startup_ms(cli_env())
    values["trace_overhead.setup_s"] = statistics.median(install_s)
    values["trace_overhead.peak_rss_mib"] = b["peak_rss_mib"] - untraced_rss
    for name in ("ops_per_s", "op_p50_us"):
        values[f"trace_overhead.{name}"] = b[name] - a[name]

    print(f"{wl.name} seed={args.seed} trace=1: {untraced.passes} untraced and {traced.passes} traced passes"
          f" of {len(wl.items)} ops, in {TRACE_SLICES} alternating slices each")
    print(f"  spans of the first traced pass: {len(tracer.kept)}, written to {trace_path.relative_to(ROOT)}")
    units = dict(per_layer_metrics())
    for name, value in values.items():
        show(name, value, units[name], "per operation" if name.endswith(("calls", "self_us")) else "")
    list_failures(wl, untraced)
    list_failures(wl, traced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}
    return untraced.wrong + traced.wrong == 0, untraced.visits + traced.visits, untraced.failed + traced.failed, metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process; with ``--trace 0``
    the exploratory ones of ``explore.py`` too, whose figures are printed
    but not part of the result."""
    from explore import EXPLORE_NAMES

    runs = [(Path(__file__), name) for name in WORKLOAD_NAMES]
    runs += [] if args.trace else [(BENCH / "explore.py", name) for name in EXPLORE_NAMES]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for script, name in runs:
        cmd = [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        if name in WORKLOAD_NAMES:
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        wl.warm_up()
        setup_s = time.perf_counter() - _T0
        fingerprint = wl.fingerprint()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "inputs": fingerprint}))
            return 0
        print(f"inputs {fingerprint} ({len(wl.items)} per pass, seed {args.seed})")
        print("provenance " + json.dumps(provenance(), sort_keys=True))
        if args.trace:
            correct, attempted, failed, metrics = traced_run(wl, args)
        else:
            correct, attempted, failed, metrics = plain_run(wl, args, setup_s, fingerprint)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
