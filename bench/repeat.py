"""Repeat benchmark runs over seeds; report medians and quartile spreads.

    python3 bench/repeat.py --runs 10 [--first-seed 1] [--workloads a,b]
                            [--seconds S] [--trace 0|1] [--out FILE]

For each workload (default: those in BENCHMARK.json) this runs
``bench/run.py``, or ``bench/explore.py`` for an exploratory workload, once
per seed, one run at a time, and prints for each metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, beside the bound BENCHMARK.json fixes. It says "steady"
only when every bounded spread is within a third of its bound.
With ``--out`` it also writes every run and the summary, with the
machine's provenance, as one point of the trajectory (see README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from explore import EXPLORE_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """One run's record for the trajectory, and the machine's provenance."""
    script = "explore.py" if workload in EXPLORE_NAMES else "run.py"
    cmd = [sys.executable, str(BENCH / script), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall_s = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    if script == "explore.py":
        return {"seed": seed, "wall_s": wall_s, "metrics": {}, "named": result["named"]}, prov
    named = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("named ")), {})
    return {"seed": seed, "wall_s": wall_s, **{k: result[k] for k in ("correct", "attempted", "failed")},
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "named": named}, prov


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    point = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "seconds": args.seconds,
             "trace": args.trace, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run, prov = one_run(workload, seed, args.seconds, args.trace)
            point.setdefault("provenance", prov)
            runs.append(run)
            status = (f"correct={run['correct']} failed={run['failed']}/{run['attempted']}"
                      if "correct" in run else "figures only")
            print(f"{workload} seed {seed}: {status} in {run['wall_s']:.1f} s", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name] for r in runs])
            stats["bound"] = bounds.get(name)
            summary[name] = stats
            bound, spread = stats["bound"], stats["spread"]
            flag = ""
            if bound is not None and (spread is None or spread > bound / 3):
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"  {name:<34} median {stats['median']:<14.6g} q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g}"
                  f" spread {spread if spread is None else round(spread, 4)!s:<8} bound {bound}{flag}")
        named = {name: summarize([r["named"][name] for r in runs]) for name in runs[0]["named"]}
        point["workloads"][workload] = {"runs": runs, "summary": summary, "named_summary": named}
    if args.out:
        args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
