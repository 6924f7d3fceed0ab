"""The benchmark's own tests.

    python3 bench/selftest.py          # about two minutes

The file name keeps these out of the library's pytest run: each case starts
benchmark processes that run for seconds, and the library's tests do not
depend on the benchmark.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import explore  # noqa: E402
import run as bench  # noqa: E402  (stdlib-only at import)

#: The named end-to-end lines each workload prints before its JSON.
NAMED = {
    "classify-dressed": ("classify_per_s", "classify_p50_us", "classify_tail_us"),
    "monte-carlo": ("det222_trials_per_s", "det223_trials_per_s"),
    "cli-inproc": ("request_per_s", "request_p50_us", "request_tail_us"),
    "classify-domain": ("goodput_per_s", "domain.cond.failed_frac", "domain.wrong_label.count"),
    "cli-mix": ("process_per_s", "process_p50_ms", "process_tail_ms"),
}
COMMON = ("setup_s", "peak_rss_mib", "failed_frac")
ALL_WORKLOADS = bench.WORKLOAD_NAMES + explore.EXPLORE_NAMES


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=600
    )


def script_of(workload):
    return BENCH / ("explore.py" if workload in explore.EXPLORE_NAMES else "run.py")


def result_of(*args, script=BENCH / "run.py"):
    done = run_bench(*args, script=script)
    if done.returncode != 0:
        raise AssertionError(f"{script.name} {' '.join(args)} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Smoke(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        e2e = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for name in bench.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                lines, result = result_of("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, e2e)
                text = "\n".join(lines)
                for metric in NAMED[name] + COMMON:
                    self.assertRegex(text, rf"\n  {metric} +\S+ \S+ ")
                self.assertIn("provenance ", text)

    def test_exploratory_workloads_print_their_figures(self):
        for name in explore.EXPLORE_NAMES:
            with self.subTest(workload=name):
                lines, result = result_of("--workload", name, "--seed", "1", "--seconds", "1",
                                          script=script_of(name))
                self.assertEqual(result["workload"], name)
                text = "\n".join(lines)
                for metric in NAMED[name] + COMMON:
                    self.assertRegex(text, rf"\n  {metric} +\S+ \S+ ")
                    self.assertIn(metric, result["named"])

    def test_spec_lists_the_metrics_the_runs_print(self):
        s = spec()
        self.assertEqual([(m["name"], m["unit"]) for m in s["end_to_end"]], list(bench.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in s["per_layer"]], bench.per_layer_metrics())
        self.assertEqual(s["paths"], ["bench"])

    def test_missing_library_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = run_bench("--workload", "classify-dressed", "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=tmp, script=Path(tmp) / "bench" / "run.py")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Determinism(unittest.TestCase):
    def test_traced_counts_repeat_for_one_seed(self):
        exact = (".calls", ".violations", ".count", ".failed_frac")
        for name in bench.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                runs = [result_of("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")[1]
                        for _ in range(2)]
                counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(exact)} for r in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(set(runs[0]["metrics"]), {n for n, _ in bench.per_layer_metrics()})

    def test_domain_split_repeats_for_one_seed(self):
        runs = [result_of("--workload", "classify-domain", "--seed", "3", "--seconds", "1",
                          script=script_of("classify-domain"))[1]["named"] for _ in range(2)]
        splits = [{k: v for k, v in r.items() if k.startswith("domain.")} for r in runs]
        self.assertEqual(len(splits[0]), 10)
        self.assertEqual(splits[0], splits[1])

    def test_seeds_drive_the_inputs(self):
        def inputs(name, seed):
            done = run_bench("--workload", name, "--seed", str(seed), "--setup-only", script=script_of(name))
            self.assertEqual(done.returncode, 0, done.stderr)
            return json.loads(done.stdout.strip().splitlines()[-1])["inputs"]

        for name in ALL_WORKLOADS:
            with self.subTest(workload=name):
                first = inputs(name, 1)
                self.assertEqual(first, inputs(name, 1))
                self.assertNotEqual(first, inputs(name, 2))


class Checks(unittest.TestCase):
    """The output checks reject wrong outputs rather than pass everything."""

    @classmethod
    def setUpClass(cls):
        bench.import_library()
        import workloads

        cls.w = workloads
        cls.tmp = tempfile.TemporaryDirectory(dir=BENCH / "_work")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_wrong_label_is_caught(self):
        wl = self.w.ClassifyDressed(1, Path(self.tmp.name))
        label = wl.items[0][0]
        other = next(x for x in self.w.LABELS if x != label)
        self.assertIsNone(wl.check(0, label))
        self.assertIsNotNone(wl.check(0, other))

    def test_monte_carlo_replay_must_match_bit_for_bit(self):
        from dataclasses import replace

        for field in ("det222", "det223"):
            wl = self.w.MonteCarlo(1, Path(self.tmp.name))
            out = wl.run(wl.items[1])
            summary = getattr(out, field)
            nudged = out._replace(**{field: replace(summary, min_slack=summary.min_slack * (1 + 2**-52))})
            self.assertIsNotNone(wl.check(1, nudged))
            self.assertIsNotNone(wl.check(1, out), "a repeat differing from the first must be caught")
        fresh = self.w.MonteCarlo(1, Path(self.tmp.name))
        self.assertIsNone(fresh.check(1, out))
        self.assertIsNone(fresh.check(1, out))

    def test_cli_nonzero_exit_is_caught(self):
        wl = self.w.CliRequests(1, Path(self.tmp.name))
        self.assertIsNotNone(wl.check(0, self.w.CliOutcome(1, None, "entclass: boom")))


class Loop(unittest.TestCase):
    def test_tail_is_within_a_bin_of_the_exact_percentile(self):
        import random

        rng = random.Random(5)
        times = [int(rng.lognormvariate(13, 0.5)) for _ in range(5000)]
        stats = bench.LoopStats(1)
        for ns in times:
            stats.add(0, ns, None, False)
        exact = sorted(times)[int(0.99 * len(times)) - 1]
        self.assertLessEqual(exact, stats.tail_ns(99.0))
        self.assertLessEqual(stats.tail_ns(99.0), exact * bench.BIN_RATIO**2)
        self.assertEqual(stats.best_ns, [min(times)])


if __name__ == "__main__":
    (BENCH / "_work").mkdir(exist_ok=True)
    unittest.main(verbosity=2)
