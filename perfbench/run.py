"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 25 --trace 0

Run from the repository root: baokit is imported from ./src.  The run is
one process and one thread, a closed loop with jobs back to back.  It sets
up SETUPS times: each set-up purges baokit from sys.modules and imports it
again, so that every module-level cache starts empty as in a fresh `baokit`
process, and builds the inputs.  The last COLD_PASSES set-ups are each
followed by one cold pass over the workload's jobs.  Warm passes follow
until --seconds are used.

Every job and every set-up is timed in units of the reference probe
(probe.py): the probe runs before and after each job and every
SAMPLE_INTERVAL seconds inside it, and each stretch of the job's time is
divided by the mean probe time at its two ends.  `work_ref` sums, over the
jobs, each job's median over the warm passes; `warmup_ref` does the same
over the cold passes; `setup_s` is the median set-up, in seconds at the
speed where the probe takes REFERENCE_PROBE_SECONDS.  After each pass every
job's result is checked; a failed check or a job that raised counts that
job as failed, and the run exits 1.

With --trace 1 the baokit functions named in tracing.py are wrapped, the
per-layer metrics are printed instead of the end-to-end ones, and the
spans are written to perfbench/traces/.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from probe import probe  # noqa: E402
from tracing import COLD_ONLY, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACES = os.path.join(HERE, "traces")

SETUPS = 7
COLD_PASSES = 2
MIN_WARM_PASSES = 2
TRACED_COLD_PASSES = 1
TRACED_MIN_WARM_PASSES = 1
SAMPLE_INTERVAL = 0.04
# setup_s is the set-up's calibrated time at the speed where the probe
# takes this long, about its median on a 2-vCPU Xeon virtual machine.
REFERENCE_PROBE_SECONDS = 0.0015


class Sampler:
    """Runs the probe every SAMPLE_INTERVAL seconds while a job runs.

    A job longer than the machine's speed epochs is not timed well by the
    probes at its two ends alone.  The samples split its time into
    segments; each segment is divided by the mean probe time at its two
    ends, and the time spent in the samples is left out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        took = probe()
        self.samples.append((start, time.perf_counter(), took))

    def time(self, fn, before: float):
        """Run fn; return (result or None, traceback or None, raw seconds,
        calibrated time, probe seconds after it)."""
        self.samples = []
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            result, error = fn(), None
        except Exception:
            result, error = None, traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        after = probe()
        raw = calibrated = 0.0
        edge, edge_probe = start, before
        for paused, resumed, took in self.samples + [(end, end, after)]:
            raw += paused - edge
            calibrated += (paused - edge) / ((edge_probe + took) / 2)
            edge, edge_probe = resumed, took
        return result, error, raw, calibrated, after


def fix_allocator_thresholds() -> bool:
    """Turn off glibc's adaptive mmap and trim thresholds in this process.

    Left adaptive, a process serves baokit's integers of 33 KiB and more
    either from reused heap memory or from fresh mappings, as its own
    allocation history decides: between processes the window jobs moved by
    up to 30% and their page faults by 2x.  Fixed thresholds serve them all
    from the heap in every run.  Returns False where there is no glibc.
    """
    path = ctypes.util.find_library("c")
    if path is None:
        return False
    libc = ctypes.CDLL(path)
    if not hasattr(libc, "mallopt"):
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 1 << 26)
                and libc.mallopt(m_trim_threshold, 1 << 27))


def fresh_baokit():
    """Import baokit from ./src with every module-level cache empty."""
    for name in [m for m in sys.modules if m == "baokit" or m.startswith("baokit.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("baokit")
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(SRC, "baokit"):
        raise ImportError(f"baokit was imported from {where}, not from {SRC}")
    return package


class Run:
    def __init__(self, workload: str, seed: int, tracer):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.cache: dict = {}
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failed_checks = 0
        self.messages: list[str] = []
        self.sampler = Sampler()

    def setup(self):
        bk = fresh_baokit()
        if self.tracer:
            self.tracer.install(bk)
        return WORKLOADS[self.workload](bk, self.seed, self.cache)

    def one_pass(self, jobs) -> tuple[list[float], float, float]:
        """Calibrated time per job, raw seconds, and mean probe seconds."""
        gc.collect()
        tracer = self.tracer
        calibrated, results, probes = [], [], []
        raw = 0.0
        before = probe()
        probes.append(before)
        for job in jobs:
            if tracer:
                tracer.active = True
            result, error, took, ref, after = self.sampler.time(job.run, before)
            if tracer:
                tracer.active = False
            results.append((result, error))
            calibrated.append(ref)
            probes.append(after)
            raw += took
            before = after
        for job, (result, error) in zip(jobs, results):
            self.attempted += 1
            checker = Checker()
            if error is None:
                try:
                    job.check(result, checker)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                checker.attempted += 1
                checker.failures.append(f"{job.name}: raised\n{error}")
            self.checks += checker.attempted
            if checker.failures:
                self.failed += 1
                self.failed_checks += len(checker.failures)
                self.messages.extend(checker.failures)
        return calibrated, raw, statistics.fmean(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fixed = fix_allocator_thresholds()
    tracer = Tracer() if args.trace else None
    run = Run(args.workload, args.seed, tracer)
    cold_passes = TRACED_COLD_PASSES if tracer else COLD_PASSES
    setup_count = cold_passes if tracer else SETUPS
    min_warm = TRACED_MIN_WARM_PASSES if tracer else MIN_WARM_PASSES
    began = time.perf_counter()
    deadline = began + args.seconds

    setups, setup_refs, cold, warm, layers_cold, layers_warm = [], [], [], [], [], []
    raw_seconds, probe_seconds = [], []
    before = probe()
    for count in range(setup_count, 0, -1):
        jobs, error, took, ref, before = run.sampler.time(run.setup, before)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        setups.append(took)
        setup_refs.append(ref)
        if count <= cold_passes:
            times, _, _ = run.one_pass(jobs)
            cold.append(times)
            if tracer:
                layers_cold.append(tracer.take())
    last = 0.0
    while len(warm) < min_warm or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        times, raw, mean_probe = run.one_pass(jobs)
        last = time.perf_counter() - start
        warm.append(times)
        raw_seconds.append(raw)
        probe_seconds.append(mean_probe)
        if tracer:
            layers_warm.append(tracer.take())
            tracer.keep = False

    def per_job_median_sum(passes):
        return sum(statistics.median(column) for column in zip(*passes))

    work_ref = per_job_median_sum(warm)
    warmup_ref = per_job_median_sum(cold)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {len(cold)} cold and "
          f"{len(warm)} warm passes in {time.perf_counter() - began:.1f} s")
    print(f"raw seconds per warm pass {statistics.median(raw_seconds):.4f}, "
          f"probe {statistics.median(probe_seconds) * 1000:.4f} ms, "
          f"work_ref {work_ref:.2f}, warmup_ref {warmup_ref:.2f}, "
          f"setup {statistics.median(setups):.4f} s, first set-up after "
          f"{began - _STARTED + setups[0]:.4f} s from start")
    if not fixed:
        print("glibc allocator thresholds not fixed; runs are less steady")
    print(f"jobs attempted {run.attempted}, failed {run.failed}; "
          f"checks attempted {run.checks}, failed {run.failed_checks}")
    for message in run.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)

    if tracer:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            source = layers_cold if name in COLD_ONLY else layers_warm
            metrics[name] = {"value": statistics.median(p[name] for p in source),
                             "unit": unit}
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, f"{args.workload}-seed{args.seed}.tsv.gz")
        count = tracer.write_spans(path)
        print(f"{count} spans written to {os.path.relpath(path)}")
    else:
        metrics = {
            "work_ref": {"value": work_ref, "unit": "ref"},
            "warmup_ref": {"value": warmup_ref, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_refs) * REFERENCE_PROBE_SECONDS,
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
