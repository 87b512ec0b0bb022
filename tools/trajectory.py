"""Measure a change against its parent and write a BENCH_<n>.json.

    python3 tools/trajectory.py --parent ../parent-checkout --out BENCH_23.json

Run from the repository root.  The parent is a second checkout of the
parent commit (made with `git clone` or `git archive`).  For each tree the
script records:

- the median and IQR, over --seeds, of the four end-to-end metrics of
  every workload in BENCHMARK.json, each from one run of
  `python3 perfbench/run.py --workload W --seed S --seconds T` in that
  tree (perfbench is used as it is; the two trees alternate, and so does
  which of them runs first for a seed);
- the median wall time, over --repeats process runs, of each command in
  COMMANDS: `corpus-check`, `translate`, `arith`, `pairing` and `window`
  at their default flags, `window --fixed 0,5`, the two window runs of
  CI's "CLI exit codes" step, and three stretched settings: `arith --max
  200`, `tau-sigma-delta --u 32` and an RA `check-identity` at u = 512;
- `kernels_us`, the layer below: the median microseconds of one call of
  each `spaces` kernel, over KERNEL_ROUNDS processes in the tree (the two
  trees alternate), each the median of KERNEL_SAMPLES timed batches of
  calls on seeded random values: the raw `cylinder` per coordinate, the
  Element-level `cyl` over every coordinate (`cyl {u}^{n}`, per call),
  `subst` over every ordered pair and `diag` over every pair of
  coordinates on the three spaces of perfbench's `wide` workload
  (KERNEL_SPACES), and `compose_bits` at each u in COMPOSE_BASES, of a
  random relation and of a function (one pair a row) with a random one,
  so that the walk and the tables of `compose_bits` are each timed.  The
  processes fix glibc's allocator thresholds as perfbench/run.py does;
- `window_us`, the layer of window evaluation: the median microseconds
  of one `eval_window` of each of the three window jobs of perfbench's
  `wide` workload (WINDOW_JOBS), warm, over WINDOW_ROUNDS processes in the
  tree (the two trees alternate), each the median of WINDOW_SAMPLES timed
  batches, with the allocator thresholds fixed as for `kernels_us`; and
  each job's first call (`... first call`), timed once per process at its
  start, the jobs in order, so the first job meets empty caches and the
  later ones the tables and leaves it kept: the cold cost of guarding a
  formula, laying out its plan and building its leaves;
- `pointwise_us`, the layer of pointwise `models.holds`: the median
  microseconds of each case of POINTWISE_TIMER, over POINTWISE_ROUNDS
  processes in the tree (the two trees alternate), each the median of
  POINTWISE_SAMPLES timed batches, all through a view of the rank-4 set
  universe that keeps no truth sets, so that every call runs the pointwise
  evaluator: `ord` and `ford` at the code of the ordinal 3 with quantifiers
  over all 65,536 codes, `ord` at three codes that are not ordinals, over
  all codes, and 4,096 calls of `ord` (codes 0 to 4,095) with quantifiers
  over range(16), one case, which is per-call set-up;
- the median wall time, over TIER1_REPEATS runs, of the tier-1 suite
  (TIER1, the command ROADMAP.md names, with DURATIONS added), run in the
  tree with its own src on PYTHONPATH, the median of the per-test call
  durations pytest reports for each run, summed (`tier1_call_s`: the time
  spent in the tests themselves, without collection, start-up and
  fixtures), and the counts pytest reports for its last run;
- src_lines, the line count of src/baokit/*.py;
- `bytecode`, taken before the first run: whether a Python started as
  the runs are writes bytecode (`sys.dont_write_bytecode`, set by
  PYTHONDONTWRITEBYTECODE or -B) and whether src/baokit/__pycache__
  exists.  With neither, each perfbench set-up's fresh import compiles
  every module from source, most of its time, so `setup_s` grows with
  the source a workload imports; a `setup_s` comparison names its regime;
- the tree's identity: `commit`, its HEAD commit (the parent's commit for
  a change measured before it is committed), `dirty`, whether the tree
  differs from that commit, and `src_sha256`, a sha256 over the names and
  bytes of its src/baokit/*.py, which tells the measured code apart.

It then prints before and after medians, and marks as noise a difference
smaller than the IQR of either side.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

METRICS = ("work_ref", "warmup_ref", "setup_s", "peak_rss_mb")
COMMANDS = (
    ("--json", "corpus-check"),
    ("--json", "translate"),
    ("--json", "arith"),
    ("--json", "pairing"),
    ("--json", "window"),
    ("--json", "window", "--fixed", "0,5"),
    ("--json", "window", "--formula", "phi", "--w", "30", "--margin", "1"),
    ("--json", "window", "--formula", "psi", "--fixed", "0,1", "--w", "30", "--margin", "1"),
    ("--json", "arith", "--max", "200"),
    ("--json", "tau-sigma-delta", "--u", "32"),
    ("--json", "check-identity", "--kind", "RA", "--u", "512",
     "--lhs", "(comp (var 0) id)", "--rhs", "(var 0)"),
)
KERNEL_SPACES = ((16, 5), (65, 3), (129, 3))  # (u, n), as perfbench's wide workload has them
COMPOSE_BASES = (16, 256, 1024)
KERNEL_ROUNDS = 3
KERNEL_SAMPLES = 5
WINDOW_JOBS = (("ax", (0,)), ("eta", (0,)), ("eta", (0, 5)))  # WindowModel(16, 2, fixed)
WINDOW_ROUNDS = 3
WINDOW_SAMPLES = 5

# The median microseconds of one call of `calls`, over `samples` timed
# batches of calls that take about 20 ms each; shared by the timers below.
MEDIAN_US = """

def median_us(calls):
    started = time.perf_counter()
    calls()
    number = max(1, int(0.02 / max(time.perf_counter() - started, 1e-9)))
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        for _ in range(number):
            calls()
        times.append((time.perf_counter() - started) / number)
    return 1e6 * statistics.median(times)

"""

# The allocator thresholds that perfbench/run.py fixes.
MALLOPT = """
import ctypes, ctypes.util

libc = ctypes.CDLL(ctypes.util.find_library("c"))
if hasattr(libc, "mallopt"):  # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
    libc.mallopt(-3, 1 << 26)
    libc.mallopt(-1, 1 << 27)
"""

# Run with the tree's src on sys.path; prints {kernel: median us of one call}.
KERNEL_TIMER = MALLOPT + """
import json, random, statistics, sys, time
from baokit import spaces

space_shapes, compose_bases, samples = json.loads(sys.argv[1])
""" + MEDIAN_US + """
out = {}
rng = random.Random(1)
for u, n in space_shapes:
    space = spaces.TupleSpace(u, n)
    x = spaces.Element(space, rng.getrandbits(space.size))
    for coord in range(n):
        kernel = spaces.cylinder(space, coord)
        out[f"cylinder {u}^{n} c{coord}"] = median_us(lambda: kernel(x.bits))
    out[f"cyl {u}^{n}"] = median_us(lambda: [spaces.cyl(c, x) for c in range(n)]) / n
    ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    out[f"subst {u}^{n}"] = median_us(
        lambda: [spaces.subst(i, j, x) for i, j in ordered]) / len(ordered)
    pairs = [(i, j) for i, j in ordered if i < j]
    out[f"diag {u}^{n}"] = median_us(
        lambda: [spaces.diag(space, i, j) for i, j in pairs]) / len(pairs)
for u in compose_bases:
    r, s = rng.getrandbits(u * u), rng.getrandbits(u * u)
    out[f"compose_bits u={u}"] = median_us(lambda: spaces.compose_bits(u, r, s))
    f = sum(1 << (a * u + rng.randrange(u)) for a in range(u))  # sparse: a function
    out[f"compose_bits u={u} functional"] = median_us(lambda: spaces.compose_bits(u, f, s))
print(json.dumps(out))
"""

# Run with the tree's src on sys.path; prints {job: median us of one eval_window}.
WINDOW_TIMER = MALLOPT + """
import json, statistics, sys, time
from baokit import WindowModel, eval_window, formula_library

jobs, samples = json.loads(sys.argv[1])
library = formula_library()
""" + MEDIAN_US + """
runs = [(f"window {name} fixed={','.join(map(str, fixed))}",
         WindowModel(16, 2, tuple(fixed)), library[name].formula) for name, fixed in jobs]
out = {}
for label, model, f in runs:  # the first calls, in job order, before any warm one
    started = time.perf_counter()
    eval_window(model, f)
    out[f"{label} first call"] = 1e6 * (time.perf_counter() - started)
for label, model, f in runs:
    out[label] = median_us(lambda: eval_window(model, f))
print(json.dumps(out))
"""

POINTWISE_ROUNDS = 5  # a round on a busy machine can read twice as slow
POINTWISE_SAMPLES = 5

# Run with the tree's src on sys.path; prints {case: median us of one case}.
POINTWISE_TIMER = """
import json, statistics, sys, time
from types import SimpleNamespace
from baokit import formula_library, hf_universe, holds, ordinal_hf

samples = json.loads(sys.argv[1])
universe = hf_universe(4)
view = SimpleNamespace(carrier_size=universe.size, rel_holds=universe.rel_holds,
                       section=universe.section)  # no truth sets: every call is pointwise
library = formula_library()
ord_f, ford_f, ordinal = library["ord"].formula, library["ford"].formula, ordinal_hf(3).code
cases = {
    "ord at ordinal 3, all codes": lambda: holds(view, ord_f, {0: ordinal}),
    "ford at ordinal 3, all codes": lambda: holds(view, ford_f, {0: ordinal}),
    **{f"ord at {code}, all codes": lambda code=code: holds(view, ord_f, {0: code})
       for code in (12345, 777, 40000)},
    "4096 calls of ord over range(16)": lambda: [
        holds(view, ord_f, {0: code}, quantifier_domain=range(16)) for code in range(4096)],
}
""" + MEDIAN_US + """
print(json.dumps({name: median_us(case) for name, case in cases.items()}))
"""

TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
DURATIONS = ("--durations=0", "--durations-min=0")  # every test's phases, on stdout
TIER1_REPEATS = 3


def summary(values: list[float]) -> dict:
    """Median and interquartile range (statistics.quantiles, exclusive)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "iqr": q3 - q1, "values": values}


def _git(tree: str, *args: str) -> str | None:
    """The output of a git command in `tree`; None outside git."""
    run = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def identity(tree: str) -> dict:
    """The tree's HEAD commit, whether it has changes against it (any path
    that `git status` lists, untracked ones too), and src_sha256; commit
    and dirty are None outside git."""
    status = _git(tree, "status", "--porcelain")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(tree, "src", "baokit", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return {"commit": _git(tree, "rev-parse", "HEAD"),
            "dirty": None if status is None else status != "",
            "src_sha256": digest.hexdigest()}


def bytecode(tree: str) -> dict:
    """Whether a Python started in `tree` as the runs are writes bytecode,
    and whether `tree`'s src/baokit/__pycache__ exists."""
    run = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                         cwd=tree, capture_output=True, text=True, check=True)
    return {"dont_write_bytecode": run.stdout.strip() == "True",
            "pycache": os.path.isdir(os.path.join(tree, "src", "baokit", "__pycache__"))}


def perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one perfbench run in `tree`; exits on a failed run."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if run.returncode != 0:
        sys.exit(f"perfbench {workload} seed {seed} failed in {tree}:\n{run.stderr}")
    report = json.loads(run.stdout.strip().splitlines()[-1])
    return {name: report["metrics"][name]["value"] for name in METRICS}


def wall_time(tree: str, args: tuple) -> float:
    """Seconds for one `python -m baokit.cli` process run from `tree`/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    started = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "baokit.cli", *args],
                         env=env, capture_output=True)
    took = time.perf_counter() - started
    if run.returncode != 0:
        sys.exit(f"baokit {' '.join(args)} exited {run.returncode} in {tree}")
    return took


def timer(tree: str, source: str, argument, layer: str) -> dict:
    """The JSON that the timer `source` prints, run in one process in
    `tree` with the JSON of `argument` as its one argument."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    run = subprocess.run([sys.executable, "-c", source, json.dumps(argument)], env=env,
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"{layer} timing failed in {tree}:\n{run.stderr}")
    return json.loads(run.stdout)


def kernel_times(tree: str) -> dict:
    """{kernel: median microseconds of one call} from one process in `tree`."""
    return timer(tree, KERNEL_TIMER, [KERNEL_SPACES, COMPOSE_BASES, KERNEL_SAMPLES], "kernel")


def window_times(tree: str) -> dict:
    """{job: median microseconds of one eval_window} from one process in `tree`."""
    return timer(tree, WINDOW_TIMER, [WINDOW_JOBS, WINDOW_SAMPLES], "window")


def pointwise_times(tree: str) -> dict:
    """{case: median microseconds of one case} from one process in `tree`."""
    return timer(tree, POINTWISE_TIMER, POINTWISE_SAMPLES, "pointwise")


def layer_times(trees: dict, times, rounds: int) -> dict:
    """{label: {name: [us per round]}}: `times(tree)` in `rounds` rounds,
    the trees alternating which goes first."""
    out = {label: {} for label in trees}
    for k in range(rounds):
        for label, tree in list(trees.items())[::1 if k % 2 == 0 else -1]:
            for name, us in times(tree).items():
                out[label].setdefault(name, []).append(us)
    return out


def tier1(tree: str) -> tuple[float, float, dict]:
    """Seconds for one tier-1 run in `tree`, the sum of the call durations
    pytest reports for its tests, and the counts of its summary line
    ({"passed": 552}, say); a failing suite is recorded, not fatal, since
    its counts say so."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    started = time.perf_counter()
    run = subprocess.run([sys.executable, *TIER1, *DURATIONS], cwd=tree, env=env,
                         capture_output=True, text=True)
    took = time.perf_counter() - started
    calls = sum(float(s) for s in re.findall(r"^([\d.]+)s call ", run.stdout, re.MULTILINE))
    last = run.stdout.strip().splitlines()[-1:] or [""]
    return took, calls, {word: int(count) for count, word in re.findall(r"(\d+) (\w+)", last[0])}


def src_lines(tree: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(tree, "src", "baokit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def measure(trees: dict, seeds: list[int], seconds: float, repeats: int) -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    regimes = {label: bytecode(tree) for label, tree in trees.items()}
    runs = {label: {w: {m: [] for m in METRICS} for w in workloads} for label in trees}
    for workload in workloads:
        for k, seed in enumerate(seeds):
            for label, tree in list(trees.items())[::1 if k % 2 == 0 else -1]:
                got = perfbench(tree, workload, seed, seconds)
                for name in METRICS:
                    runs[label][workload][name].append(got[name])
                print(f"{label} {workload} seed {seed}: {got}", file=sys.stderr)
    walls = {label: {" ".join(args): [] for args in COMMANDS} for label in trees}
    for _ in range(repeats):
        for args in COMMANDS:
            for label, tree in trees.items():
                walls[label][" ".join(args)].append(wall_time(tree, args))
    kernels = layer_times(trees, kernel_times, KERNEL_ROUNDS)
    windows = layer_times(trees, window_times, WINDOW_ROUNDS)
    points = layer_times(trees, pointwise_times, POINTWISE_ROUNDS)
    suites = {label: [] for label in trees}
    calls = {label: [] for label in trees}
    counts = {}
    for k in range(TIER1_REPEATS):
        for label, tree in list(trees.items())[::1 if k % 2 == 0 else -1]:
            took, called, counts[label] = tier1(tree)
            suites[label].append(took)
            calls[label].append(called)
            print(f"{label} tier-1: {took:.1f} s, calls {called:.1f} s {counts[label]}",
                  file=sys.stderr)
    return {
        label: {
            **identity(tree),
            "bytecode": regimes[label],
            "perfbench": {w: {m: summary(v) for m, v in by.items()}
                          for w, by in runs[label].items()},
            "wall_s": {cmd: summary(v) for cmd, v in walls[label].items()},
            "kernels_us": {name: summary(v) for name, v in kernels[label].items()},
            "window_us": {name: summary(v) for name, v in windows[label].items()},
            "pointwise_us": {name: summary(v) for name, v in points[label].items()},
            "tier1_s": summary(suites[label]),
            "tier1_call_s": summary(calls[label]),
            "tier1_counts": counts[label],
            "src_lines": src_lines(tree),
        }
        for label, tree in trees.items()
    }


def compare(before: dict, after: dict) -> list[str]:
    """Before and after medians, with the change in percent; `noise` when
    the difference is smaller than the IQR of either side."""
    lines = []

    def row(name: str, a: dict, b: dict) -> None:
        diff = b["median"] - a["median"]
        noise = abs(diff) < max(a["iqr"], b["iqr"])
        pct = 100 * diff / a["median"] if a["median"] else float("nan")
        lines.append(f"{name:45s} {a['median']:10.3f} {b['median']:10.3f} "
                     f"{pct:+7.1f}%{'  noise' if noise else ''}")

    for workload, by in before["perfbench"].items():
        for metric, a in by.items():
            row(f"{workload} {metric}", a, after["perfbench"][workload][metric])
    for cmd, a in before["wall_s"].items():
        row(cmd.replace("--json ", ""), a, after["wall_s"][cmd])
    for layer in ("kernels_us", "window_us", "pointwise_us"):
        for name, a in before[layer].items():
            row(f"{name} us", a, after[layer][name])
    row("tier-1 s", before["tier1_s"], after["tier1_s"])
    row("tier-1 summed call s", before["tier1_call_s"], after["tier1_call_s"])
    lines.append(f"{'tier-1 counts':45s} {before['tier1_counts']} {after['tier1_counts']}")
    lines.append(f"{'src_lines':45s} {before['src_lines']:10d} {after['src_lines']:10d}")
    lines.append(f"{'bytecode':45s} {before['bytecode']} {after['bytecode']}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="a checkout of the parent commit")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--parent-commit", default=None,
                        help="the parent's commit, when its checkout has no .git")
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    results = measure(trees, args.seeds, args.seconds, args.repeats)
    if args.parent_commit:
        results["parent"]["commit"] = args.parent_commit
    out = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "tier1_repeats": TIER1_REPEATS,
        **results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("\n".join(compare(results["parent"], results["change"])))


if __name__ == "__main__":
    main()
