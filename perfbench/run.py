"""Benchmark of kitaev_diamond: seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload oracle|algebra|cli --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src and
nowhere else.  The cycles run in this process.  With --trace 0 the last
stdout line carries the end-to-end metrics.  With --trace 1 each cycle runs
once untraced and once traced; the last line carries the per-layer metrics
and the spans are written to perfbench/out/.  End-to-end times are scaled
by the machine's speed next to each op, which speed.py measures.  Metric
names, units and their order come from BENCHMARK.json.  The line before the
last holds details: machine, checks run, tail percentile, sample counts and
the times as measured.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread: on a shared 2-core machine, two-thread LAPACK calls varied
# by about 10% from call to call, one-thread calls by about 1%.  This must be
# set before numpy loads OpenBLAS; the fresh interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from speed import KERNELS, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

PACKAGE = "kitaev_diamond"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_RUNS = 9  # timed fresh-interpreter imports per untraced run
IMPORTTIME_RUNS = 3  # `python -X importtime` runs per traced run
# seconds an untraced run spends outside its cycles (set-up imports, the
# package import, warm-up) on the reference machine
FIXED_S = 10.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
CHILD_TIMEOUT = 60

LAYERS = ("lattice", "clifford", "spinham", "spectrum", "gap", "tightbinding", "cli")

# per-layer metric -> (span, "self" seconds or "calls"), both per traced op
SPAN_METRICS = {
    "gap.min_gap_numeric.self_s": ("gap.min_gap_numeric", "self"),
    "gap.min_gap_numeric.calls": ("gap.min_gap_numeric", "calls"),
    "gap.find_zero.self_s": ("gap.find_zero", "self"),
    "gap.has_zero.self_s": ("gap.has_zero", "self"),
    "gap.gapmap_csv_lines.self_s": ("gap.gapmap_csv_lines", "self"),
    "gap.barycentric_grid.self_s": ("gap.barycentric_grid", "self"),
    "gap.gapped_region.calls": ("gap.gapped_region", "calls"),
    "spinham.build_spin_hamiltonian.self_s": ("spinham.build_spin_hamiltonian", "self"),
    "spinham.link_operators.self_s": ("spinham.link_operators", "self"),
    "spinham.verify_operator_identities.self_s": ("spinham.verify_operator_identities", "self"),
    "spinham.plus_sector_dimension.self_s": ("spinham.plus_sector_dimension", "self"),
    "clifford.majorana_rep.calls": ("clifford.majorana_rep", "calls"),
    "clifford.majorana_rep.self_s": ("clifford.majorana_rep", "self"),
    "clifford.spin_ops.self_s": ("clifford.spin_ops", "self"),
    "clifford.d_operator.self_s": ("clifford.d_operator", "self"),
    "spectrum.majorana_spectrum.self_s": ("spectrum.majorana_spectrum", "self"),
    "spectrum.quadratic_form.self_s": ("spectrum.quadratic_form", "self"),
    "spectrum.bloch_multiset.self_s": ("spectrum.bloch_multiset", "self"),
    "spectrum.band_csv_lines.self_s": ("spectrum.band_csv_lines", "self"),
    "lattice.build_torus.self_s": ("lattice.build_torus", "self"),
    "lattice.torus_to_dict.self_s": ("lattice.torus_to_dict", "self"),
    "tightbinding.tb_energy.self_s": ("tightbinding.tb_energy", "self"),
    "cli.bands.self_s": ("cli.cmd_bands", "self"),
    "cli.gapmap.self_s": ("cli.cmd_gapmap", "self"),
    "cli.lattice.self_s": ("cli.cmd_lattice", "self"),
    "cli.verify.self_s": ("cli.cmd_verify", "self"),
}

# counts taken at layer boundaries, per traced op
COUNTER_HOOKS = {
    "spinham.build_spin_hamiltonian": lambda args, kwargs, system: {
        "spinham.hamiltonian_nnz": system.hamiltonian.nnz,
        "spinham.total_dim": system.total_dim,
    },
    "spectrum.majorana_spectrum": lambda args, kwargs, eigs: {
        "spectrum.majorana_spectrum.dim": len(eigs),
    },
}
COUNTER_METRICS = ("spinham.hamiltonian_nnz", "spinham.total_dim",
                   "spectrum.majorana_spectrum.dim", "cli.output_bytes")

IMPORT_METRICS = {
    "import.kitaev_diamond_s": "kitaev_diamond",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_sparse_s": "scipy.sparse",
}

TRACE_METRICS = ("trace.ops_per_s_untraced", "trace.ops_per_s_traced",
                 "trace.overhead_ops_per_s")


# -- machine and set-up ---------------------------------------------------

IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import kitaev_diamond, kitaev_diamond.cli\n"
    "print(time.perf_counter() - t0)\n"
    "if not kitaev_diamond.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported ' + kitaev_diamond.__file__)\n"
)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from SRC and prints the
    seconds the import took."""
    return subprocess.run([sys.executable, *args, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT)


def setup_samples(speed: Speed) -> tuple[float, list[float]]:
    """`setup_s` and the import times behind it.

    SETUP_RUNS fresh interpreters import the package, after one untimed
    import that fills the bytecode and file caches.  A kernel sample follows
    each import, and the median import time is scaled by the mean of those
    samples (see speed.py).
    """
    _child([])
    measured = []
    first = len(speed.starts)
    for _ in range(SETUP_RUNS):
        measured.append(float(_child([]).stdout))
        speed.sample()
    return statistics.median(measured) * speed.reference_s / speed.mean_s(first), measured


def importtime_seconds(log: str) -> dict[str, float]:
    """Cumulative import time of each IMPORT_METRICS package with its submodules.

    Sums the outermost `-X importtime` entries named M or M.*: scipy loads
    some subpackages lazily, so `scipy.optimize` has no entry of its own and
    only its submodules are logged.  Entries are printed children first;
    deeper indentation means nested.
    """
    found = dict.fromkeys(IMPORT_METRICS.values(), 0.0)
    inside: list[tuple[int, str | None]] = []  # (depth, package) of open parents
    for line in reversed(log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while inside and inside[-1][0] >= depth:
            inside.pop()
        package = next((m for m in found if name == m or name.startswith(m + ".")), None)
        if package is not None and all(p != package for _, p in inside):
            found[package] += float(parts[1]) * 1e-6
        inside.append((depth, package))
    return found


BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict:
    """Name and thread count of each OpenBLAS library loaded in this process."""
    libs = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return libs
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, name) for name in BLAS_THREAD_SYMBOLS
                   if hasattr(lib, name)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            libs[Path(path).name] = fn()
    return libs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def import_package():
    sys.path.insert(0, str(SRC))
    import kitaev_diamond
    import kitaev_diamond.cli  # noqa: F401  (the cli workload calls it)

    if not kitaev_diamond.__file__.startswith(str(SRC)):
        raise ImportError(f"{PACKAGE} came from {kitaev_diamond.__file__}, not {SRC}")
    return kitaev_diamond


# -- running ops ----------------------------------------------------------


class Stats:
    """Latencies of passing ops, failures, checks and benchmark-side counts."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.counters: Counter = Counter()
        self.failures: list[str] = []

    def run(self, kd, op) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call(kd)
            elapsed = time.perf_counter() - t0
            self.checks += op.check(result)
        except Exception as exc:  # a failed op is counted; the run goes on
            self.failed += 1
            detail = (str(exc) if isinstance(exc, CheckFailed)
                      else traceback.format_exc(limit=-3))
            if len(self.failures) < 5:
                self.failures.append(f"{op.label}: {detail.strip()[-500:]}")
            return
        self.latencies.append(elapsed)
        self.starts.append(t0)
        self.labels.append(op.label)
        if op.counters is not None:
            self.counters.update(op.counters(result))

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def scaled_latencies(self, speed: Speed) -> list[float]:
        """Each latency scaled by the machine's speed around that op."""
        return [t * speed.scale(t0, t0 + t) for t0, t in zip(self.starts, self.latencies)]

    def median_ms_by_label(self, latencies: list[float] | None = None) -> dict[str, float]:
        by_label: dict[str, list[float]] = {}
        for label, t in zip(self.labels, latencies or self.latencies):
            by_label.setdefault(label, []).append(t)
        return {k: 1e3 * statistics.median(v) for k, v in sorted(by_label.items())}


def cycles_per_run(workload, seconds: float) -> int:
    """Whole cycles that fill `seconds` of wall time, less FIXED_S, on the
    reference machine, and never fewer than the workload's `min_cycles`.

    The count depends only on `seconds`, never on how fast this run goes, so
    every run and every commit measures the same op mix and the latency
    percentiles always fall on the same kinds of op.
    """
    return max(workload.min_cycles, round((seconds - FIXED_S) / workload.nominal_cycle_s))


def run_cycles(kd, workload, cycles: int, stats: Stats, tracer=None,
               traced: Stats | None = None, speed: Speed | None = None) -> None:
    """Run `cycles` cycles of the workload's ops.

    With a tracer, each cycle runs untraced into `stats` and then again
    under the tracer into `traced`, so drift during the run affects both
    sides of the overhead comparison alike.  With `speed`, a kernel sample
    is taken before an op when the last one is `speed.EVERY_S` old, and
    once more at the end, so every op has one on each side.
    """
    for _ in range(cycles):
        ops = workload.cycle()
        for op in ops:
            if speed is not None:
                speed.maybe_sample()
            stats.run(kd, op)
        if tracer is not None:
            tracer.install(PACKAGE, COUNTER_HOOKS)
            try:
                for op in ops:
                    traced.run(kd, op)
            finally:
                tracer.uninstall()
    if speed is not None:
        speed.sample()


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest order statistic with at
    least TAIL_BEYOND samples above it, or the maximum when that statistic
    would not lie above the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def load_spec() -> dict:
    """BENCHMARK.json: the names, units and order of the reported metrics."""
    return json.loads(SPEC_FILE.read_text())


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def time_metrics(setup_s: float, latencies: list[float]) -> tuple[dict, float, int]:
    tail, pct, n = tail_latency(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
    }, pct, n


def end_to_end(stats: Stats, setup: tuple[float, list[float]], speed: Speed,
               peak_rss_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics, with times scaled by the machine's speed; the
    times as measured go to the details."""
    scaled = stats.scaled_latencies(speed)
    values, pct, n = time_metrics(setup[0], scaled)
    measured, _, _ = time_metrics(statistics.median(setup[1]), stats.latencies)
    values["peak_rss_mb"] = peak_rss_kb / 1024.0
    values["ok_frac"] = (stats.attempted - stats.failed) / stats.attempted
    details = {"setup_samples_s": setup[1], "latency_tail_percentile": pct,
               "latency_samples": n, "unscaled": measured,
               "scaled_median_ms_by_op": stats.median_ms_by_label(scaled),
               "speed": {"samples": len(speed.starts), "mean_kernel_s": speed.mean_s()}}
    return {m["name"]: metric(values[m["name"]], m["unit"])
            for m in load_spec()["end_to_end"]}, details


def per_layer(tracer: Tracer, traced: Stats, untraced: Stats, imports: dict) -> dict:
    ops = traced.attempted
    self_s, calls = tracer.self_times(), tracer.calls()
    values = {name: imports[module] for name, module in IMPORT_METRICS.items()}
    for name, (span, kind) in SPAN_METRICS.items():
        values[name] = (self_s if kind == "self" else calls)[span] / ops
    counts = tracer.counters + traced.counters
    for name in COUNTER_METRICS:
        values[name] = counts[name] / ops
    for layer in LAYERS:
        values[f"{layer}.errors"] = tracer.errors[layer] / ops
    values[TRACE_METRICS[0]] = untraced.ops_per_s()
    values[TRACE_METRICS[1]] = traced.ops_per_s()
    values[TRACE_METRICS[2]] = untraced.ops_per_s() - traced.ops_per_s()
    return {m["name"]: metric(values[m["name"]], m["unit"])
            for m in load_spec()["per_layer"]}


def traced_run(kd, workload, cycles: int, untraced: Stats, traced: Stats):
    """Every cycle once untraced and once traced, in this process.

    Returns the tracer, the import times and details; the spans are saved.
    """
    imports = [importtime_seconds(_child(["-X", "importtime"]).stderr)
               for _ in range(IMPORTTIME_RUNS)]
    imports = {m: statistics.median(r[m] for r in imports) for m in imports[0]}
    tracer = Tracer()
    run_cycles(kd, workload, cycles, untraced, tracer, traced)
    missing = {span for span, _ in SPAN_METRICS.values()} - set(tracer.names)
    if missing:
        raise RuntimeError(f"no public function for spans {sorted(missing)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}.npz"
    tracer.save(path)
    return tracer, imports, {"spans": len(tracer), "span_file": str(path.relative_to(ROOT)),
                             "importtime_runs": IMPORTTIME_RUNS}


def verdict(runs) -> tuple[bool, int, int, int]:
    """(correct, attempted, failed, checks run): a run that checked nothing
    is not correct."""
    attempted = sum(s.attempted for s in runs)
    failed = sum(s.failed for s in runs)
    checks = sum(s.checks for s in runs)
    return failed == 0 and checks > 0, attempted, failed, checks


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: {PACKAGE} sources not found under {SRC}", file=sys.stderr)
        return 2
    cycles = cycles_per_run(WORKLOADS[args.workload], args.seconds)
    warm, measured, replay = Stats(), Stats(), Stats()
    phases = {}  # wall seconds of each phase of the run
    t0 = time.perf_counter()
    speed = Speed(*KERNELS[args.workload])
    if args.trace:
        cycles = max(1, cycles // 2)  # each cycle runs twice
    else:
        setup = setup_samples(speed)  # before this process loads the package
    kd = import_package()
    workload = WORKLOADS[args.workload](args.seed)
    for op in workload.warmup():
        warm.run(kd, op)
    phases["setup_and_warmup"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if args.trace:
        tracer, imports, extra = traced_run(kd, workload, cycles, measured, replay)
        runs = (warm, measured, replay)
    else:
        run_cycles(kd, workload, cycles, measured, speed=speed)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runs = (warm, measured)
    phases["cycles"] = time.perf_counter() - t0
    correct, attempted, failed, checks = verdict(runs)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": machine_info(), "checks_run": checks, "cycles": cycles,
               "ops_measured": measured.attempted, "phase_s": phases,
               "median_ms_by_op": measured.median_ms_by_label(),
               "failures": [f for s in runs for f in s.failures]}
    if checks == 0:
        details["failures"].append("no checks ran")
    if not measured.latencies or (args.trace and not replay.latencies):
        print(json.dumps({"perfbench": details}))
        print("perfbench: no op passed; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(tracer, replay, measured, imports)
    else:
        metrics, extra = end_to_end(measured, setup, speed, peak_rss_kb)
    details.update(extra)
    print(json.dumps({"perfbench": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
