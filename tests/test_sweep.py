"""The forked runner `cli._ordered` against the serial map.

`verify`'s draws and the CSV blocks of `bands` fork workers only in a
process that runs one thread, and the pytest process may run BLAS
threads, so every pooled command here runs in a fresh interpreter with one
BLAS thread.  It reports three usable CPUs, so the pool also runs three
processes, over item counts that three does not divide, on a machine with
fewer; a fork hook counts the workers each command forked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kitaev_diamond
from kitaev_diamond import cli

CHILD = r"""
import contextlib, hashlib, io, json, os, sys, tempfile, threading, time
import multiprocessing
from kitaev_diamond import cli, lattice

forks = []
os.register_at_fork(before=lambda: forks.append(1))
os.sched_getaffinity = lambda pid: {0, 1, 2}
serial_workers = lambda items, cap=None: 1
pooled_workers = cli._workers


def state(forked):
    return {"forks": len(forks) - forked,
            "children": len(multiprocessing.active_children()),
            # every child process, zombies included
            "processes": len(open(f"/proc/self/task/{os.getpid()}/children").read().split()),
            "threads": len(os.listdir("/proc/self/task"))}


def run(argv, stdout=None):
    forked = len(forks)
    buf = io.StringIO() if stdout is None else stdout
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out = buf.getvalue() if stdout is None else ""
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1]) as fh:
            out = fh.read()
    return {"code": code, "out": out, "err": err.getvalue(), **state(forked)}


def both(argv, digest=False):
    pooled = run(argv)
    cli._workers = serial_workers
    try:
        serial = run(argv)
    finally:
        cli._workers = pooled_workers
    if digest:
        # a table's text is kept as its sha256, its size and its line count
        for side in (pooled, serial):
            text = side.pop("out")
            side["out"] = [hashlib.sha256(text.encode()).hexdigest(), len(text),
                           text.count("\n")]
    return {"argv": argv, "pooled": pooled, "serial": serial}


tmp = tempfile.mkdtemp()
report = {"cases": [both(argv) for argv in json.loads(sys.argv[1])]}
report["tables"] = [both([a.replace("OUT", os.path.join(tmp, "t.csv")) for a in argv], True)
                    for argv, *_ in json.loads(sys.argv[2])]
report["out"] = both(["verify", "--d", "2", "--N", "4", "--draws", "6",
                      "--corrupt-sign", "--out", os.path.join(tmp, "v.json")])

# a second thread keeps the sweep serial
release = threading.Event()
waiter = threading.Thread(target=release.wait)
waiter.start()
try:
    report["threaded"] = run(["verify", "--d", "2", "--N", "12", "--draws", "20"])
finally:
    release.set()
    waiter.join(timeout=10)

# an error raised in a worker is raised by the calling process, as in a
# serial sweep: exit code 2 with its message
parent, compare = os.getpid(), cli.spectrum.verify_bloch_equivalence


def compare_here(torus, J):
    if os.getpid() != parent:
        raise ValueError("raised in a worker")
    return compare(torus, J)


cli.spectrum.verify_bloch_equivalence = compare_here
report["raised"] = run(["verify", "--d", "2", "--N", "3", "--draws", "4"])
# failed draws between passing ones: a draw fails where its first coupling
# is positive
cli.spectrum.verify_bloch_equivalence = lambda torus, J: 1.0 if J[0] > 0 else 0.0
report["scattered"] = both(["verify", "--d", "3", "--N", "2", "--draws", "12", "--seed", "4"])
cli.spectrum.verify_bloch_equivalence = compare

# the same for a CSV block: the rows before the failed block are written
band_block = cli.spectrum._band_block


def band_block_here(values, axis, d, start):
    if os.getpid() != parent:
        raise ValueError("raised in a worker")
    return band_block(values, axis, d, start)


cli.spectrum._band_block = band_block_here
report["raised_block"] = run(["bands", "--d", "2", "--J", "1,1,1", "--grid", "200"])
cli.spectrum._band_block = band_block
report["raised_block"]["lines"] = report["raised_block"].pop("out").count("\n")

# a consumer that stops early: the worker still on its item is terminated,
# and every worker is joined
def slow(k):
    if k == 5:
        time.sleep(60)
    return k


forked, started = len(forks), time.monotonic()
items = cli._ordered(slow, range(10), 3)
got = [next(items) for _ in range(3)]
items.close()
report["closed"] = {"got": got, "seconds": time.monotonic() - started, **state(forked)}

# a stdout whose reader goes once the header is written, as the first
# worker is forked: exit code 2 with one line, and every worker joined
read_end, write_end = os.pipe()


def close_reader():
    global read_end
    if read_end is not None:
        os.close(read_end)
        read_end = None


os.register_at_fork(before=close_reader)
with os.fdopen(write_end, "w") as closing:
    report["broken_pipe"] = run(["bands", "--d", "2", "--J", "1,1,1", "--grid", "200"], closing)

# a daemonic process may start no process: its sweep stays serial
def in_daemon(conn):
    conn.send(run(json.loads(sys.argv[1])[1]))


recv, send = multiprocessing.Pipe(duplex=False)
daemon = multiprocessing.get_context("fork").Process(target=in_daemon, args=(send,),
                                                     daemon=True)
daemon.start()
send.close()
try:
    report["daemon"] = recv.recv()
except EOFError:
    # the daemon died before it sent a result
    report["daemon"] = {"forks": None, "code": None, "out": None}
daemon.join(timeout=30)
report["daemon"]["alive"] = daemon.is_alive()

# two matrices of order 32 fit the entry budget exactly, and one entry less
# keeps the sweep serial
budget = lattice.ENTRY_BUDGET
report["budget"] = {}
for entries in (2 * 32**2, 2 * 32**2 - 1):
    lattice.ENTRY_BUDGET = entries
    report["budget"][entries] = run(["verify", "--d", "2", "--N", "4", "--draws", "6"])
lattice.ENTRY_BUDGET = budget
print(json.dumps(report))
"""

# (d, N, draws, seed): 20, 10 and 7 draws over three processes, 2 draws over
# two, and one draw, which stays serial
CASES = [
    ["verify", "--d", "2", "--N", "12", "--draws", "20"],
    ["verify", "--d", "2", "--N", "3", "--draws", "10", "--seed", "7"],
    ["verify", "--d", "3", "--N", "2", "--draws", "7", "--seed", "3"],
    ["verify", "--d", "16", "--N", "1", "--draws", "2", "--seed", "5"],
    ["verify", "--d", "1", "--N", "9", "--draws", "7", "--seed", "11", "--corrupt-sign"],
    ["verify", "--d", "2", "--N", "2", "--draws", "2", "--seed", "1", "--corrupt-sign"],
    ["verify", "--d", "2", "--N", "2", "--draws", "1"],
]


# CSV tables, their blocks of ROW_BLOCK rows and the workers each forks:
# bands one per block, at most one per CPU; gapmap formats its blocks in
# process. OUT stands for a file in a temporary directory
TABLES = [
    (["bands", "--d", "2", "--J", "0.3,-1.2,0.7", "--grid", "100"], 1, 0),
    (["bands", "--d", "2", "--J", "0.3,-1.2,0.7", "--t", "1.1,0.4,-0.9", "--grid", "200"], 3, 2),
    (["bands", "--d", "3", "--J", "1,1,1,1", "--grid", "64", "--out", "OUT"], 16, 2),
    (["gapmap", "--d", "2", "--resolution", "40"], 1, 0),
    (["gapmap", "--d", "2", "--resolution", "300"], 3, 0),
    (["gapmap", "--d", "4", "--resolution", "48", "--out", "OUT"], 17, 0),
]


@pytest.fixture(scope="module")
def report():
    src = str(Path(kitaev_diamond.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(CASES), json.dumps(TABLES)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _expected_workers(argv):
    draws = int(argv[argv.index("--draws") + 1])
    return min(3, draws)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_pooled_sweep_prints_the_serial_bytes(report, index):
    case = report["cases"][index]
    pooled, serial = case["pooled"], case["serial"]
    assert pooled["forks"] == max(0, _expected_workers(case["argv"]) - 1)
    assert serial["forks"] == 0
    assert (pooled["code"], pooled["out"]) == (serial["code"], serial["out"])
    doc = json.loads(pooled["out"])
    if "--corrupt-sign" in case["argv"]:
        # every draw fails, in draw order
        assert pooled["code"] == 1
        assert [f["draw"] for f in doc["failures"]] == list(range(doc["draws"]))
    else:
        assert pooled["code"] == 0 and doc["pass"] is True


def test_pooled_sweep_writes_the_serial_bytes_to_out(report):
    pooled, serial = report["out"]["pooled"], report["out"]["serial"]
    assert pooled["forks"] == 2 and pooled["code"] == serial["code"] == 1
    assert pooled["out"] == serial["out"]


@pytest.mark.parametrize("index", range(len(TABLES)))
def test_pooled_tables_print_the_serial_bytes(report, index):
    case, (_, blocks, forks) = report["tables"][index], TABLES[index]
    pooled, serial = case["pooled"], case["serial"]
    assert pooled["forks"] == forks and serial["forks"] == 0
    assert (pooled["code"], pooled["err"]) == (serial["code"], serial["err"]) == (0, "")
    assert pooled["out"] == serial["out"]
    # the header and one line per row
    assert -(-(pooled["out"][2] - 1) // cli.spectrum.ROW_BLOCK) == blocks


def test_no_worker_outlives_the_sweep(report):
    for case in report["cases"] + report["tables"]:
        assert case["pooled"]["children"] == case["pooled"]["processes"] == 0
        assert case["pooled"]["threads"] == 1


def test_an_error_in_a_worker_is_raised_by_the_caller(report):
    raised = report["raised"]
    assert raised["forks"] == 2 and raised["code"] == 2 and raised["out"] == ""
    assert raised["err"] == "error: raised in a worker\n"
    assert raised["children"] == raised["processes"] == 0 and raised["threads"] == 1


def test_an_error_in_a_block_worker_is_raised_at_its_block(report):
    raised = report["raised_block"]
    assert raised["forks"] == 2 and raised["code"] == 2
    assert raised["err"] == "error: raised in a worker\n"
    # the header and block 0, formatted by the calling process, were written
    assert raised["lines"] == 1 + cli.spectrum.ROW_BLOCK
    assert raised["children"] == raised["processes"] == 0 and raised["threads"] == 1


def test_a_consumer_that_stops_early_joins_every_worker(report):
    closed = report["closed"]
    assert closed["got"] == [0, 1, 2] and closed["forks"] == 2
    # the worker asleep on item 5 was terminated, not waited for
    assert closed["seconds"] < 30
    assert closed["children"] == closed["processes"] == 0 and closed["threads"] == 1


def test_a_closed_stdout_is_a_usage_error(report):
    broken = report["broken_pipe"]
    assert broken["forks"] == 2 and broken["code"] == 2
    assert broken["err"] == "error: cannot write stdout: Broken pipe\n"
    assert broken["children"] == broken["processes"] == 0 and broken["threads"] == 1


def test_failed_draws_between_passing_ones_give_the_serial_bytes(report):
    pooled, serial = report["scattered"]["pooled"], report["scattered"]["serial"]
    assert pooled["forks"] == 2 and serial["forks"] == 0
    assert (pooled["code"], pooled["out"]) == (serial["code"], serial["out"])
    failed = [f["draw"] for f in json.loads(pooled["out"])["failures"]]
    assert pooled["code"] == 1
    assert failed == [k for k in range(12) if cli._draw(4, 3, k)[0] > 0]
    assert failed != list(range(failed[0], failed[-1] + 1))


def test_a_second_thread_keeps_the_sweep_serial(report):
    threaded = report["threaded"]
    assert threaded["forks"] == 0
    assert threaded["out"] == report["cases"][0]["serial"]["out"]


def test_a_daemonic_process_sweeps_serially(report):
    daemon = report["daemon"]
    assert daemon["forks"] == 0 and daemon["alive"] is False
    assert (daemon["code"], daemon["out"]) == (0, report["cases"][1]["serial"]["out"])


def test_the_sweep_pools_only_matrices_that_fit_the_budget_twice(report):
    assert report["budget"][str(2 * 32**2)]["forks"] == 1
    assert report["budget"][str(2 * 32**2 - 1)]["forks"] == 0


@pytest.mark.parametrize("seed, d", [(0, 1), (0, 2), (7, 3), (2**40, 16), (3, 1000)])
def test_each_share_draws_the_serial_couplings(seed, d):
    """Draw k is the k-th serial draw bit for bit, so every process draws
    the serial couplings for its share of the draws."""
    rng = np.random.default_rng(seed)
    for k in range(11):
        want = rng.uniform(-2.0, 2.0, size=d + 1)
        assert cli._draw(seed, d, k).tobytes() == want.tobytes()
