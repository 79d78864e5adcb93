"""Command-line front end.

Exit codes: 0 on success, 1 when a verification contract fails, 2 for usage
errors, an output that cannot be opened or written among them.  All output
is deterministic for a fixed (command line, seed) pair.  `main` parses with
one parser per process and calls the `cmd_<subcommand>` it finds by name
when called, so a command rebound on the module, a tracer's say, runs.

Every command writes through `_emit_lines`, which makes the first block
before it opens the output, so a refused request leaves no partial output
and no file.  `verify` alone opens its output itself, after its argument
checks and before its sweep.  A JSON report is one block, and a non-finite
value in it is refused by the name of its top-level field.  The JSON tables of
`bands` and `lattice` stream: their frames are json's own text, and their rows
and records are printed from the table's columns, in the bytes `_json` gives
the whole table.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import gap as gap_mod
from . import spectrum, spinham
from .lattice import build_torus, check_size, torus_to_dict

BLOCH_TOL = 1e-8
ALGEBRA_TOL = 1e-12


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(f"could not parse {what} list {text!r}")


@contextlib.contextmanager
def _opened(out: str | None):
    """A function that writes a line to stdout, or to the file out opened for
    writing, and flushes it, so a forked worker inherits no unwritten text.
    An output that cannot be opened, written or closed is a usage error."""
    with _writing(out):
        fh = open(out, "w") if out else sys.stdout

    def write(line: str) -> None:
        with _writing(out):
            fh.write(line)
            fh.write("\n")
            fh.flush()

    try:
        yield write
    finally:
        if out:
            with _writing(out):
                fh.close()


@contextlib.contextmanager
def _writing(out: str | None):
    """Turn an OSError into the usage error "cannot write out".

    A stdout that failed, a closed pipe say, is pointed at os.devnull, so
    what is left in its buffer does not fail again when the interpreter
    flushes it at exit.
    """
    try:
        yield
    except OSError as exc:
        if not out:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write {out or 'stdout'}: {exc.strerror}") from None


def _emit_lines(chunks, out: str | None) -> None:
    """Make the first chunk, open the output, then write each chunk as a
    line.  A generator of chunks is closed on every exit."""
    chunks = iter(chunks)
    try:
        chunk = next(chunks, None)
        with _opened(out) as write:
            while chunk is not None:
                write(chunk)
                chunk = next(chunks, None)
    finally:
        if hasattr(chunks, "close"):
            chunks.close()


def _json(payload: dict) -> str:
    """payload as indented JSON, arrays as lists.

    A value beyond the float range is refused, naming the top-level keys
    that hold one, not printed as the non-JSON token Infinity or NaN.
    """
    try:
        return json.dumps(payload, indent=2, allow_nan=False, default=np.ndarray.tolist)
    except ValueError:
        bad = []
        for key, value in payload.items():
            try:
                json.dumps(value, allow_nan=False, default=np.ndarray.tolist)
            except ValueError:
                bad.append(key)
        raise ValueError(f"non-finite value in {', '.join(bad)}; JSON has no Infinity or NaN")


def cmd_bands(args) -> int:
    J = spectrum.as_couplings(_parse_floats(args.J, "--J"), d=args.d)
    t = _parse_floats(args.t, "--t") if args.t is not None else None
    if args.format == "json":
        # each float's repr parses back to the same bits as the CSV's 17
        # significant digits
        _emit_lines(spectrum.band_json_lines(J, args.grid, hoppings=t), args.out)
    else:
        _emit_lines(spectrum.band_csv_lines(J, args.grid, hoppings=t, mapper=_ordered), args.out)
    return 0


def cmd_gap(args) -> int:
    J = spectrum.as_couplings(_parse_floats(args.J, "--J"), d=args.d)
    check_size(args.grid, 2, "--grid")
    report = dataclasses.asdict(gap_mod.gap_report(J, grid_n=args.grid))
    _emit_lines([_json(report)], args.out)
    return 0


def cmd_gapmap(args) -> int:
    _emit_lines(gap_mod.gapmap_csv_lines(args.d, args.resolution), args.out)
    return 0


def cmd_lattice(args) -> int:
    _emit_lines(_torus_lines(torus_to_dict(build_torus(args.d, args.N))), args.out)
    return 0


def _torus_lines(payload: dict):
    """_json(payload)'s text for `torus_to_dict`'s payload, in five chunks: the frame from
    _json with both lists empty, and each list's records from one template, the record's
    kind as _json lays it out two levels deep with each int and float a %r slot (json
    prints either as its repr; every position is finite)."""
    head, middle, tail = _json({**payload, "vertices": [], "edges": []}).split("[]")
    vertices, edges = payload["vertices"], payload["edges"]
    vertex, edge = map(_record_template, (vertices[0], edges[0]))
    yield head + "["
    yield ",\n".join([vertex % (*v["mu"], v["s"], *v["pos"]) for v in vertices])
    yield "  ]" + middle + "["
    yield ",\n".join(map(edge.__mod__, map(tuple, map(dict.values, edges))))
    yield "  ]" + tail


def _record_template(record: dict) -> str:
    slots = {k: ["%r"] * len(v) if isinstance(v, list) else "%r" for k, v in record.items()}
    return "    " + _json(slots).replace('"%r"', "%r").replace("\n", "\n    ")


def cmd_verify(args) -> int:
    check_size(args.draws, 0, "--draws")
    check_size(args.seed, 0, "--seed")
    forms = spectrum._forms_in_budget(args.d, args.N)
    torus = build_torus(args.d, args.N)
    # the output opens before the sweep, so an unwritable one costs no sweep
    with _opened(args.out) as write:
        payload = _verify_payload(args, torus, forms)
        write(_json(payload))
    return 0 if payload["pass"] else 1


def _verify_payload(args, torus, forms: int) -> dict:
    """verify's report, built here alone: the maximum and failure records of
    the sweep's deviations over args.draws couplings, then the operator suite."""
    swept = torus
    if args.corrupt_sign:
        # reversing one bond flips the sign of its term in the hopping form
        frm, to = torus.frm.copy(), torus.to.copy()
        frm[0], to[0] = to[0], frm[0]
        swept = dataclasses.replace(torus, frm=frm, to=to)
    # each eigvalsh is one LAPACK call that threads barely speed up, so the
    # draws run in processes, at most one per hopping form the budget holds
    deviations = list(_ordered(
        lambda k: spectrum.verify_bloch_equivalence(swept, _draw(args.seed, args.d, k)),
        range(args.draws), forms))
    failures = [{"draw": k, "d": args.d, "N": args.N, "seed": args.seed,
                 "J": list(_draw(args.seed, args.d, k)), "deviation": dev}
                for k, dev in enumerate(deviations) if not dev < BLOCH_TOL]
    operator_suite = None
    # the sweep's torus where its spin model fits the entry budget, else its
    # one cell where that fits, else no suite; a one-cell sweep is its own one cell
    fits = spinham.hamiltonian_fits
    algebra_torus = torus if fits(torus) or torus.N == 1 else build_torus(args.d, 1)
    if args.draws and fits(algebra_torus):
        first_J = _draw(args.seed, args.d, 0)
        system = spinham.build_spin_hamiltonian(algebra_torus, first_J)
        operator_suite = verify_ops_payload(system)
        if not operator_suite["pass"]:
            failures.append(
                {"suite": "operator-identities", "d": args.d,
                 "N": algebra_torus.N, "seed": args.seed, "J": list(first_J)}
            )
    return {
        "d": args.d,
        "N": args.N,
        "draws": args.draws,
        "seed": args.seed,
        "bloch_tolerance": BLOCH_TOL,
        "max_deviation": max([0.0, *deviations]),
        "operator_suite": operator_suite,
        "failures": failures,
        "pass": not failures,
    }


def _draw(seed: int, d: int, k: int) -> np.ndarray:
    """Draw k of the sweep's couplings: the k-th d+1 uniforms on [-2, 2) of
    default_rng(seed).  Each uniform takes one 64-bit output, so advancing
    the generator by k*(d+1) outputs gives the serial draw bit for bit."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(k * (d + 1))
    return rng.uniform(-2.0, 2.0, size=d + 1)


def _workers(items: int, cap: int | None = None) -> int:
    """Processes to run items on: the usable CPUs, at most one per item and
    at most cap; 1 in a process that runs more than one thread or is
    daemonic, or off Linux.

    A second thread rules out both forking this process and a multi-threaded
    BLAS, which processes would oversubscribe; a daemonic process, a pool's
    worker say, may start no process.
    """
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        return 1
    workers = min(cpus, items, items if cap is None else cap)
    if workers < 2:
        return 1
    # imported here: at module level it costs every command start-up time
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else workers


def _send_each(conn, fn, items) -> None:
    """A forked worker's body: send fn(item) through conn for each item in
    turn, or the exception one raised, for the calling process to raise."""
    try:
        for item in items:
            conn.send(fn(item))
    except Exception as exc:
        conn.send(exc)


def _ordered(fn, items, cap: int | None = None):
    """fn(item) for each item of the sequence items, yielded in order.

    Item k runs in process k % workers, for `_workers(len(items), cap)`
    workers: this one for 0, and for the rest one worker each, forked when
    the first item is asked for.  Each worker sends its results one at a
    time through its own pipe, so this process holds about one result per
    worker and starts no thread; forked, because a spawned worker would
    import the package again.  A worker's exception is raised here, at its
    item.  Every worker is terminated and joined on every exit: by then it
    has sent every result, or the consumer stopped early or an item failed,
    and its results are not wanted.
    """
    workers = _workers(len(items), cap)
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    sys.stdout.flush()
    sys.stderr.flush()
    forked = []
    try:
        for w in range(1, workers):
            recv, send = context.Pipe(duplex=False)
            proc = context.Process(target=_send_each, args=(send, fn, items[w::workers]))
            proc.start()
            send.close()
            forked.append((proc, recv))
        for k, item in enumerate(items):
            if k % workers == 0:
                yield fn(item)
                continue
            result = forked[k % workers - 1][1].recv()
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for proc, recv in forked:
            proc.terminate()
            recv.close()
            proc.join()


def verify_ops_payload(system) -> dict:
    report = spinham.verify_operator_identities(system)
    ok = (
        report["max_residual"] < ALGEBRA_TOL
        and report["links_exact_pm_one"]
        and report["parity_diagonal_pm_one"]
    )
    return {**report, "tolerance": ALGEBRA_TOL, "pass": bool(ok)}


def cmd_verify_algebra(args) -> int:
    check_size(args.seed, 0, "--seed")
    torus = build_torus(args.d, args.N)
    if args.J is not None:
        J = spectrum.as_couplings(_parse_floats(args.J, "--J"), d=args.d)
    else:
        J = _draw(args.seed, args.d, 0)
    system = spinham.build_spin_hamiltonian(torus, J)
    payload = verify_ops_payload(system)
    payload.update({"d": args.d, "N": args.N, "J": list(J)})
    _emit_lines([_json(payload)], args.out)
    return 0 if payload["pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitaev-diamond",
        description="Band structure and operator algebra of Kitaev-type models "
        "on d-dimensional diamond lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, need_J=False, N=None, grid=None):
        p.add_argument("--d", type=int, required=True, help="lattice dimension")
        if need_J:
            p.add_argument("--J", type=str, required=True,
                           help="comma-separated couplings J_1,...,J_{d+1}; a list that "
                           "starts with a minus sign is written --J=-1,2")
        if N is not None:
            p.add_argument("--N", type=int, default=N, help="torus size per axis")
        if grid is not None:
            p.add_argument("--grid", type=int, default=grid,
                           help="phase-grid points per axis")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")

    p = sub.add_parser("bands", help="band table over the phase grid (CSV)")
    common(p, need_J=True, grid=64)
    p.add_argument("--t", type=str, default=None,
                   help="comma-separated hoppings t_1,...,t_{d+1} for extra tight-binding "
                   "columns; a list that starts with a minus sign is written --t=-1,2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("gap", help="gap classification report (JSON)"), need_J=True, grid=48)

    p = sub.add_parser("gapmap", help="classify the coupling simplex on a rational grid (CSV)")
    common(p)
    p.add_argument("--resolution", type=int, default=40,
                   help="barycentric denominator of the simplex grid")

    common(sub.add_parser("lattice", help="torus graph with embedded positions (JSON)"), N=2)

    p = sub.add_parser("verify", help="spectral equivalence sweep plus operator identities")
    common(p, N=2)
    p.add_argument("--draws", type=int, default=20, help="random coupling draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--corrupt-sign", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("verify-algebra", help="operator-identity residual report (JSON)")
    common(p, N=1)
    p.add_argument("--J", type=str, default=None,
                   help="comma-separated couplings (default: one seeded random draw); a list "
                   "that starts with a minus sign is written --J=-1,2")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # found when called, not bound in the parser: a cmd_* rebound on this module runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
