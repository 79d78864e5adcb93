"""Command-line front end.

Exit codes: 0 on success, 1 when a verification contract fails, 2 for usage
errors.  All output is deterministic for a fixed (command line, seed) pair.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from . import gap as gap_mod
from . import spectrum, spinham
from .lattice import build_torus, check_size, torus_to_dict

BLOCH_TOL = 1e-8
ALGEBRA_TOL = 1e-12


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError:
        raise ValueError(f"could not parse {what} list {text!r}")


def _emit_lines(chunks, out: str | None) -> None:
    """Write each chunk followed by a newline.

    The first chunk is taken before the output is opened, so a generator
    that validates its inputs before its first chunk leaves no partial
    output.  An output that cannot be opened is a usage error.
    """
    chunks = iter(chunks)
    chunk = next(chunks, None)
    try:
        target = open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}")
    with target as fh:
        while chunk is not None:
            fh.write(chunk)
            fh.write("\n")
            chunk = next(chunks, None)


def _emit_json(payload, out: str | None) -> None:
    # a value beyond the float range is refused, not printed as the non-JSON
    # token Infinity or NaN
    _emit_lines([json.dumps(payload, indent=2, allow_nan=False)], out)


def cmd_bands(args) -> int:
    J = spectrum.as_couplings(_parse_floats(args.J, "--J"), d=args.d)
    t = _parse_floats(args.t, "--t") if args.t is not None else None
    if args.format == "json":
        cols, values = spectrum.band_table(J, args.grid, hoppings=t)
        # json prints each float's repr, which parses back to the same bits
        # as the CSV's 17 significant digits
        _emit_json({"columns": cols, "rows": values.tolist()}, args.out)
    else:
        _emit_lines(spectrum.band_csv_lines(J, args.grid, hoppings=t), args.out)
    return 0


def cmd_gap(args) -> int:
    J = spectrum.as_couplings(_parse_floats(args.J, "--J"), d=args.d)
    report = dataclasses.asdict(gap_mod.gap_report(J, grid_n=args.grid))
    if report["zero_phi"] is not None:
        report["zero_phi"] = report["zero_phi"].tolist()
    _emit_json(report, args.out)
    return 0


def cmd_gapmap(args) -> int:
    _emit_lines(gap_mod.gapmap_csv_lines(args.d, args.resolution), args.out)
    return 0


def cmd_lattice(args) -> int:
    _emit_json(torus_to_dict(build_torus(args.d, args.N)), args.out)
    return 0


def cmd_verify(args) -> int:
    check_size(args.draws, 0, "--draws")
    torus = build_torus(args.d, args.N)
    swept = torus
    if args.corrupt_sign:
        # reversing one bond flips the sign of its term in the hopping form
        e = torus.edges[0]
        swept = dataclasses.replace(
            torus, edges=(e._replace(frm=e.to, to=e.frm), *torus.edges[1:])
        )
    rng = np.random.default_rng(args.seed)
    failures = []
    max_dev = 0.0
    first_J = None
    for k in range(args.draws):
        J = rng.uniform(-2.0, 2.0, size=args.d + 1)
        if k == 0:
            first_J = J
        dev = spectrum.verify_bloch_equivalence(swept, J)
        max_dev = max(max_dev, dev)
        if not dev < BLOCH_TOL:
            failures.append(
                {"draw": k, "d": args.d, "N": args.N, "seed": args.seed,
                 "J": list(J), "deviation": dev}
            )
    operator_suite = None
    algebra_torus = None
    # the sweep's torus where the spin model fits the entry budget, else one cell
    for candidate_N in dict.fromkeys((args.N, 1)):
        candidate = torus if candidate_N == args.N else build_torus(args.d, candidate_N)
        with contextlib.suppress(ValueError):
            spinham.tensor_dims(candidate)
            algebra_torus = candidate
            break
    if algebra_torus is not None and first_J is not None:
        system = spinham.build_spin_hamiltonian(algebra_torus, first_J)
        operator_suite = verify_ops_payload(system)
        if not operator_suite["pass"]:
            failures.append(
                {"suite": "operator-identities", "d": args.d,
                 "N": algebra_torus.N, "seed": args.seed, "J": list(first_J)}
            )
    payload = {
        "d": args.d,
        "N": args.N,
        "draws": args.draws,
        "seed": args.seed,
        "bloch_tolerance": BLOCH_TOL,
        "max_deviation": max_dev,
        "operator_suite": operator_suite,
        "failures": failures,
        "pass": not failures,
    }
    _emit_json(payload, args.out)
    return 0 if not failures else 1


def verify_ops_payload(system) -> dict:
    report = spinham.verify_operator_identities(system)
    ok = (
        report["max_residual"] < ALGEBRA_TOL
        and report["links_exact_pm_one"]
        and report["parity_diagonal_pm_one"]
    )
    return {**report, "tolerance": ALGEBRA_TOL, "pass": bool(ok)}


def cmd_verify_algebra(args) -> int:
    torus = build_torus(args.d, args.N)
    if args.J is not None:
        J = spectrum.as_couplings(_parse_floats(args.J, "--J"), d=args.d)
    else:
        J = np.random.default_rng(args.seed).uniform(-2.0, 2.0, size=args.d + 1)
    system = spinham.build_spin_hamiltonian(torus, J)
    payload = verify_ops_payload(system)
    payload.update({"d": args.d, "N": args.N, "J": list(J)})
    _emit_json(payload, args.out)
    return 0 if payload["pass"] else 1


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
                           help="comma-separated couplings J_1,...,J_{d+1}")
        if N is not None:
            p.add_argument("--N", type=int, default=N, help="torus size per axis")
        if grid is not None:
            p.add_argument("--grid", type=int, default=grid,
                           help="phase-grid points per axis")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")

    p = sub.add_parser("bands", help="band table over the phase grid (CSV)")
    common(p, need_J=True, grid=64)
    p.add_argument("--t", type=str, default=None,
                   help="comma-separated hoppings t_1,...,t_{d+1} for extra tight-binding columns")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("gap", help="gap classification report (JSON)")
    common(p, need_J=True, grid=48)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("gapmap", help="classify the coupling simplex on a rational grid (CSV)")
    common(p)
    p.add_argument("--resolution", type=int, default=40,
                   help="barycentric denominator of the simplex grid")
    p.set_defaults(func=cmd_gapmap)

    p = sub.add_parser("lattice", help="torus graph with embedded positions (JSON)")
    common(p, N=2)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", help="spectral equivalence sweep plus operator identities")
    common(p, N=2)
    p.add_argument("--draws", type=int, default=20, help="random coupling draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--corrupt-sign", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-algebra", help="operator-identity residual report (JSON)")
    common(p, N=1)
    p.add_argument("--J", type=str, default=None,
                   help="comma-separated couplings (default: one seeded random draw)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_verify_algebra)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
