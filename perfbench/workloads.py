"""Seeded workloads for the benchmark: their ops and the checks on each result.

Every workload is a closed loop with one client.  Ops come in fixed cycles so
that each run measures whole cycles, the same mix of op kinds whatever the
seed; the seed only changes the couplings and hoppings the program receives.
Every checker recomputes what it can from the generated inputs with plain
numpy, raises `CheckFailed` on a wrong result and returns how many checks it
made.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


class CheckFailed(Exception):
    """A result of the program disagrees with the benchmark's own check."""


class Checks:
    """Counter of passed checks; the first failing one raises."""

    def __init__(self) -> None:
        self.count = 0

    def require(self, ok, what: str) -> None:
        if not ok:
            raise CheckFailed(what)
        self.count += 1


@dataclass(frozen=True)
class Op:
    """One unit of work: `call(package)` runs it, `check(result)` validates it.

    `call` looks every function up on the package at call time, so a traced
    run sees the wrapped functions.  `counters(result)` gives the counts the
    benchmark itself measures on the result.
    """

    label: str
    call: Callable
    check: Callable[[object], int]
    counters: Callable[[object], dict] | None = None


def _amplitude(J: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|f| = 2 |J_1 + sum_k J_{k+1} e^{i phi_k}| over the last axis of phi."""
    return 2.0 * np.abs(J[0] + np.exp(1j * np.asarray(phi)) @ J[1:])


def _margin(J: np.ndarray) -> tuple[float, float]:
    mags = np.abs(J)
    total = float(mags.sum())
    return total, total - 2.0 * float(mags.max())


# -- oracle ---------------------------------------------------------------

ORACLE_DIMS = (2, 3, 4)
ORACLE_GRID = 48
ORACLE_BAND = 1e-3  # |margin| below this share of sum|J| is not compared
NUMERIC_ZERO = 1e-4  # oracle minimum below this share of sum|J| counts as a zero
ZERO_TOL = 1e-9  # |f(find_zero)| / sum|J| must stay below this
# |margin| below this share of sum|J| is float rounding, not geometry: there
# has_zero may take either side, and only its consistency is checked
BOUNDARY_RTOL = 64.0 * np.finfo(float).eps


ORACLE_CLASSES = ("gapless", "gapped", "gapless", "zeroed", "boundary")


def draw_couplings(rng: np.random.Generator, d: int, kind: str) -> np.ndarray:
    """Couplings of one class, as in the acceptance criteria's draws.

    "gapless" and "gapped" are uniform draws redrawn until they fall on that
    side of the boundary, "zeroed" zeroes some entries (never all), and
    "boundary" sets one magnitude to the sum of the others.  A fixed class
    mix per cycle keeps the oracle's work per cycle the same for every seed.
    """
    while True:
        J = rng.uniform(-2.0, 2.0, size=d + 1)
        if kind == "zeroed":
            J[rng.random(d + 1) < 0.4] = 0.0
            if np.any(J) and not np.all(J):
                return J
        elif kind == "boundary":
            k = int(rng.integers(0, d + 1))
            J[k] = np.sign(J[k]) * np.delete(np.abs(J), k).sum()
            return J
        elif (_margin(J)[1] >= 0.0) == (kind == "gapless"):
            return J


def check_oracle(J: np.ndarray, result) -> int:
    has_zero, phi, min_gap = result
    d = J.size - 1
    total, margin = _margin(J)
    c = Checks()
    if abs(margin) >= BOUNDARY_RTOL * total:
        c.require(has_zero == (margin >= 0.0), "has_zero disagrees with the polygon margin")
    c.require((phi is None) == (not has_zero), "find_zero disagrees with has_zero")
    if phi is not None:
        phi = np.asarray(phi, dtype=float)
        c.require(phi.shape == (d,), f"find_zero returned shape {phi.shape}")
        c.require(float(_amplitude(J, phi)) / total < ZERO_TOL,
                  "find_zero is not a zero of f")
    exact_min = 2.0 * max(0.0, -margin)
    c.require(np.isfinite(min_gap) and min_gap >= exact_min - ZERO_TOL * total,
              "min_gap_numeric undercuts the exact minimum")
    if abs(margin) >= ORACLE_BAND * total:
        c.require(has_zero == (min_gap < NUMERIC_ZERO * total),
                  "classifier and numeric oracle disagree")
    return c.count


def oracle_op(J: np.ndarray) -> Op:
    def call(kd):
        return (kd.gap.has_zero(J), kd.gap.find_zero(J),
                kd.gap.min_gap_numeric(J, grid_n=ORACLE_GRID))

    return Op(f"oracle-d{J.size - 1}", call, lambda r: check_oracle(J, r))


class Oracle:
    """has_zero, find_zero and min_gap_numeric on seeded couplings, d = 2, 3, 4.

    A cycle is every class of ORACLE_CLASSES at every d, 15 ops: an odd
    count, so the median latency falls inside one kind of op rather than in
    the gap between two.
    """

    name = "oracle"
    nominal_cycle_s = 0.33
    min_cycles = 1

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def warmup(self) -> list[Op]:
        return self.cycle()

    def cycle(self) -> list[Op]:
        return [oracle_op(draw_couplings(self.rng, d, kind))
                for kind in ORACLE_CLASSES for d in ORACLE_DIMS]


# -- algebra --------------------------------------------------------------

ALGEBRA_DIMS = tuple(range(2, 16))
SECTOR_CAP = 1024  # plus_sector_dimension only where total_dim <= this
RESIDUAL_TOL = 1e-12


def spin_total_dim(d: int) -> int:
    """Hilbert-space dimension of the one-cell torus: two sites of 2^(d//2+1)."""
    return (2 ** (d // 2 + 1)) ** 2


def check_algebra(d: int, result) -> int:
    system, report, sector = result
    total = spin_total_dim(d)
    c = Checks()
    c.require(system.total_dim == total, f"total_dim {system.total_dim} != {total}")
    c.require(system.hamiltonian.shape == (total, total), "Hamiltonian has the wrong shape")
    c.require(len(system.link_ops) == d + 1, "wrong number of link operators")
    c.require(report["max_residual"] < RESIDUAL_TOL,
              f"operator-identity residual {report['max_residual']:.3g}")
    c.require(report["links_exact_pm_one"] is True, "link operators not exactly +-1")
    c.require(report["parity_diagonal_pm_one"] is True, "parity not exactly diagonal +-1")
    if total <= SECTOR_CAP:
        want = 0 if d % 4 == 1 else 1
        c.require(sector == want, f"plus-sector dimension {sector}, expected {want}")
    return c.count


def algebra_op(d: int, J: np.ndarray) -> Op:
    with_sector = spin_total_dim(d) <= SECTOR_CAP

    def call(kd):
        torus = kd.lattice.build_torus(d, 1)
        system = kd.spinham.build_spin_hamiltonian(torus, J)
        report = kd.spinham.verify_operator_identities(system)
        sector = kd.spinham.plus_sector_dimension(system) if with_sector else None
        return system, report, sector

    return Op(f"algebra-d{d}", call, lambda r: check_algebra(d, r))


class Algebra:
    """Spin Hamiltonian and operator identities on one-cell tori, d = 2..15.

    Six tori cost less than d = 6 and 7 and six cost more, so the median
    falls in the middle of the d = 6, 7 group; over three cycles the tail
    falls in the middle of the d = 14 group.
    """

    name = "algebra"
    nominal_cycle_s = 11.9
    min_cycles = 3  # so the tail falls inside the d = 14 group

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def _op(self, d: int) -> Op:
        return algebra_op(d, self.rng.uniform(-2.0, 2.0, size=d + 1))

    def warmup(self) -> list[Op]:
        return [self._op(d) for d in ALGEBRA_DIMS if d <= 7]

    def cycle(self) -> list[Op]:
        return [self._op(d) for d in ALGEBRA_DIMS]


# -- cli ------------------------------------------------------------------

BANDS_D, BANDS_GRID = 3, 64
JSON_D, JSON_GRID = 2, 64
GAPMAP_D, GAPMAP_RES = 4, 40
LATTICE_D, LATTICE_N = 3, 6
VERIFY_D, VERIFY_N, VERIFY_DRAWS = 2, 12, 20  # dense eigvalsh of order 288
VERIFY_REPEATS = 4
BLOCH_TOL = 1e-8
VALUE_RTOL = 1e-12
BANDS_SAMPLES = 256


def _floats(flag: str, values) -> str:
    """`--flag=v1,v2,...`; the `=` keeps a leading minus from reading as a flag."""
    return f"{flag}=" + ",".join(repr(float(v)) for v in values)


def run_cli(kd, argv: list[str]):
    """One in-process `cli.main(argv)` with stdout and stderr kept in memory.

    Returns (exit code, stdout, stderr); argparse's exit becomes a code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kd.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _grid_phases(d: int, grid: int, rows: np.ndarray) -> np.ndarray:
    m = np.stack(np.unravel_index(rows, (grid,) * d), axis=-1)
    return TWO_PI * m / grid


def _check_exit(c: Checks, result) -> str:
    code, out, err = result
    c.require(code == 0, f"exit code {code}: {err.strip()[:200]}")
    c.require(out.endswith("\n"), "output does not end with a newline")
    return out


def check_bands_csv(J: np.ndarray, grid: int, result, sample_seed: int) -> int:
    """Row count, header, and |f| recomputed on the first, last and a seeded
    sample of rows, found by scanning for newlines without splitting."""
    c = Checks()
    text = _check_exit(c, result)
    d = J.size - 1
    n_rows = grid**d
    c.require(text.count("\n") == n_rows + 1, "wrong number of band rows")
    header_end = text.index("\n")
    header = [f"phi_{i + 1}" for i in range(d)] + ["xi_plus", "xi_minus"]
    c.require(text[:header_end].split(",") == header, "wrong band header")
    rng = np.random.default_rng(sample_seed)
    wanted = sorted({0, n_rows - 1, *rng.integers(0, n_rows, BANDS_SAMPLES).tolist()})
    rows = []
    pos, row = header_end + 1, 0
    for target in wanted:
        while row < target:
            pos = text.index("\n", pos) + 1
            row += 1
        rows.append(text[pos:text.index("\n", pos)].split(","))
    c.require(all(len(r) == d + 2 for r in rows), "wrong band column count")
    vals = np.array(rows, dtype=float)
    phi = _grid_phases(d, grid, np.array(wanted))
    scale = 2.0 * float(np.abs(J).sum())
    c.require(np.allclose(vals[:, :d], phi, rtol=0.0, atol=VALUE_RTOL * TWO_PI),
              "band phases are off the grid")
    c.require(np.allclose(vals[:, d], _amplitude(J, phi), rtol=0.0, atol=VALUE_RTOL * scale),
              "xi_plus differs from |f|")
    c.require(np.array_equal(vals[:, d + 1], -vals[:, d]), "xi_minus != -xi_plus")
    return c.count


def check_bands_json(J: np.ndarray, t: np.ndarray, grid: int, result) -> int:
    c = Checks()
    payload = json.loads(_check_exit(c, result))
    d = J.size - 1
    cols = [f"phi_{i + 1}" for i in range(d)] + ["xi_plus", "xi_minus", "E_plus", "E_minus"]
    c.require(payload["columns"] == cols, "wrong JSON band columns")
    vals = np.array(payload["rows"], dtype=float)
    c.require(vals.shape == (grid**d, d + 4), f"band rows have shape {vals.shape}")
    phi = _grid_phases(d, grid, np.arange(grid**d))
    c.require(np.allclose(vals[:, :d], phi, rtol=0.0, atol=VALUE_RTOL * TWO_PI),
              "band phases are off the grid")
    c.require(np.allclose(vals[:, d], _amplitude(J, phi), rtol=0.0,
                          atol=VALUE_RTOL * 2.0 * float(np.abs(J).sum())),
              "xi_plus differs from |f|")
    # the tight-binding amplitude is |f| under J = t / 2
    c.require(np.allclose(vals[:, d + 2], _amplitude(t / 2.0, phi), rtol=0.0,
                          atol=VALUE_RTOL * float(np.abs(t).sum())),
              "E_plus differs from |r|")
    c.require(np.array_equal(vals[:, d + 1], -vals[:, d])
              and np.array_equal(vals[:, d + 3], -vals[:, d + 2]),
              "minus bands are not the negated plus bands")
    return c.count


def gapmap_reference(d: int, resolution: int) -> str:
    """Expected `gapmap` output: every composition of `resolution` into d+1
    parts in lex order, classified by the documented float margin
    sum(x) - 2 max(x) < 0 (summed left to right, as numpy does for so few
    terms).  Off the exact boundary the flag must match integer arithmetic."""
    text = [",".join([f"x_{i}" for i in range(d + 1)] + ["gapped"])]
    cells = [f"{k / resolution:.17g}" for k in range(resolution + 1)]

    def compositions(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in compositions(remaining - k, slots - 1):
                yield (k, *rest)

    for ks in compositions(resolution, d + 1):
        total = 0.0
        for k in ks:
            total += k / resolution
        gapped = total - 2.0 * (max(ks) / resolution) < 0.0
        if 2 * max(ks) != resolution and gapped != (2 * max(ks) > resolution):
            raise AssertionError(f"float margin misclassifies {ks} off the boundary")
        text.append(",".join([cells[k] for k in ks] + [str(int(gapped))]))
    return "\n".join(text) + "\n"


def check_gapmap(reference: str, result) -> int:
    c = Checks()
    text = _check_exit(c, result)
    c.require(text.count("\n") == reference.count("\n"), "wrong number of gapmap rows")
    c.require(text == reference, "gapmap output differs from the recomputed map")
    return c.count


def check_lattice(d: int, N: int, result) -> int:
    """Vertex order, every edge recomputed, degrees, and positions in R^(d+1):
    on the zero-sum hyperplane, with one bond length on unwrapped edges."""
    c = Checks()
    payload = json.loads(_check_exit(c, result))
    L = N**d
    cells = np.stack(np.unravel_index(np.arange(L), (N,) * d), axis=-1)
    verts = payload["vertices"]
    c.require(payload["d"] == d and payload["N"] == N, "wrong torus header")
    c.require(len(verts) == 2 * L, f"{len(verts)} vertices, expected {2 * L}")
    mu = np.array([v["mu"] for v in verts])
    s = np.array([v["s"] for v in verts])
    c.require(np.array_equal(mu, np.concatenate([cells, cells]))
              and np.array_equal(s, np.repeat([0, 1], L)), "vertex order differs")
    want = []
    for rank in range(L):
        want.append((L + rank, rank, 0, 1))
        for i in range(d):
            shifted = cells[rank].copy()
            shifted[i] = (shifted[i] + 1) % N
            want.append((L + rank, int(np.ravel_multi_index(shifted, (N,) * d)), i + 1, i + 2))
    edges = payload["edges"]
    got = [(e["from"], e["to"], e["direction"], e["label"]) for e in edges]
    c.require(got == want, "edge list differs from the recomputed torus")
    degree = np.bincount(np.array([g[:2] for g in got]).ravel(), minlength=2 * L)
    c.require(np.all(degree == d + 1), "a vertex does not have degree d+1")
    pos = np.array([v["pos"] for v in verts], dtype=float)
    c.require(pos.shape == (2 * L, d + 1) and np.all(np.isfinite(pos)),
              "bad vertex positions")
    c.require(np.all(np.abs(pos.sum(axis=1)) <= 1e-12 * N),
              "vertex positions leave the zero-sum hyperplane")
    # edges that do not wrap around the torus all have the same bond length
    inner = [(f, t) for f, t, direction, _ in got
             if direction == 0 or cells[t][direction - 1] != 0]
    lengths = np.linalg.norm(pos[[t for _, t in inner]] - pos[[f for f, _ in inner]], axis=1)
    c.require(np.ptp(lengths) <= 1e-12 * lengths.max(), "bond lengths differ")
    return c.count


def check_verify(draws: int, result) -> int:
    c = Checks()
    payload = json.loads(_check_exit(c, result))
    c.require(payload["pass"] is True and payload["failures"] == [], "verify did not pass")
    c.require(payload["draws"] == draws and draws > 0, "verify compared no spectra")
    c.require(0.0 <= payload["max_deviation"] < BLOCH_TOL, "spectral deviation too large")
    suite = payload["operator_suite"]
    c.require(suite is not None and suite["pass"] is True
              and suite["max_residual"] < RESIDUAL_TOL, "operator suite did not pass")
    return c.count


def _output_bytes(result) -> dict:
    return {"cli.output_bytes": len(result[1])}


class Cli:
    """A seeded matrix of in-process `cli.main` calls.

    Per cycle, verify runs VERIFY_REPEATS times and every other command once.
    That puts the median and the tail latency inside the verify group, one
    kind of op, and leaves the long formatting commands to ops_per_s.
    """

    name = "cli"
    nominal_cycle_s = 9.0
    min_cycles = 3  # at least 2 * TAIL_BEYOND latencies, so the tail is not the maximum

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.gapmap_text = gapmap_reference(GAPMAP_D, GAPMAP_RES)

    def _op(self, label, argv, check) -> Op:
        return Op(f"cli-{label}", lambda kd: run_cli(kd, argv), check, _output_bytes)

    def bands_csv(self) -> Op:
        J = self.rng.uniform(-2.0, 2.0, size=BANDS_D + 1)
        sample_seed = int(self.rng.integers(2**31))
        argv = ["bands", "--d", str(BANDS_D), _floats("--J", J), "--grid", str(BANDS_GRID)]
        return self._op("bands-csv", argv,
                        lambda r: check_bands_csv(J, BANDS_GRID, r, sample_seed))

    def bands_json(self) -> Op:
        J = self.rng.uniform(-2.0, 2.0, size=JSON_D + 1)
        t = self.rng.uniform(-2.0, 2.0, size=JSON_D + 1)
        argv = ["bands", "--d", str(JSON_D), _floats("--J", J), _floats("--t", t),
                "--grid", str(JSON_GRID), "--format", "json"]
        return self._op("bands-json", argv, lambda r: check_bands_json(J, t, JSON_GRID, r))

    def gapmap(self) -> Op:
        argv = ["gapmap", "--d", str(GAPMAP_D), "--resolution", str(GAPMAP_RES)]
        return self._op("gapmap", argv, lambda r: check_gapmap(self.gapmap_text, r))

    def lattice(self) -> Op:
        argv = ["lattice", "--d", str(LATTICE_D), "--N", str(LATTICE_N)]
        return self._op("lattice", argv, lambda r: check_lattice(LATTICE_D, LATTICE_N, r))

    def verify(self) -> Op:
        argv = ["verify", "--d", str(VERIFY_D), "--N", str(VERIFY_N),
                "--draws", str(VERIFY_DRAWS), "--seed", str(int(self.rng.integers(2**31)))]
        return self._op("verify", argv, lambda r: check_verify(VERIFY_DRAWS, r))

    def warmup(self) -> list[Op]:
        return [self.bands_json(), self.lattice(), self.verify()]

    def cycle(self) -> list[Op]:
        return [self.bands_csv(), self.gapmap(), self.bands_json(), self.lattice(),
                *(self.verify() for _ in range(VERIFY_REPEATS))]


WORKLOADS = {w.name: w for w in (Oracle, Algebra, Cli)}
