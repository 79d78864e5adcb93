"""Gap classification of the diamond-lattice bands over the coupling simplex.

The spectrum has a zero iff no coupling magnitude exceeds the sum of all the
others.  Sufficiency is constructive: side lengths |J_l| that satisfy the
(non-strict) polygon inequality close up into a planar polygon, and the edge
direction angles, corrected for coupling signs and a global rotation, are
phases at which the band amplitude vanishes.  A brute grid-plus-descent
minimiser is kept alongside as an independent numeric oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .spectrum import TWO_PI, as_couplings

# Relative slack that routes numerically degenerate (collinear) polygons to
# the exact collinear solution instead of a zero-area construction.
_DEGENERATE_RTOL = 32.0 * np.finfo(float).eps


def _abs_sum_and_margin(J: np.ndarray) -> tuple[float, float]:
    """Shared primitive for the boundary tests: (sum |J|, sum |J| - 2 max |J|).

    Both classifiers compare against the same floating-point values, which is
    what makes them exact complements even on boundary inputs.
    """
    mags = np.abs(J)
    total = float(mags.sum())
    return total, total - 2.0 * float(mags.max())


def has_zero(J) -> bool:
    """True iff every |J_l| is at most the sum of the other magnitudes."""
    J = as_couplings(J)
    _, margin = _abs_sum_and_margin(J)
    return margin >= 0.0


def gapped_region(J) -> bool:
    """True iff some normalised magnitude |J_l| / sum exceeds one half.

    Exact complement of `has_zero` by construction.
    """
    J = as_couplings(J)
    total, margin = _abs_sum_and_margin(J)
    if total == 0.0:
        raise ValueError("all couplings vanish; the normalised point is undefined")
    return margin < 0.0


def polygon_exists(a) -> bool:
    """Strict polygon inequality for the positive side lengths in `a`.

    Zero entries are discarded first; fewer than two positive sides is an
    error.  Equality (a degenerate, collinear polygon) returns False here but
    is still usable by the constructive routines.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError("side lengths must be a 1-d sequence")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("side lengths must be finite and nonnegative")
    a = a[a > 0]
    if a.size < 2:
        raise ValueError(f"need at least two positive sides, got {a.size}")
    longest = float(a.max())
    return longest < float(a.sum()) - longest


def _triangle_angles(x: float, y: float, z: float) -> np.ndarray:
    """Edge direction angles closing a triangle with side lengths (x, y, z).

    Valid whenever the three lengths satisfy the (possibly degenerate)
    triangle inequality; the first side is laid along the real axis.
    """
    px = (x * x + z * z - y * y) / (2.0 * x)
    py = float(np.sqrt(max(z * z - px * px, 0.0)))
    return np.array(
        [0.0, np.arctan2(py, px - x), np.arctan2(-py, -px)]
    )


def _closed_angles(a: np.ndarray) -> np.ndarray:
    """Direction angles theta with sum_j a_j e^{i theta_j} = 0, any input order.

    Recursive construction: split off the shortest and longest sides into a
    triangle against a synthetic side e = a_max - a_min + eps, close the
    remaining polygon recursively, then glue the two along e with opposite
    orientations.  Near-degenerate margins fall back to the exact collinear
    solution.
    """
    order = np.argsort(a, kind="stable")
    s = a[order]
    n = s.size
    rest = float(s[:-1].sum())
    longest = float(s[-1])
    if longest > rest + _DEGENERATE_RTOL * (rest + longest):
        raise ValueError("longest side exceeds the sum of the rest; no closed polygon")
    out = np.empty(n)
    if longest >= rest - _DEGENERATE_RTOL * (rest + longest):
        # collinear: the longest side runs back along all the others
        theta = np.zeros(n)
        theta[-1] = np.pi
    elif n == 3:
        theta = _triangle_angles(s[0], s[1], s[2])
    else:
        eps = 0.5 * min(float(s[0]), rest - longest)
        e = longest - float(s[0]) + eps
        tri = _triangle_angles(float(s[0]), longest, e)
        sub = _closed_angles(np.concatenate([[e], s[1:-1]]))
        # rotate the triangle so its e-side opposes the sub-polygon's e-side
        chi = sub[0] + np.pi - tri[2]
        theta = np.empty(n)
        theta[0] = tri[0] + chi
        theta[-1] = tri[1] + chi
        theta[1:-1] = sub[1:]
    out[order] = theta
    return out


def polygon_angles(a) -> np.ndarray:
    """Direction angles of a closed polygon with the given side lengths.

    Requires the non-strict polygon inequality; the degenerate equality case
    yields the collinear solution.  Angles are returned in the input order,
    wrapped to [0, 2pi), with closure residual |sum a_j e^{i theta_j}| at
    machine-precision scale.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("side lengths must be a 1-d sequence of two or more entries")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("side lengths must be finite and positive")
    return np.mod(_closed_angles(a), TWO_PI)


def find_zero(J) -> np.ndarray | None:
    """Phases phi* with f(phi*) = 0, or None when the bands are gapped.

    Couplings become polygon sides |J_l|; negative couplings add a half-turn
    to their side's angle; the phase of the label-1 side is rotated away so
    only the d relative phases remain.  Zero couplings drop out of the
    polygon and contribute nothing at any angle.  The sides are first scaled
    by a power of two so the longest lies in [1, 2), since the construction
    squares side lengths, which under- or overflows at extreme scales.  The
    scaling is exact (only sides over 2^1021 times shorter than the longest
    can round), so inputs already in that range give the same phases.
    """
    J = as_couplings(J)
    d = J.size - 1
    total, margin = _abs_sum_and_margin(J)
    if margin < 0.0:
        return None
    if total == 0.0:
        return np.zeros(d)
    mags = np.abs(J)
    mags = np.ldexp(mags, 1 - np.frexp(mags.max())[1])
    theta = np.zeros(J.size)
    nz = np.flatnonzero(mags)
    theta[nz] = _closed_angles(mags[nz])
    theta[J < 0] += np.pi
    return np.mod(theta[1:] - theta[0], TWO_PI)


def _xi_min_on_grid(J: np.ndarray, grid_n: int) -> tuple[float, np.ndarray]:
    """Exhaustive scan of xi_+ over the grid; returns (min value, argmin phases).

    The scan runs over the leading axis in slices so memory stays at
    O(grid_n^(d-1)) instead of O(grid_n^d).
    """
    d = J.size - 1
    ang = TWO_PI * np.arange(grid_n) / grid_n
    cos_parts = [J[i + 1] * np.cos(ang) for i in range(d)]
    sin_parts = [J[i + 1] * np.sin(ang) for i in range(d)]
    if grid_n ** (d - 1) > 50_000_000:
        raise ValueError(
            f"grid of {grid_n}^{d} points is too large; reduce grid_n or d"
        )
    tail_shape = (grid_n,) * (d - 1)
    re_tail = np.full(tail_shape, J[0])
    im_tail = np.zeros(tail_shape)
    for i in range(1, d):
        shape = [1] * (d - 1)
        shape[i - 1] = grid_n
        re_tail = re_tail + cos_parts[i].reshape(shape)
        im_tail = im_tail + sin_parts[i].reshape(shape)
    best = np.inf
    best_idx: tuple[int, ...] = ()
    re = np.empty(tail_shape)
    im = np.empty(tail_shape)
    sq = np.empty(tail_shape)
    for m in range(grid_n):
        np.add(re_tail, cos_parts[0][m], out=re)
        np.add(im_tail, sin_parts[0][m], out=im)
        np.multiply(re, re, out=sq)
        sq += im * im
        flat = int(np.argmin(sq))
        val = float(sq.flat[flat])
        if val < best:
            best = val
            best_idx = (m, *np.unravel_index(flat, tail_shape)) if d > 1 else (m,)
    phi = TWO_PI * np.asarray(best_idx, dtype=float) / grid_n
    return 2.0 * float(np.sqrt(best)), phi


def _amplitude_sq(J: np.ndarray, phi: np.ndarray) -> tuple[float, np.ndarray]:
    """|J_0 + sum_k J_k e^{i phi_k}|^2 and its gradient in the phases."""
    rot = np.exp(1j * phi) * J[1:]
    s = J[0] + rot.sum()
    grad = -2.0 * np.imag(np.conj(s) * rot)
    return float(s.real * s.real + s.imag * s.imag), grad


def min_gap_numeric(J, grid_n: int = 48) -> float:
    """Numeric minimum of xi_+ over the phase torus.

    Full scan on the grid_n^d grid, then quasi-Newton polish with the
    analytic gradient.  Plain descent from the single best grid point is not
    enough: every phase vector with all components in {0, pi} is a critical
    point of the amplitude, and for small classifier margins one of those
    saddles can undercut every grid point near the true zero set.  A handful
    of perturbed and random restarts escapes them (for a positive margin all
    nonzero critical points are strict saddles, so a descent started off the
    razor edge falls through to the zero set).
    """
    J = as_couplings(J)
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    d = J.size - 1
    best_sq, phi0 = _xi_min_on_grid(J, grid_n)
    best_sq = (best_sq / 2.0) ** 2
    rng = np.random.default_rng(12345)
    half_cell = np.pi / grid_n
    starts = [phi0]
    starts += [phi0 + rng.uniform(-half_cell, half_cell, size=d) for _ in range(3)]
    starts += [rng.uniform(0.0, TWO_PI, size=d) for _ in range(2)]
    scale = float(np.sum(np.abs(J)))
    gtol = 1e-13 * max(1.0, scale * scale)
    for start in starts:
        res = optimize.minimize(
            lambda p: _amplitude_sq(J, p),
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 0.0, "gtol": gtol},
        )
        if res.fun < best_sq:
            best_sq = float(res.fun)
    return 2.0 * float(np.sqrt(max(best_sq, 0.0)))


@dataclass(frozen=True)
class GapReport:
    """Classifier outputs plus the numeric oracle for one coupling vector."""

    has_zero: bool
    margin: float
    zero_phi: np.ndarray | None
    min_numeric: float


def gap_report(J, grid_n: int = 48) -> GapReport:
    J = as_couplings(J)
    _, margin = _abs_sum_and_margin(J)
    return GapReport(
        has_zero=has_zero(J),
        margin=margin,
        zero_phi=find_zero(J),
        min_numeric=min_gap_numeric(J, grid_n=grid_n),
    )


def barycentric_grid(d: int, resolution: int):
    """All rational points (k_0/r, ..., k_d/r) with k summing to r, lex order."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            yield (*prefix, remaining)
            return
        for k in range(remaining + 1):
            yield from rec((*prefix, k), remaining - k, slots - 1)

    for ks in rec((), resolution, d + 1):
        yield np.asarray(ks, dtype=float) / resolution


def gapmap_csv_lines(d: int, resolution: int):
    """CSV rows classifying every barycentric grid point of the simplex."""
    yield ",".join([f"x_{i}" for i in range(d + 1)] + ["gapped"])
    for x in barycentric_grid(d, resolution):
        flag = int(gapped_region(x))
        yield ",".join([f"{v:.17g}" for v in x] + [str(flag)])
