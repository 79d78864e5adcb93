"""Gap classification of the diamond-lattice bands over the coupling simplex.

The spectrum has a zero iff no coupling magnitude exceeds the sum of all the
others.  Sufficiency is constructive: side lengths |J_l| that satisfy the
(non-strict) polygon inequality close up into a planar polygon, and the edge
direction angles, corrected for coupling signs and a global rotation, are
phases at which the band amplitude vanishes.  A numeric minimiser is kept
alongside as an independent oracle: a grid scan with the last phase in
closed form, then one vectorised damped Newton polish from several starts,
in plain numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import check_budget, check_size, place_values, simplex_count
from .spectrum import ROW_BLOCK, TWO_PI, as_couplings, as_phases, csv_floats, range_exponent
from .spectrum import _as_real

# Relative slack that routes numerically degenerate (collinear) polygons to
# the exact collinear solution instead of a zero-area construction.
_DEGENERATE_RTOL = 32.0 * np.finfo(float).eps

# The numeric oracle refuses a scan whose slice of grid points exceeds this.
_SCAN_CAP = 50_000_000
# Grid points per vectorised slice of the oracle's scan.
_SCAN_CHUNK = 1 << 15
# Damped Newton polish: iteration cap, step size that counts as converged,
# and the initial and smallest damping (J is scaled to order one first).
_NEWTON_MAX_ITER = 100
_NEWTON_XTOL = 1e-9
_NEWTON_MU0 = 1e-3
_NEWTON_MU_MIN = 1e-8


def _abs_sum_and_margin(J: np.ndarray) -> tuple[float, float]:
    """Shared primitive for the boundary tests: (sum |J|, sum |J| - 2 max |J|).

    Every classifier compares against the same floating-point values, which
    is what makes them exact complements even on boundary inputs.  The
    magnitudes are scaled by the power of two of `range_exponent`, summed,
    and the results scaled back, so a margin that overflows keeps its sign
    as an infinity instead of turning into NaN.
    """
    mags = np.abs(J)
    top = float(mags.max())
    e = range_exponent(top, mags.size)
    if e:
        mags, top = np.ldexp(mags, -e), np.ldexp(top, -e)
    total = float(mags.sum())
    margin = total - 2.0 * top
    if e:
        with np.errstate(over="ignore"):
            total, margin = float(np.ldexp(total, e)), float(np.ldexp(margin, e))
    return total, margin


def has_zero(J) -> bool:
    """True iff every |J_l| is at most the sum of the other magnitudes."""
    return _abs_sum_and_margin(as_couplings(J))[1] >= 0.0


def gapped_region(J) -> bool:
    """True iff some normalised magnitude |J_l| / sum exceeds one half.

    Exact complement of `has_zero` by construction.
    """
    total, margin = _abs_sum_and_margin(as_couplings(J))
    if total == 0.0:
        raise ValueError("all couplings vanish; the normalised point is undefined")
    return margin < 0.0


def _sides(a) -> np.ndarray:
    """a as float side lengths, refused unless real, 1-d, finite and nonnegative."""
    a = _as_real(a, "side lengths")
    if a.ndim != 1 or not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError("side lengths must be a finite, nonnegative 1-d sequence")
    return a


def polygon_exists(a) -> bool:
    """Strict polygon inequality for the positive side lengths in `a`.

    Zero entries are discarded first; fewer than two positive sides is an
    error.  Equality (a degenerate, collinear polygon) returns False here but
    is still usable by the constructive routines.
    """
    a = _sides(a)
    a = a[a > 0]
    if a.size < 2:
        raise ValueError(f"need at least two positive sides, got {a.size}")
    return _abs_sum_and_margin(a)[1] > 0.0


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

    One triangle closes the polygon.  The sides other than the longest,
    sorted from the longest down as s_1 >= s_2 >= ..., go alternately into
    two straight chains b = s_1 + s_3 + ... and c = s_2 + s_4 + ....  Then
    0 <= b - c <= s_1 <= longest <= b + c (the polygon inequality), so
    (longest, b, c) is a triangle, and every side takes its chain's
    direction.  Near-degenerate margins take the exact collinear solution.
    The sides are first scaled by a power of two so the longest lies in
    [1, 2), since the triangle squares side lengths, which under- or
    overflows at extreme scales.  The scaling is exact (only sides over
    2^1021 times shorter than the longest can round).
    """
    a = np.ldexp(a, 1 - np.frexp(a.max())[1])
    order = np.argsort(a, kind="stable")[::-1]
    s = a[order]
    rest = float(s[1:].sum())
    longest = float(s[0])
    if longest > rest + _DEGENERATE_RTOL * (rest + longest):
        raise ValueError("longest side exceeds the sum of the rest; no closed polygon")
    theta = np.zeros(s.size)
    if longest >= rest - _DEGENERATE_RTOL * (rest + longest):
        # collinear: the longest side runs back along all the others
        theta[0] = np.pi
    else:
        tri = _triangle_angles(longest, float(s[1::2].sum()), float(s[2::2].sum()))
        theta[0], theta[1::2], theta[2::2] = tri
    out = np.empty(s.size)
    out[order] = theta
    return out


def polygon_angles(a) -> np.ndarray:
    """Direction angles of a closed polygon with the given side lengths.

    Requires the non-strict polygon inequality; the degenerate equality case
    yields the collinear solution.  Angles are returned in the input order,
    wrapped to [0, 2pi), with closure residual |sum a_j e^{i theta_j}| at
    machine-precision scale.
    """
    a = _sides(a)
    if a.size < 2 or not np.all(a > 0):
        raise ValueError("need at least two side lengths, all positive")
    return as_phases(_closed_angles(a))


def find_zero(J) -> np.ndarray | None:
    """Phases phi* with f(phi*) = 0, or None when the bands are gapped.

    Couplings become polygon sides |J_l|; negative couplings add a half-turn
    to their side's angle; the phase of the label-1 side is rotated away so
    only the d relative phases remain.  Zero couplings drop out of the
    polygon and contribute nothing at any angle.  Couplings that differ by a
    power of two give the same phases.
    """
    J = as_couplings(J)
    d = J.size - 1
    total, margin = _abs_sum_and_margin(J)
    if margin < 0.0:
        return None
    if total == 0.0:
        return np.zeros(d)
    theta = np.zeros(J.size)
    nz = np.flatnonzero(J)
    theta[nz] = _closed_angles(np.abs(J[nz]))
    theta[J < 0] += np.pi
    return as_phases(theta[1:] - theta[0])


def _grid_start(J: np.ndarray, grid_n: int) -> np.ndarray:
    """Phases of the best grid point, the last phase taken in closed form.

    For fixed phi_1..phi_{d-1}, with z = J_0 + sum_{k<d} J_k e^{i phi_k},
    the minimum of |z + J_d e^{i phi_d}| over phi_d is ||z| - |J_d||, reached
    where J_d e^{i phi_d} points against z.  That is the two-term triangle
    inequality only, not the polygon criterion, so the oracle stays an
    independent check on the classifier.  The scan visits grid_n^(d-1)
    points, in slices of the leading axis of about _SCAN_CHUNK points.
    """
    d = J.size - 1
    w = np.exp(1j * (TWO_PI / grid_n) * np.arange(grid_n))
    tail = np.full((grid_n,) * max(d - 2, 0), complex(J[0]))
    for i in range(2, d):
        shape = [1] * (d - 2)
        shape[i - 2] = grid_n
        tail = tail + J[i] * w.reshape(shape)
    tail = tail.ravel()
    idx: list[int] = []
    z = tail[0]
    if d > 1:
        lead = J[1] * w
        rows = max(1, _SCAN_CHUNK // tail.size)
        best = np.inf
        for m in range(0, grid_n, rows):
            zs = lead[m : m + rows, None] + tail
            dev = np.abs(np.abs(zs) - abs(J[d]))
            k = int(np.argmin(dev))
            if dev.flat[k] < best:
                best = dev.flat[k]
                z = zs.flat[k]
                idx = [(m * tail.size + k) // v % grid_n for v in place_values(grid_n, d - 1)]
    phi = np.empty(d)
    phi[:-1] = (TWO_PI / grid_n) * np.asarray(idx, dtype=float)
    phi[-1] = np.angle(-J[d] * z)
    return phi


def _amplitude(J: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = J_0 + sum_k r_k and r_k = J_k e^{i phi_k}, for phi of shape (B, d)."""
    r = J[1:] * np.exp(1j * phi)
    return J[0] + r.sum(axis=1), r


def _newton_polish(J: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Damped Newton on |s|^2 / 2 from every row of phi at once; |s| per row.

    With r_k = J_k e^{i phi_k}, the gradient is -Im(conj(s) r_k) and the
    Hessian Re(conj(r_j) r_k) - delta_jk Re(conj(s) r_k).  Each row takes the
    step (H + mu I)^{-1}(-grad) only if it lowers |s|, and its mu shrinks on
    success and grows on failure (Levenberg-Marquardt damping), so every row
    descends monotonically and a row on an indefinite Hessian keeps raising
    mu until the step goes downhill.  The floor on mu keeps H + mu I well
    conditioned on the zero set, where H has rank 2.  The polish stops when
    some row reaches |s| at rounding level of sum |J|, where no row can do
    better, or when every step is below _NEWTON_XTOL.  J is expected at
    order one (the caller scales it).
    """
    n, d = phi.shape
    s, r = _amplitude(J, phi)
    a = np.abs(s)
    mu = np.full(n, _NEWTON_MU0)
    floor = np.finfo(float).eps * np.abs(J).sum()
    for _ in range(_NEWTON_MAX_ITER):
        if a.min() <= floor:
            break
        rr = r.view(float).reshape(n, d, 2)
        hess = rr @ rr.transpose(0, 2, 1)
        sr = np.conj(s)[:, None] * r
        hess.reshape(n, d * d)[:, :: d + 1] += mu[:, None] - sr.real
        step = np.linalg.solve(hess, sr.imag[:, :, None])[:, :, 0]
        if np.abs(step).max() <= _NEWTON_XTOL:
            break
        trial = phi + step
        s_t, r_t = _amplitude(J, trial)
        a_t = np.abs(s_t)
        better = a_t < a
        phi = np.where(better[:, None], trial, phi)
        s = np.where(better, s_t, s)
        r = np.where(better[:, None], r_t, r)
        a = np.where(better, a_t, a)
        mu = np.maximum(mu * np.where(better, 0.25, 4.0), _NEWTON_MU_MIN)
    return a


def min_gap_numeric(J, grid_n: int = 48) -> float:
    """Numeric minimum of xi_+ = 2|s| over the phase torus.

    A scan of the grid_n^d grid, the last phase minimised in closed form,
    picks a start; one vectorised damped Newton polish then runs from it,
    from 3 copies jittered within half a grid cell, and from 2 random phase
    vectors.  Descent from the best grid point alone is not enough: every
    phase vector with all components in {0, pi} is a critical point of the
    amplitude, and for small classifier margins one of those saddles can
    undercut every grid point near the true zero set.  The restarts escape
    them (for a positive margin all nonzero critical points are strict
    saddles, so a descent started off the razor edge falls through to the
    zero set).  The couplings are first scaled by a power of two so the
    largest magnitude lies in [1, 2), and the result is scaled back, so
    inputs that differ by a power of two give results that differ by the
    same power.  The result is 2|s| evaluated at an explicit phase vector,
    never the closed-form bound, so up to rounding it cannot undercut the
    true minimum; it is inf only where that value exceeds the float range.
    The scan slice, grid_n^(d-2) points (at least grid_n), is refused above
    _SCAN_CAP before anything is allocated.
    """
    J = as_couplings(J)
    grid_n = check_size(grid_n, 2, "grid_n")
    d = J.size - 1
    if grid_n ** max(d - 2, 1) > _SCAN_CAP:
        raise ValueError(
            f"phase grid of {grid_n}^{d - 1} points is too large; reduce grid_n or d"
        )
    top = float(np.abs(J).max())
    if top == 0.0:
        return 0.0
    e = 1 - np.frexp(top)[1]
    J = np.ldexp(J, e)
    phi0 = _grid_start(J, grid_n)
    rng = np.random.default_rng(12345)
    half_cell = np.pi / grid_n
    starts = np.concatenate([
        phi0[None, :],
        phi0 + rng.uniform(-half_cell, half_cell, size=(3, d)),
        rng.uniform(0.0, TWO_PI, size=(2, d)),
    ])
    with np.errstate(over="ignore"):
        return float(np.ldexp(2.0 * _newton_polish(J, starts).min(), -e))


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
        has_zero=margin >= 0.0,
        margin=margin,
        zero_phi=find_zero(J),
        min_numeric=min_gap_numeric(J, grid_n=grid_n),
    )


def _compositions(d: int, resolution: int) -> np.ndarray:
    """All compositions of `resolution` into d+1 parts, one int row each, in
    lex order.

    Stars and bars: the d bar positions among resolution + d slots, taken in
    lex order, give the parts as the gaps between them, also in lex order.
    The C(resolution + d, d) rows are checked against the budget first.
    """
    d = check_size(d, 1, "dimension")
    resolution = check_size(resolution, 1, "resolution")
    n = simplex_count(d, resolution)
    check_budget(n * (d + 1), f"simplex grid d={d}, resolution={resolution}")
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(resolution + d), d)),
        dtype=np.int64,
        count=n * d,
    ).reshape(n, d)
    return np.diff(bars, axis=1, prepend=-1, append=resolution + d) - 1


def barycentric_grid(d: int, resolution: int) -> np.ndarray:
    """All rational points (k_0/r, ..., k_d/r) with k summing to r, lex order,
    one row each."""
    return _compositions(d, resolution) / resolution


def gapmap_csv_lines(d: int, resolution: int):
    """CSV text classifying every barycentric grid point of the simplex.

    Yields the header, then each block of up to ROW_BLOCK rows, built from
    the resolution + 1 coordinate strings, as one newline-joined string.  A
    point is gapped when its float margin sum(x) - 2 max(x) is negative, the
    test `gapped_region` makes, here on all points at once.
    """
    ks = _compositions(d, resolution)
    x = ks / resolution
    gapped = x.sum(axis=1) - 2.0 * x.max(axis=1) < 0.0
    cells = np.array(csv_floats(np.arange(resolution + 1) / resolution), dtype=object)
    yield ",".join([f"x_{i}" for i in range(d + 1)] + ["gapped"])
    for start in range(0, len(ks), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        cols = [cells[k].tolist() for k in ks[block].T]
        cols.append(np.where(gapped[block], "1", "0").tolist())
        yield "\n".join(map(",".join, zip(*cols)))
