"""Gap classification of the diamond-lattice bands over the coupling simplex.

The spectrum has a zero iff no coupling magnitude exceeds the sum of all the
others.  Sufficiency is constructive: side lengths |J_l| that satisfy the
(non-strict) polygon inequality close up into a planar polygon, and the edge
direction angles, corrected for coupling signs and a global rotation, are
phases at which the band amplitude vanishes.  A numeric minimiser is kept
alongside as an independent oracle: a grid scan with the last phase in
closed form by the two-term triangle inequality, which also rules out whole
columns of the grid, one piece of the tail at a time, and so skips them
with the full scan's bits, then one vectorised damped Newton polish from
several starts, in plain numpy, which also steps off a saddle every start
ends on.  Its one reverse-triangle bound |s| >= 2 max |J| - sum |J| only
decides when to stop: the result is still evaluated at a phase vector, so
a wrong bound could only stop the polish early, at a value the
closed-form gate of the tests then rejects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import MEMO_SIZE, check_budget, check_size, grid_count, place_values, simplex_count
from .spectrum import ROW_BLOCK, TWO_PI, as_couplings, as_phases, csv_floats, range_exponent
from .spectrum import _as_real

# Relative slack that routes numerically degenerate (collinear) polygons to
# the exact collinear solution instead of a zero-area construction.
_DEGENERATE_RTOL = 32.0 * np.finfo(float).eps

# The numeric oracle refuses a scan whose tail, the grid_n^(d-2) points one
# row of the scan adds to each leading phase, exceeds this.
_SCAN_CAP = 50_000_000
# It also refuses a scan that visits more than this, grid_n^(d-1) points: the tail cap
# alone admits scans of months, and 2^31 points take about 10 s on one core at d = 3..5.
_SCAN_WORK = 1 << 31
# Most grid points per vectorised slice of the oracle's scan.
_SCAN_CHUNK = 1 << 15
# Shortest scan row filled by its own add where a slice outgrows numpy's
# ufunc buffer (see `_scan`): the call per row, about a microsecond, then
# costs less than the page faults a broadcast add's buffers can take.
_ROW_FILL_MIN = 256
# Slack of the scan's column bound, per unit of sum |J| (see `_column_limit`).
_COLUMN_SLACK = 64.0 * np.finfo(float).eps
# Rows of the scan whose points the column bound must be expected to save
# before it is applied: about what the bound cost at d = 4, grid 48, where
# this break-even was measured.
_PRUNE_ROWS = 5
# Damped Newton polish: iteration cap, step size that counts as converged,
# and the initial and smallest damping (J is scaled to order one first).
_NEWTON_MAX_ITER = 100
_NEWTON_XTOL = 1e-12
_NEWTON_MU0 = 1e-3
_NEWTON_MU_MIN = 1e-12
# Most saddles the polish escapes after its descent, the phase step it takes
# off each one along the direction of negative curvature, and the slack above
# the reverse-triangle bound, per unit of sum |J|, within which it stays put.
_ESCAPE_ROUNDS = 4
_ESCAPE_KICK = 0.5
_ESCAPE_SLACK = float(np.sqrt(np.finfo(float).eps))


def _abs_sum_and_margin(J: np.ndarray) -> tuple[float, float]:
    """Shared primitive for the boundary tests: (sum |J|, sum |J| - 2 max |J|).

    Every classifier compares against the same floating-point values, which
    is what makes them exact complements even on boundary inputs.  The margin
    is rounded: where the exact one lies within about d eps sum |J| of 0, its
    sign may differ.  The magnitudes are scaled by the power of two of
    `range_exponent`, summed, and the results scaled back, so a margin that
    overflows keeps its sign as an infinity instead of turning into NaN.
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
    """True iff the float margin sum|J| - 2 max|J| is >= 0: every |J_l| at most the sum
    of the others, where the exact margin is not within about d eps sum|J| of 0."""
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


def _column_limit(J: np.ndarray, lead: np.ndarray, tail: np.ndarray) -> float:
    """Largest key |T_p - c| of a scan column that can hold its first
    minimum, or inf where dropping columns would not pay.

    Column p of the scan holds the points lead_m + t_p, m = 0..grid_n-1.
    Every lead_m = J_1 e^{i phi_1} has modulus L = |J_1|, so |lead_m + t_p|
    lies in [|L - T_p|, L + T_p] with T_p = |t_p|, and no deviation
    ||z| - |J_d|| of the column is below the distance from |J_d| to that
    interval, LB_p = max(0, |T_p - c| - r) with c = max(L, |J_d|) and
    r = min(L, |J_d|).  That is the two-term triangle inequality of the
    closed-form last phase again, not the polygon criterion.

    The keys of every step-th column, at most about 4096, are sampled.  No
    column whose key is at most max(r, the least sampled key) can be
    dropped; where the sample puts fewer points beyond that than
    _PRUNE_ROWS rows of the scan hold, inf is returned: the full scan needs
    no bound to be exact.  Otherwise the sampled column of least key is
    evaluated in full; its least deviation best0 is one the scan attains,
    so the scan's minimum is at most best0, and the limit is r + best0 +
    slack, with slack = _COLUMN_SLACK sum |J|.  With S = sum |J|, which
    bounds every modulus involved, the computed values stray from the exact
    ones by: |lead_m| from L, a few eps S (the modulus of exp's w_m and the
    product with J_1); the complex add, eps S / 2; np.abs, about eps S; the
    subtraction of |J_d|, eps S / 2; and on the key's side np.abs of t_p,
    the subtraction of c and the sums in the limit, about 2 eps S: together
    under 8 eps S, an eighth of the slack.  So every point of a column whose
    computed key exceeds the limit computes a deviation strictly above best0.
    """
    d = J.size - 1
    L, Jd = abs(J[1]), abs(J[d])
    c, r = max(L, Jd), min(L, Jd)
    step = max(7, tail.size >> 12) | 1
    sample = np.abs(np.abs(tail[::step]) - c)
    k = int(sample.argmin())
    if np.count_nonzero(sample > max(r, sample[k])) * step * lead.size < _PRUNE_ROWS * tail.size:
        return np.inf
    best0 = np.abs(np.abs(lead + tail[k * step]) - Jd).min()
    return r + (best0 + _COLUMN_SLACK * np.abs(J).sum())


def _scan(J: np.ndarray, lead: np.ndarray, tail: np.ndarray, limit: float) -> tuple[int, complex]:
    """Flat index and value of the first z = lead_m + t_p, row-major in
    (m, p), with the least ||z| - |J_d||, among the columns p whose key
    ||t_p| - max(|J_1|, |J_d|)| is at most limit (see `_column_limit`).

    The tail is taken in pieces of at most _SCAN_CHUNK points.  Each piece
    computes its keys once, gathers its kept points, and scans them in
    slices of whole rows lead[m:m+rows, None] + kept, at most _SCAN_CHUNK
    points each, filled into one complex and one float buffer allocated per
    call.  Pieces come before rows, so a tie is broken by the smaller flat
    index, not by the order of the slices: the first minimum wins, as in one
    scan of the whole grid.  A slice is filled by copying lead_m across its
    row m and adding the points in place: numpy 2 runs the broadcast
    lead + kept through its ufunc buffer (np.getbufsize() elements) at about
    twice the cost of a plain add, with buffers for two operands, where the
    in-place add buffers one.  Where a slice outgrows that buffer and its
    rows have from _ROW_FILL_MIN points to a third of it, each row is one
    contiguous scalar add instead: a buffer that size is allocated on every
    call, and scans at grid 48 took up to 220 page faults each that way,
    where row adds take none.  Every fill adds the same two numbers, and
    addition commutes, so every value keeps its bits.  Only the tail grows
    with the tail: the buffers, the keys, a piece's column indices and its
    gathered points are bounded by _SCAN_CHUNK.
    """
    grid_n, Jd = lead.size, abs(J[-1])
    zbuf = np.empty(min(grid_n * tail.size, _SCAN_CHUNK), dtype=complex)
    dbuf = np.empty(zbuf.size)
    best, at = np.inf, 0
    bufsize = np.getbufsize()
    for p in range(0, tail.size, _SCAN_CHUNK):
        kept, cols = tail[p : p + _SCAN_CHUNK], None
        if limit < np.inf:
            key = np.abs(kept, out=dbuf[: kept.size])
            key -= max(abs(J[1]), Jd)
            cols = np.flatnonzero(np.abs(key, out=key) <= limit)
            kept = kept[cols]
        n = kept.size
        if not n:
            continue
        rows = min(grid_n, _SCAN_CHUNK // n)
        by_row = _ROW_FILL_MIN <= n <= bufsize // 3 and rows * n > bufsize
        for m in range(0, grid_n, rows):
            row = lead[m : m + rows]
            zs = zbuf[: row.size * n].reshape(row.size, n)
            dev = dbuf[: zs.size].reshape(zs.shape)
            if by_row:
                for i, a in enumerate(row.tolist()):
                    np.add(kept, a, zs[i])
            else:
                zs[...] = row[:, None]
                zs += kept
            np.abs(zs, out=dev)
            dev -= Jd
            np.abs(dev, out=dev)
            k = int(dev.argmin())
            i, j = divmod(k, n)
            flat = (m + i) * tail.size + p + (j if cols is None else int(cols[j]))
            if (dev.flat[k], flat) < (best, at):
                best, at, z = dev.flat[k], flat, zs.flat[k]
        # freed before the next piece's are made
        del cols, kept
    return at, z


def _grid_start(J: np.ndarray, grid_n: int) -> np.ndarray:
    """Phases of the best grid point, the last phase taken in closed form.

    For fixed phi_1..phi_{d-1}, with z = J_0 + sum_{k<d} J_k e^{i phi_k},
    the minimum of |z + J_d e^{i phi_d}| over phi_d is ||z| - |J_d||, reached
    where J_d e^{i phi_d} points against z.  That is the two-term triangle
    inequality only, not the polygon criterion, so the oracle stays an
    independent check on the classifier.  The grid_n^(d-1) points are
    lead_m + t_p, a row per leading phase and a column per point of the
    tail.  A grid of more than one slice of _SCAN_CHUNK points takes the
    limit of `_column_limit`, and `_scan` skips the columns beyond it, none
    of which holds the first minimum.  The tail is only read.  Every path
    adds the same operands and takes np.abs elementwise, so every value
    keeps its bits, and so do the first minimum, its z and the phases
    returned.
    """
    d = J.size - 1
    w = np.exp(1j * (TWO_PI / grid_n) * np.arange(grid_n))
    # t = J_0 + J_2 e^{i phi_2} + ..., phi_2 slowest, one pass per term
    tail = np.array([complex(J[0])])
    for i in range(2, d):
        tail = (tail[:, None] + J[i] * w).ravel()
    idx: list[int] = []
    z = tail[0]
    if d > 1:
        lead = J[1] * w
        limit = _column_limit(J, lead, tail) if grid_n * tail.size > _SCAN_CHUNK else np.inf
        at, z = _scan(J, lead, tail, limit)
        idx = [at // v % grid_n for v in place_values(grid_n, d - 1)]
    phi = np.empty(d)
    phi[:-1] = (TWO_PI / grid_n) * np.asarray(idx, dtype=float)
    phi[-1] = np.angle(-J[d] * z)
    return phi


def _amplitude(J: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = J_0 + sum_k r_k and r_k = J_k e^{i phi_k}, for phi of shape (B, d)."""
    r = J[1:] * np.exp(1j * phi)
    return J[0] + r.sum(axis=1), r


def _descend(J: np.ndarray, phi: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on |s|^2 / 2 from every row of phi, down to floor; |s| and phases per row.

    With r_k = J_k e^{i phi_k}, the gradient is -Im(conj(s) r_k) and the
    Hessian Re(conj(r_j) r_k) - delta_jk Re(conj(s) r_k).  Each row takes the
    step (H + mu I)^{-1}(-grad) only if it lowers |s|, and its mu shrinks on
    success and grows on failure (Levenberg-Marquardt damping), so every row
    descends monotonically and a row on an indefinite Hessian keeps raising
    mu until the step goes downhill.  The floor on mu keeps H + mu I
    invertible on the zero set, where H has rank 2, and lies far enough
    below one that near a thin polygon, where the Jacobian of s has a small
    second singular value, the damping does not swamp that direction and
    stall the descent along it.  The descent stops when some row reaches
    floor, or when every step is below _NEWTON_XTOL.
    """
    n, d = phi.shape
    s, r = _amplitude(J, phi)
    a = np.abs(s)
    mu = np.full(n, _NEWTON_MU0)
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
    return a, phi


def _newton_polish(J: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|s| per row of phi: a damped Newton descent (`_descend`) from every row,
    then an escape from the saddle the best row may end on.

    One reverse-triangle bound, max(0, 2 max |J| - sum |J|) from
    `_abs_sum_and_margin`, sets both stops.  No phase vector has |s| below
    it (0 for gapless couplings), so every descent stops once a row reaches
    it plus eps sum |J|.  Newton is drawn to every critical point, and every
    phase vector in {0, pi}^d is one, so all rows can end on one saddle.
    While the best |s| lies more than _ESCAPE_SLACK sum |J| above the bound
    and the Hessian there has a negative eigenvalue, two rows _ESCAPE_KICK
    either side of the best along its eigenvector descend to the same floor
    and are kept if they end lower; a best row within that slack keeps its
    bits.  J is expected at order one (the caller scales it).
    """
    total, margin = _abs_sum_and_margin(J)
    bound = max(0.0, -margin)
    floor = bound + np.finfo(float).eps * total
    a, phi = _descend(J, phi, floor)
    for _ in range(_ESCAPE_ROUNDS):
        low = a.min()
        if low <= bound + _ESCAPE_SLACK * total:
            break
        best = phi[a.argmin()]
        s, r = _amplitude(J, best[None, :])
        hess = np.real(np.conj(r).T * r) - np.diag(np.real(np.conj(s) * r[0]))
        curv, vec = np.linalg.eigh(hess)
        if curv[0] >= 0.0:
            break
        kick = np.outer([_ESCAPE_KICK, -_ESCAPE_KICK], vec[:, 0])
        kicked, phi_k = _descend(J, best + kick, floor)
        if kicked.min() >= low:
            break
        a, phi = kicked, phi_k
    return a


# The restart offsets of the oracle, keyed by (d, grid_n) and bounded to the
# MEMO_SIZE pairs last used; its arrays are read-only, safe to share.
@functools.lru_cache(maxsize=MEMO_SIZE)
def _restart_offsets(d: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """3 jitter offsets within half a grid cell and 2 random phase vectors,
    drawn in that order from np.random.default_rng(12345)."""
    rng = np.random.default_rng(12345)
    half_cell = np.pi / grid_n
    jitter = rng.uniform(-half_cell, half_cell, size=(3, d))
    spread = rng.uniform(0.0, TWO_PI, size=(2, d))
    jitter.flags.writeable = spread.flags.writeable = False
    return jitter, spread


def min_gap_numeric(J, grid_n: int = 48) -> float:
    """Numeric minimum of xi_+ = 2|s| over the phase torus.

    A scan of the grid_n^d grid, the last phase minimised in closed form,
    picks a start; one vectorised damped Newton polish then runs from it,
    from 3 copies jittered within half a grid cell, and from 2 random phase
    vectors.  Both are drawn from one fixed seed once per (d, grid_n) and
    kept, read-only, in a memo of the MEMO_SIZE pairs last used, so every
    call with those sizes starts from the same offsets.
    Descent from the best grid point alone is not enough: every phase
    vector with all components in {0, pi} is a critical point of the
    amplitude, and for small classifier margins one of those saddles can
    undercut every grid point near the true zero set.  Newton is drawn to
    saddles too, so the restarts alone can all end on one; the polish then
    steps off it along negative curvature (for a positive margin all
    nonzero critical points are strict saddles, so a descent started off the
    razor edge falls through to the zero set).  Nonzero couplings are first
    scaled by a power of two so the largest magnitude lies in [1, 2), and
    the result is scaled back, so inputs that differ by a power of two give
    results that differ by the same power.  The polish stops within rounding
    of the reverse-triangle bound, which it reads once (see `_newton_polish`).
    The result is 2|s| evaluated at an explicit phase vector, never the
    bound, so up to rounding it cannot undercut the true minimum, and a
    wrong bound could only stop the polish early, at a value the closed-form
    gate rejects; it is inf only where that value exceeds the float range.
    Refused before anything is allocated: a scan tail of grid_n^(d-2) points (counted
    as at least grid_n) above _SCAN_CAP, or a scan of grid_n^(d-1) points above _SCAN_WORK.
    """
    J = as_couplings(J)
    grid_n = check_size(grid_n, 2, "grid_n")
    d = J.size - 1
    if grid_count(grid_n, max(d - 2, 1)) > _SCAN_CAP or grid_count(grid_n, d - 1) > _SCAN_WORK:
        raise ValueError(
            f"phase grid of {grid_n}^{d - 1} points is too large; reduce grid_n or d"
        )
    e = 1 - np.frexp(np.abs(J).max())[1]
    J = np.ldexp(J, e)
    phi0 = _grid_start(J, grid_n)
    jitter, spread = _restart_offsets(d, grid_n)
    starts = np.concatenate([phi0[None, :], phi0 + jitter, spread])
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
        has_zero=has_zero(J),
        margin=margin,
        zero_phi=find_zero(J),
        min_numeric=min_gap_numeric(J, grid_n=grid_n),
    )


def _compositions(d: int, resolution: int) -> np.ndarray:
    """All compositions of `resolution` into d+1 parts, one int row each, in
    lex order.

    Built one part per step, in lex order: a prefix that leaves `rest` takes
    each of the values 0..rest in turn as its next part, repeated once per
    composition of what it leaves into the m + 1 parts still to come, the
    ways[m, rest] = C(rest + m, m) of one table whose rows are running sums
    (Pascal's rule).  The C(resolution + d, d) rows are checked against the
    budget first; the table's d (resolution + 1) entries are fewer than theirs.
    """
    d = check_size(d, 1, "dimension")
    resolution = check_size(resolution, 1, "resolution")
    n = simplex_count(d, resolution)
    check_budget(n * (d + 1), f"simplex grid d={d}, resolution={resolution}")
    ks = np.empty((n, d + 1), dtype=np.int64)
    ways = np.ones((d, resolution + 1), dtype=np.int64)
    for m in range(1, d):
        np.cumsum(ways[m - 1], out=ways[m])
    rest = np.array([resolution], dtype=np.int64)
    for i in range(d):
        counts = rest + 1
        part = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rest = np.repeat(rest, counts) - part
        ks[:, i] = np.repeat(part, ways[d - 1 - i, rest])
    ks[:, d] = rest
    return ks


def barycentric_grid(d: int, resolution: int) -> np.ndarray:
    """All rational points (k_0/r, ..., k_d/r) with k summing to r, lex order,
    one row each."""
    return _compositions(d, resolution) / resolution


def gapmap_csv_lines(d: int, resolution: int):
    """CSV text classifying every barycentric grid point of the simplex.

    Yields the header, then each block of up to ROW_BLOCK rows, built from
    the resolution + 1 coordinate strings, as one newline-joined string.
    The points are made, within the budget, before the header is yielded,
    and each block, in this process, when it is asked for.
    """
    ks = _compositions(d, resolution)
    cells = np.array(csv_floats(np.arange(resolution + 1) / resolution), dtype=object)
    yield ",".join([f"x_{i}" for i in range(d + 1)] + ["gapped"])
    for start in range(0, len(ks), ROW_BLOCK):
        yield _gapmap_block(ks, resolution, cells, start)


def _gapmap_block(ks: np.ndarray, resolution: int, cells: np.ndarray, start: int) -> str:
    """CSV text of rows start..start+ROW_BLOCK-1 of the simplex map: the
    coordinate strings cells[k] of each row's parts k, then 1 where the point
    x = k / resolution is gapped, else 0.  A point is gapped when its float
    margin sum(x) - 2 max(x) is negative, the test `gapped_region` makes,
    here, in the calling process, on all rows of the block at once."""
    ks = ks[start : start + ROW_BLOCK]
    x = ks / resolution
    gapped = x.sum(axis=1) - 2.0 * x.max(axis=1) < 0.0
    cols = [cells[k].tolist() for k in ks.T]
    cols.append(np.where(gapped, "1", "0").tolist())
    return _csv_block(cols)


def _csv_block(cols: list[list[str]]) -> str:
    """The rows of the equal-length string columns cols as newline-joined CSV lines:
    cells and separators go into one flat list by slice assignment, then one join."""
    m, n = len(cols), len(cols[0])
    cells = [","] * (2 * m * n)
    for j, col in enumerate(cols):
        cells[2 * j :: 2 * m] = col
    cells[2 * m - 1 :: 2 * m] = ["\n"] * n
    cells.pop()
    return "".join(cells)
