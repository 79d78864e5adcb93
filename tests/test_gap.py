import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kitaev_diamond import gap
from kitaev_diamond.spectrum import f_of_q


def test_has_zero_known_cases():
    assert gap.has_zero([1.0, 1.0, 1.0])
    assert gap.has_zero([1.0, 1.0, 2.0])  # boundary: equality counts as zero
    assert not gap.has_zero([3.0, 1.0, 1.0])
    assert gap.has_zero([1.0, -1.0, 1.0])  # signs are irrelevant
    assert not gap.has_zero([0.0, 0.0, 1.0])
    assert gap.has_zero([0.0, 0.0, 0.0])


def test_gapped_region_complement_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        d = int(rng.integers(1, 6))
        J = rng.uniform(-2, 2, size=d + 1)
        assert gap.gapped_region(J) != gap.has_zero(J)


def test_gapped_region_complement_boundary():
    # exact ties, where a reformulated inequality could disagree by one ulp
    cases = [
        [1.0, 1.0, 2.0],
        [0.5, 0.25, 0.25],
        [1.0, 1.0, 1.0, 3.0],
        [0.1 + 0.2, 0.1, 0.2],  # 0.30000000000000004 vs decimal 0.3
        [1e-300, 1e-300, 2e-300],
    ]
    for J in cases:
        assert gap.gapped_region(J) != gap.has_zero(J)


def test_gapped_region_rejects_all_zero():
    with pytest.raises(ValueError):
        gap.gapped_region([0.0, 0.0, 0.0])


def test_polygon_exists():
    assert gap.polygon_exists([1.0, 1.0, 1.0])
    assert gap.polygon_exists([3.0, 4.0, 5.0])
    assert not gap.polygon_exists([1.0, 1.0, 3.0])
    assert not gap.polygon_exists([1.0, 1.0, 2.0])  # strict: degenerate fails
    with pytest.raises(ValueError):
        gap.polygon_exists([1.0])
    with pytest.raises(ValueError):
        gap.polygon_exists([1.0, 0.0, 0.0])


def test_polygon_angles_equilateral():
    theta = gap.polygon_angles([1.0, 1.0, 1.0])
    z = np.sum(np.exp(1j * theta))
    assert abs(z) < 1e-14
    # directions differ by 120 degrees up to ordering
    diffs = np.sort(np.mod(np.diff(np.sort(theta)), 2 * np.pi))
    assert np.allclose(diffs, 2 * np.pi / 3, atol=1e-12)


def test_polygon_angles_closure_random():
    rng = np.random.default_rng(9)
    done = 0
    while done < 500:
        n = int(rng.integers(3, 10))
        a = rng.uniform(0.05, 5.0, size=n)
        if 2 * a.max() >= a.sum():
            continue
        theta = gap.polygon_angles(a)
        assert theta.shape == (n,)
        assert abs(np.sum(a * np.exp(1j * theta))) < 1e-12 * a.sum()
        done += 1


def test_polygon_angles_closure_stays_at_rounding_as_sides_grow():
    # the closure error must not grow with the number of sides
    rng = np.random.default_rng(9)
    worst = 0.0
    done = 0
    while done < 2000:
        n = int(rng.integers(3, 66))
        a = rng.uniform(0.05, 5.0, size=n)
        if 2 * a.max() >= a.sum():
            continue
        theta = gap.polygon_angles(a)
        worst = max(worst, abs(np.sum(a * np.exp(1j * theta))) / a.sum())
        done += 1
    assert worst < 2e-15


def test_polygon_angles_and_find_zero_at_thousands_of_sides():
    a = np.ones(3000)
    theta = gap.polygon_angles(a)
    assert abs(np.sum(a * np.exp(1j * theta))) < 1e-15 * a.sum()
    J = np.ones(1101)
    phi = gap.find_zero(J)
    assert phi.shape == (1100,)
    assert abs(f_of_q(J, phi)) < 1e-13 * J.sum()


def test_polygon_angles_degenerate_collinear():
    # a flat "polygon": longest side exactly matches the rest
    theta = gap.polygon_angles([1.0, 1.0, 2.0])
    assert abs(np.sum(np.array([1.0, 1.0, 2.0]) * np.exp(1j * theta))) < 1e-12


@pytest.mark.parametrize("a", [
    [1e200] * 3,
    [1e-200] * 3,
    [1.7e308] * 3,
    [3e-320, 4e-320, 5e-320],
])
def test_polygon_angles_close_at_extreme_scales(a):
    theta = gap.polygon_angles(a)
    # scaled by a power of two so the check itself cannot over- or underflow
    a = np.ldexp(a, -int(np.frexp(max(a))[1]))
    assert abs(np.sum(a * np.exp(1j * theta))) < 1e-15 * a.sum()


def test_polygon_exists_when_the_perimeter_overflows():
    a = [1.79e308, 5e307, 5e307]
    assert not gap.polygon_exists(a)
    with pytest.raises(ValueError):
        gap.polygon_angles(a)


def test_polygon_angles_validation():
    with pytest.raises(ValueError):
        gap.polygon_angles([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        gap.polygon_angles([5.0])
    with pytest.raises(ValueError):
        gap.polygon_angles([5.0, 1.0, 1.0])


def test_find_zero_agrees_with_classifier():
    rng = np.random.default_rng(17)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        J = rng.uniform(-2, 2, size=d + 1)
        phi = gap.find_zero(J)
        assert (phi is None) == (not gap.has_zero(J))
        if phi is not None:
            assert phi.shape == (d,)
            assert np.all((0.0 <= phi) & (phi < 2 * np.pi))
            assert abs(f_of_q(J, phi)) < 1e-9 * np.sum(np.abs(J))


def test_find_zero_boundary_and_zero_couplings():
    cases = [
        [1.0, 1.0, 2.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [2.0, -1.0, -1.0],
        [1.5, 1.5, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
    for J in cases:
        phi = gap.find_zero(np.asarray(J, dtype=float))
        assert phi is not None
        scale = max(np.sum(np.abs(J)), 1e-30)
        assert abs(f_of_q(J, phi)) < 1e-9 * scale


SCALE_CASES = [
    [1.0, 1.0, 1.0],
    [1.0, 0.8, -0.6],
    [1.0, 1.0, 2.0],
    [1.5, 0.0, 1.5],
    [0.3, -0.9, 0.5, 0.7],
    [1.0, 1.0, 1.0, 1.0, 1.0],
]


def _relative_residual(J, phi):
    """|f(phi)| / sum |J|, on J scaled exactly to order one so f cannot overflow."""
    J = np.ldexp(J, -np.frexp(np.max(np.abs(J)))[1])
    return abs(f_of_q(J, phi)) / np.sum(np.abs(J))


def test_find_zero_sound_at_extreme_scales():
    for J in SCALE_CASES:
        J = np.asarray(J)
        want = gap.find_zero(J)
        for scale in [*np.logspace(-300, 300, 61), 1e-320]:
            Js = J * scale
            if scale == 1e-320 and np.any(Js / 1e-320 != J):
                continue  # subnormal rounding changed the ratios themselves
            phi = gap.find_zero(Js)
            assert _relative_residual(Js, phi) < 1e-9, (J, scale)
            moved = np.abs(np.exp(1j * phi) - np.exp(1j * want))
            assert np.max(moved) < 1e-9, (J, scale)


def test_find_zero_exact_under_power_of_two_scaling():
    for J in SCALE_CASES:
        J = np.asarray(J)
        want = gap.find_zero(J)
        for k in range(-1000, 1001, 100):
            assert np.array_equal(gap.find_zero(np.ldexp(J, k)), want), (J, k)


def test_classifiers_complementary_up_to_overflow():
    # near 1e308 the sum and twice the largest magnitude overflow; the
    # margin must keep its sign there instead of turning into NaN
    cases = [np.asarray(J) / np.max(np.abs(J)) for J in SCALE_CASES]
    cases += [np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, -0.2, 0.1])]
    for J in cases:
        want = gap.has_zero(J)
        for scale in [*np.logspace(-300, 308, 62), 1.7e308]:
            Js = J * scale
            assert gap.has_zero(Js) == want, (J, scale)
            assert gap.gapped_region(Js) != gap.has_zero(Js), (J, scale)
            assert (gap.find_zero(Js) is None) == (not gap.has_zero(Js)), (J, scale)
    J = [1e308, 1e308, 1e308]
    assert gap.has_zero(J) and not gap.gapped_region(J)
    assert gap.find_zero(J) is not None
    assert gap.gap_report(J, grid_n=8).margin == 1e308


def test_find_zero_none_when_gapped():
    assert gap.find_zero([5.0, 1.0, 1.0]) is None


def test_min_gap_gapped_value():
    # gapped couplings: the true minimum is exactly 2|margin|
    for J in ([3.0, 1.0, 1.0], [0.5, 0.1, 0.2], [4.0, 1.0, 1.0, 1.0]):
        J = np.asarray(J)
        margin = np.sum(np.abs(J)) - 2 * np.max(np.abs(J))
        got = gap.min_gap_numeric(J, grid_n=24)
        assert got >= 2 * abs(margin) * (1 - 1e-12)
        assert got < 2 * abs(margin) * (1 + 1e-6)


def test_min_gap_finds_zeros():
    rng = np.random.default_rng(23)
    done = 0
    while done < 40:
        d = int(rng.integers(2, 5))
        J = rng.uniform(-2, 2, size=d + 1)
        if not gap.has_zero(J):
            continue
        assert gap.min_gap_numeric(J, grid_n=24) < 1e-6 * np.sum(np.abs(J))
        done += 1


ORACLE_CASES = ([1.0, 0.7, 0.6], [3.0, 1.0, 1.0])


def test_min_gap_at_extreme_scales():
    for J in ORACLE_CASES:
        J = np.asarray(J)
        want = gap.min_gap_numeric(J, grid_n=24)
        for k in range(-996, 997, 12):
            Js = np.ldexp(J, k)
            got = gap.min_gap_numeric(Js, grid_n=24)
            total = np.sum(np.abs(Js))
            margin = total - 2.0 * np.max(np.abs(Js))
            if margin < 0.0:
                assert 2 * abs(margin) * (1 - 1e-12) <= got, (J, k)
                assert got <= 2 * abs(margin) * (1 + 1e-6), (J, k)
            else:
                assert got < 1e-6 * total, (J, k)
            assert got == np.ldexp(want, k), (J, k)


def _counted(monkeypatch, name):
    """The length of the last argument of every call of gap.<name>, in order:
    the rows of `_amplitude` and `_newton_polish`, the couplings of
    `_abs_sum_and_margin`.  Each call still runs."""
    calls, f = [], getattr(gap, name)

    def counted(*args):
        calls.append(len(args[-1]))
        return f(*args)

    monkeypatch.setattr(gap, name, counted)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_min_gap_polishes_all_zero_couplings(monkeypatch, d):
    """All-zero couplings, signed zeros among them, take the scan and the
    polish like every other vector: one polish, which stops at once on its
    floor of 0, and a result of +0.0 evaluated at a phase vector."""
    calls = _counted(monkeypatch, "_newton_polish")
    for J in (np.zeros(d + 1), np.full(d + 1, -0.0), np.where(np.arange(d + 1) % 2, -0.0, 0.0)):
        calls.clear()
        got = gap.min_gap_numeric(J)
        assert got == 0.0 and not np.signbit(got), J
        assert len(calls) == 1, J


# gapless, with a zero last coupling: the scan ends on the all-{0, pi} saddle
# at |s| = 0.008, and the polish from every restart converges onto it
SADDLE_J = [1.2314509084370528, -1.774818000842365, 1.1481882164747095,
            1.6835382088114335, 0.0]


def test_min_gap_escapes_the_saddle_every_restart_ends_on(monkeypatch):
    """With the last coupling 0, below rounding or well above it, the oracle
    steps off the saddle and ends within rounding of 0; without the escape
    it stops at 2.7e-3 sum|J|."""
    eps = np.finfo(float).eps
    total = np.abs(SADDLE_J).sum()
    for last in (0.0, -0.0, 5e-324, 1e-300, 1e-18 * total, -1e-18 * total, 1e-12, 1e-5):
        J = np.array(SADDLE_J[:4] + [last])
        assert gap.has_zero(J) and gap.gap_report(J).margin > 2.28
        assert gap.min_gap_numeric(J) <= 32 * eps * total, last
    monkeypatch.setattr(gap, "_ESCAPE_ROUNDS", 0)
    for last in (0.0, 1e-300, 1e-5):
        stuck = gap.min_gap_numeric(np.array(SADDLE_J[:4] + [last]))
        assert 2.7e-3 * total < stuck < 2.8e-3 * total, last
    for short in ([2.0, 0.0, 0.0], [-0.5, 0.0]):
        assert gap.min_gap_numeric(short) == 2 * abs(short[0])


def test_escape_returns_a_best_row_on_a_convex_hessian(monkeypatch):
    """With no descent step, the best start of these gapped couplings lies
    above the escape's slack on a convex Hessian: the polish evaluates that
    Hessian once and returns the row as it is, above the closed form 2.5."""
    monkeypatch.setattr(gap, "_NEWTON_MAX_ITER", 0)
    J = np.array([3.0, 1.0, 0.5, 0.25])
    calls = _counted(monkeypatch, "_amplitude")
    got = gap.min_gap_numeric(J, grid_n=7)
    assert got == 2.730271998791606 and got > 2 * (2 * 3.0 - 4.75)
    # one evaluation at the starts, one at the best row's Hessian
    assert calls == [6, 1]
    monkeypatch.setattr(gap, "_ESCAPE_ROUNDS", 0)
    assert np.float64(gap.min_gap_numeric(J, grid_n=7)).tobytes() == np.float64(got).tobytes()


def test_escape_keeps_the_rows_when_the_kick_ends_no_lower(monkeypatch):
    """With a kick of zero, the two kicked rows restart on the saddle and
    end no lower, so one round ends the escape and the stuck value stays."""
    monkeypatch.setattr(gap, "_ESCAPE_KICK", 0.0)
    J = np.array(SADDLE_J)
    calls = _counted(monkeypatch, "_amplitude")
    got = gap.min_gap_numeric(J)
    assert got == 0.01603420013717649
    # one Hessian evaluation, then the descent of the two kicked rows
    assert calls.count(1) == 1 and calls[calls.index(1) + 1:].count(2) > 0
    monkeypatch.setattr(gap, "_ESCAPE_ROUNDS", 0)
    assert np.float64(gap.min_gap_numeric(J)).tobytes() == np.float64(got).tobytes()


def test_polish_reads_the_reverse_triangle_bound_once(monkeypatch):
    """One `_abs_sum_and_margin` call per oracle call, escape included."""
    calls = _counted(monkeypatch, "_abs_sum_and_margin")
    for J in (SADDLE_J, SADDLE_J[:4] + [1e-5], [3.0, 1.0, 0.5, 0.25], [0.0] * 5):
        calls.clear()
        gap.min_gap_numeric(np.array(J))
        assert calls == [len(J)], J


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_min_gap_finds_the_zero_of_gapless_couplings_with_trailing_zeros(d):
    """Gapless couplings of k + 1 <= d entries padded to d + 1 with zeros or
    with couplings below one ulp of the sum: has_zero holds and the oracle's
    minimum is within rounding of 0."""
    rng = np.random.default_rng(4200 + d)
    eps = np.finfo(float).eps
    for k in range(1, d):
        for tiny in (0.0, 1e-300, 1e-18):
            for _ in range(12):
                if k == 1:
                    a = rng.uniform(0.1, 2.0)
                    head = np.array([a, a * rng.choice([-1.0, 1.0])])
                else:
                    head = _oracle_draw(rng, k, "gapless")
                J = np.concatenate([head, tiny * rng.choice([-1.0, 1.0], size=d - k)])
                assert gap.has_zero(J), J
                assert gap.min_gap_numeric(J) <= 32 * eps * np.abs(J).sum(), J


def _oracle_draw(rng, d, kind):
    """Couplings of one class: gapless, gapped, some zeroed, or exact boundary."""
    while True:
        J = rng.uniform(-2.0, 2.0, size=d + 1)
        if kind == "zeroed":
            J[rng.random(d + 1) < 0.4] = 0.0
            return J
        if kind == "boundary":
            k = int(rng.integers(0, d + 1))
            J[k] = np.sign(J[k]) * np.delete(np.abs(J), k).sum()
            return J
        if gap.has_zero(J) == (kind == "gapless"):
            return J


def test_min_gap_sound_and_deterministic():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 5):
        for kind in ("gapless", "gapped", "zeroed", "boundary"):
            for _ in range(12):
                J = _oracle_draw(rng, d, kind)
                total = np.sum(np.abs(J))
                margin = total - 2.0 * np.max(np.abs(J))
                got = gap.min_gap_numeric(J, grid_n=24)
                assert got >= 2 * max(0.0, -margin) - 1e-12 * total, (kind, J)
                again = gap.min_gap_numeric(J, grid_n=24)
                assert np.float64(got).tobytes() == np.float64(again).tobytes()


def test_min_gap_refuses_oversized_scan(monkeypatch):
    # the cap bounds the scan slice, grid_n^(d-2) points but at least grid_n
    monkeypatch.setattr(gap, "_SCAN_CAP", 1000)
    assert gap.min_gap_numeric(np.ones(5), grid_n=31) < 1e-12
    with pytest.raises(ValueError, match="too large"):
        gap.min_gap_numeric(np.ones(5), grid_n=32)
    assert gap.min_gap_numeric(np.ones(3), grid_n=1000) < 1e-12
    with pytest.raises(ValueError, match="too large"):
        gap.min_gap_numeric(np.ones(3), grid_n=1001)
    # _SCAN_WORK bounds the points the scan visits, grid_n^(d-1), and is
    # checked before the scan starts
    monkeypatch.setattr(gap, "_SCAN_WORK", 31**2)
    assert gap.min_gap_numeric(np.ones(4), grid_n=31) < 1e-12
    monkeypatch.setattr(gap, "_grid_start", lambda *args: pytest.fail("the scan started"))
    with pytest.raises(ValueError, match="too large"):
        gap.min_gap_numeric(np.ones(4), grid_n=32)

    # at its own value, 2^31 = 2,147,483,648: at d = 4, 1290^3 = 2,146,689,000
    # points reach the scan, stood in for by one that records its start, and
    # 1291^3 = 2,151,685,171 are refused before it
    monkeypatch.undo()
    started = []
    monkeypatch.setattr(gap, "_grid_start",
                        lambda J, grid_n: started.append(grid_n) or np.zeros(J.size - 1))
    gap.min_gap_numeric(np.ones(5), grid_n=1290)
    with pytest.raises(ValueError, match="too large"):
        gap.min_gap_numeric(np.ones(5), grid_n=1291)
    assert started == [1290]


def _grid_start_per_slice(J, grid_n):
    """The scan as first written, a fresh slice and temporaries per step: the
    reference the buffered `gap._grid_start` must match bit for bit."""
    d = J.size - 1
    w = np.exp(1j * (gap.TWO_PI / grid_n) * np.arange(grid_n))
    tail = np.full((grid_n,) * max(d - 2, 0), complex(J[0]))
    for i in range(2, d):
        shape = [1] * (d - 2)
        shape[i - 2] = grid_n
        tail = tail + J[i] * w.reshape(shape)
    tail = tail.ravel()
    idx = []
    z = tail[0]
    if d > 1:
        lead = J[1] * w
        rows = max(1, gap._SCAN_CHUNK // tail.size)
        best = np.inf
        for m in range(0, grid_n, rows):
            zs = lead[m : m + rows, None] + tail
            dev = np.abs(np.abs(zs) - abs(J[d]))
            k = int(np.argmin(dev))
            if dev.flat[k] < best:
                best = dev.flat[k]
                z = zs.flat[k]
                idx = np.unravel_index(m * tail.size + k, (grid_n,) * (d - 1))
    phi = np.empty(d)
    phi[:-1] = (gap.TWO_PI / grid_n) * np.asarray(idx, dtype=float)
    phi[-1] = np.angle(-J[d] * z)
    return phi


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_grid_start_matches_the_per_slice_scan(d):
    # d = 4 at grid 48 scans slices of 14 rows and a last one of 6
    assert (gap._SCAN_CHUNK // 48**2, 48 % 14) == (14, 6)
    rng = np.random.default_rng(70 + d)
    kinds = ("gapped", "zeroed", "boundary") + (("gapless",) if d > 1 else ())
    for grid_n in (5, 48):
        for kind in kinds:
            for _ in range(2 if d == 5 and grid_n == 48 else 4):
                J = _oracle_draw(rng, d, kind)
                if not J.any():
                    continue
                J = np.ldexp(J, 1 - np.frexp(np.abs(J).max())[1])
                want = _grid_start_per_slice(J, grid_n)
                assert gap._grid_start(J, grid_n).tobytes() == want.tobytes(), (grid_n, J)


# the same examples on every run, however slow the machine
fixed = settings(derandomize=True, deadline=None, database=None)


@st.composite
def _scan_cases(draw):
    """A grid size and couplings whose magnitudes come from a pool of at most
    two values and zero, so zeros and repeated magnitudes are common."""
    d = draw(st.integers(2, 4))
    grid_n = draw(st.integers(2, 64))
    pool = draw(st.lists(st.floats(2.0**-20, 2.0), min_size=1, max_size=2))
    mags = draw(st.lists(st.sampled_from([0.0, *pool]), min_size=d + 1, max_size=d + 1))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d + 1, max_size=d + 1))
    return grid_n, np.multiply(mags, signs)


@fixed
@given(_scan_cases())
# d = 4: rows of 48^2 points are filled one by one, in 3 slices of 14 rows
# and a last one of 6; rows of 64^2 points keep the broadcast
@example((48, np.array([1.0, 0.0, -1.0, 1.0, 1.0])))
@example((64, np.array([0.5, 0.5, 0.0, -0.5, 1.0])))
def test_grid_start_matches_the_per_slice_scan_on_zeros_and_repeats(case):
    grid_n, J = case
    assume(J.any())
    J = np.ldexp(J, 1 - np.frexp(np.abs(J).max())[1])
    want = _grid_start_per_slice(J, grid_n)
    assert gap._grid_start(J, grid_n).tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [5, 7])
def test_grid_start_scans_long_rows_in_pieces(monkeypatch, chunk):
    """Rows longer than _SCAN_CHUNK are scanned in pieces, the last one
    shorter, and keep every bit of the whole-row scan, ties included."""
    monkeypatch.setattr(gap, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(90 + chunk)
    for d in (2, 3, 4, 5):
        # repeated magnitudes and a zero give exact ties across pieces
        tied = np.resize([1.0, 0.0, -1.0], d + 1)
        for grid_n in (3, 7, 12):
            draws = [_oracle_draw(rng, d, kind)
                     for kind in ("gapless", "gapped", "zeroed", "zeroed", "boundary")]
            for J in (tied, *draws):
                want = _grid_start_per_slice(J, grid_n)
                assert gap._grid_start(J, grid_n).tobytes() == want.tobytes(), (grid_n, J)


def test_abs_of_a_complex_array_gives_each_element_the_same_bits_anywhere():
    """The pruned scan's bit identity rests on np.abs giving an element the
    same bits in an array of any length, at any offset or stride, and in a
    gathered copy: the scan takes it in slices and gathered columns of
    every size, and `_column_limit` in single columns."""
    rng = np.random.default_rng(34)
    n = 3 * 2304 + 64
    z = rng.uniform(-2.0, 2.0, n) * 2.0 ** rng.integers(-20, 2, n) + 1j * rng.uniform(-2.0, 2.0, n)
    z[::7] = z[::7].real
    z[::11] = 1j * z[::11].imag
    want = np.abs(z)
    for size in (*range(1, 34), 2304):
        for offset in range(4):
            for stride in (1, 2, 3):
                at = slice(offset, offset + size * stride, stride)
                assert np.abs(z[at]).tobytes() == want[at].tobytes(), (size, offset, stride)
        gather = rng.choice(n, size, replace=False)
        assert np.abs(z[gather]).tobytes() == want[gather].tobytes(), size
    # a 2-d view of a wider buffer, as the scan's slices are
    grid = z[: 14 * 300].reshape(14, 300)[:5, 3:290]
    assert np.abs(grid).tobytes() == np.abs(grid.copy()).tobytes()
    assert np.abs(grid).ravel().tobytes() == want[: 14 * 300].reshape(14, 300)[:5, 3:290].tobytes()


def _lead_and_tail(J, grid_n):
    """The scan's rows lead = J_1 w and its tail, as `gap._grid_start` makes them."""
    d = J.size - 1
    w = np.exp(1j * (gap.TWO_PI / grid_n) * np.arange(grid_n))
    tail = np.full((grid_n,) * (d - 2), complex(J[0]))
    for i in range(2, d):
        shape = [1] * (d - 2)
        shape[i - 2] = grid_n
        tail += J[i] * w.reshape(shape)
    return J[1] * w, tail.ravel()


def _scaled(J):
    return np.ldexp(J, 1 - np.frexp(np.abs(J).max())[1])


def _keys(J, tail):
    """The scan's column keys ||t_p| - max(|J_1|, |J_d|)|, as `gap._scan`
    computes them."""
    return np.abs(np.abs(tail) - max(abs(J[1]), abs(J[-1])))


@pytest.mark.parametrize("grid_n", [12, 48])
@pytest.mark.parametrize("d", [3, 4])
def test_column_limit_keeps_every_column_that_can_hold_the_first_minimum(d, grid_n):
    """On the full deviation matrix, the first minimum's column has a key
    within the limit, and every column beyond it has its least deviation
    strictly above the minimum, so no tie of it is dropped either."""
    rng = np.random.default_rng(340 + 10 * d + grid_n)
    dropped = 0
    for kind in ("gapless", "gapped", "zeroed", "boundary"):
        for _ in range(6):
            J = _oracle_draw(rng, d, kind)
            if not J.any():
                continue
            J = _scaled(J)
            lead, tail = _lead_and_tail(J, grid_n)
            dev = np.abs(np.abs(lead[:, None] + tail) - abs(J[d]))
            limit = gap._column_limit(J, lead, tail)
            if limit == np.inf:
                continue
            kept = _keys(J, tail) <= limit
            least = dev.min(axis=0)
            assert kept[np.argmin(dev) % tail.size], (kind, J)
            assert np.all(least[~kept] > dev.min()), (kind, J)
            dropped += np.count_nonzero(~kept)
    assert dropped > 0


def test_column_limit_on_a_wide_gap_keeps_almost_nothing():
    J = np.array([4.0, 0.5, 0.5, 0.5, 0.5])
    lead, tail = _lead_and_tail(J, 48)
    kept = _keys(J, tail) <= gap._column_limit(J, lead, tail)
    assert kept.size == 48**2 and 1 <= np.count_nonzero(kept) <= 2


@pytest.mark.parametrize("J,grid_n", [
    # the tail's terms confine every |t_p| to [||J_1| - |J_d||, |J_1| + |J_d|]
    (np.array([0.5, 1.0, 0.5, 0.5, 1.0]), 48),
    # they do not, but on an odd grid every column's |t_p| lies there
    (np.array([1.0, 1.0, -0.5, 0.5 + 2.0**-20, 1.0]), 47),
    # one term: every |t_p| is the same
    (np.array([1.5, 1.0, 0.0, 0.0, 0.25]), 48),
])
def test_grid_start_where_every_column_is_kept(J, grid_n):
    lead, tail = _lead_and_tail(J, grid_n)
    assert grid_n * tail.size > gap._SCAN_CHUNK
    assert gap._column_limit(J, lead, tail) == np.inf
    want = _grid_start_per_slice(J, grid_n)
    assert gap._grid_start(J, grid_n).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [4, 5])
def test_pruned_scan_matches_the_per_slice_scan_at_grid_48(d):
    """Gapped and boundary draws drop all but a few columns, gapless ones
    some; magnitudes spread down to 2^-20 of the largest."""
    rng = np.random.default_rng(3400 + d)
    draws = [_oracle_draw(rng, d, kind) for kind in ("gapped", "boundary", "gapless")]
    spread = rng.uniform(-2.0, 2.0, d + 1) * 2.0 ** -rng.integers(0, 21, d + 1)
    for J in (*draws, spread, spread * 2.0**-20):
        Js = _scaled(J)
        lead, tail = _lead_and_tail(Js, 48)
        limit = gap._column_limit(Js, lead, tail)
        assert limit < np.inf and np.any(_keys(Js, tail) > limit), J
        want = _grid_start_per_slice(Js, 48)
        assert gap._grid_start(Js, 48).tobytes() == want.tobytes(), J
        # and unscaled, as the tests above call the scan too
        assert gap._grid_start(J, 48).tobytes() == _grid_start_per_slice(J, 48).tobytes(), J


@pytest.mark.parametrize("chunk", [64, 1000])
def test_pruned_scan_moves_kept_columns_across_pieces(monkeypatch, chunk):
    """Tails longer than _SCAN_CHUNK are pruned and gathered in pieces, and
    the kept columns of a piece scanned in slices of whole rows."""
    monkeypatch.setattr(gap, "_SCAN_CHUNK", chunk)
    rng = np.random.default_rng(3410 + chunk)
    for d in (4, 5):
        for grid_n in (9, 16):
            for kind in ("gapless", "gapped", "zeroed", "boundary"):
                J = _oracle_draw(rng, d, kind)
                want = _grid_start_per_slice(J, grid_n)
                assert gap._grid_start(J, grid_n).tobytes() == want.tobytes(), (grid_n, J)


@pytest.mark.parametrize("chunk", [2, 3])
def test_pruned_scan_breaks_a_tie_across_pieces_by_the_flat_index(monkeypatch, chunk):
    """The scan visits the tail's pieces before their rows, so it meets this
    minimum first in a later row of an earlier piece; the same deviation in
    an earlier row of a later piece has the smaller flat index and wins."""
    monkeypatch.setattr(gap, "_SCAN_CHUNK", chunk)
    J, grid_n = np.array([1.0, -1.0, -1.0, 0.5]), 5
    lead, tail = _lead_and_tail(J, grid_n)
    dev = np.abs(np.abs(lead[:, None] + tail) - abs(J[3]))
    rows, cols = np.nonzero(dev == dev.min())
    assert (rows.tolist(), cols.tolist()) == ([1, 4], [4, 1])
    assert cols[1] // chunk < cols[0] // chunk
    want = _grid_start_per_slice(J, grid_n)
    assert gap._grid_start(J, grid_n).tobytes() == want.tobytes()


@pytest.mark.parametrize("d,grid_n", [(5, 48), (6, 24), (6, 40)])
def test_grid_start_holds_nothing_per_tail_point_beyond_its_tail(d, grid_n):
    """The scan's traced peak is at most its tail of grid_n^(d-2) complex
    points, 48 bytes per _SCAN_CHUNK points (the complex and the float
    slice buffer, and one piece's column indices and gathered points), the
    buffers numpy may fill for an add (np.getbufsize() complex values for
    each of up to three operands), and 16 KiB for the arrays of grid_n
    points and Python's own objects: nothing but the tail grows with it.
    At d = 6, a float per tail point would exceed it at grid 24, and a
    one-byte column mask at grid 40."""
    rng = np.random.default_rng(3420 + d)
    size = grid_n ** (d - 2)
    ufunc = 3 * 16 * np.getbufsize()
    bound = 16 * size + 48 * gap._SCAN_CHUNK + ufunc + (16 << 10)
    beyond = {(6, 24): 8, (6, 40): 1}.get((d, grid_n))
    if beyond:
        assert (16 + beyond) * size > bound
    for kind in ("gapless", "gapless", "zeroed", "gapped"):
        J = _scaled(_oracle_draw(rng, d, kind))
        tracemalloc.start()
        try:
            gap._grid_start(J, grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (kind, peak - bound)


def _min_gap_numeric_fresh_rng(J, grid_n):
    """The oracle with a fresh generator for the restart offsets per call
    and the per-slice scan: the reference the memoised
    `gap.min_gap_numeric` must match bit for bit."""
    J = np.asarray(J, dtype=float)
    d = J.size - 1
    top = float(np.abs(J).max())
    if top == 0.0:
        return 0.0
    e = 1 - np.frexp(top)[1]
    J = np.ldexp(J, e)
    phi0 = _grid_start_per_slice(J, grid_n)
    rng = np.random.default_rng(12345)
    half_cell = np.pi / grid_n
    starts = np.concatenate([
        phi0[None, :],
        phi0 + rng.uniform(-half_cell, half_cell, size=(3, d)),
        rng.uniform(0.0, gap.TWO_PI, size=(2, d)),
    ])
    with np.errstate(over="ignore"):
        return float(np.ldexp(2.0 * gap._newton_polish(J, starts).min(), -e))


def test_restart_offsets_are_the_seeded_draws():
    for d in range(1, 7):
        for grid_n in (2, 5, 7, 48, 64, 1000):
            jitter, spread = gap._restart_offsets(d, grid_n)
            rng = np.random.default_rng(12345)
            half_cell = np.pi / grid_n
            want = rng.uniform(-half_cell, half_cell, size=(3, d))
            assert jitter.tobytes() == want.tobytes(), (d, grid_n)
            assert spread.tobytes() == rng.uniform(0.0, gap.TWO_PI, size=(2, d)).tobytes()


def test_restart_offsets_are_read_only_and_the_memo_is_bounded():
    jitter, spread = gap._restart_offsets(3, 48)
    for a in (jitter, spread):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    size = gap._restart_offsets.cache_info().maxsize
    assert size == 16
    for grid_n in range(2, 2 + 3 * size):
        gap._restart_offsets(2, grid_n)
    assert gap._restart_offsets.cache_info().currsize == size
    # an evicted pair is drawn again with the same bits
    again, _ = gap._restart_offsets(3, 48)
    assert again is not jitter and again.tobytes() == jitter.tobytes()


def _oracle_classes(rng, d):
    """One draw of each oracle class; at d = 1 gapless needs |J_0| = |J_1|."""
    kinds = ("gapped", "zeroed", "boundary") + (("gapless",) if d > 1 else ())
    yield from (_oracle_draw(rng, d, kind) for kind in kinds)
    if d == 1:
        a = rng.uniform(0.1, 2.0)
        yield from (np.array([a, a]), np.array([-a, a]), np.array([a, -a]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_min_gap_matches_the_fresh_generator_oracle(d):
    rng = np.random.default_rng(90 + d)
    for grid_n in (5, 7, 48, 64):
        for _ in range(1 if d == 5 and grid_n > 7 else 3):
            for J in _oracle_classes(rng, d):
                got = np.float64(gap.min_gap_numeric(J, grid_n=grid_n))
                want = np.float64(_min_gap_numeric_fresh_rng(J, grid_n))
                assert got.tobytes() == want.tobytes(), (grid_n, J)


def _gapped_cases():
    rng = np.random.default_rng(61)
    yield np.array([3.0, 1.0, 1.0])
    for d in (2, 3, 4):
        for _ in range(20):
            yield _oracle_draw(rng, d, "gapped")


def test_polish_stops_at_the_reverse_triangle_bound(monkeypatch):
    # gapped couplings: the scan lands on the minimum 2 max|J| - sum|J|,
    # where the polish stops instead of running up to its iteration cap
    calls = _counted(monkeypatch, "_amplitude")
    eps = np.finfo(float).eps
    for J in _gapped_cases():
        calls.clear()
        got = gap.min_gap_numeric(J)
        total = np.abs(J).sum()
        assert abs(got - 2 * (2 * np.abs(J).max() - total)) <= 16 * eps * total, J
        assert len(calls) <= 3, (J, len(calls))


def test_polish_stops_once_every_step_is_below_its_tolerance(monkeypatch):
    calls = _counted(monkeypatch, "_amplitude")
    # on a critical point (phases in {0, pi}) the step is exactly zero: one
    # evaluation, where the damping alone would run up to the iteration cap.
    # The descent is called alone: the polish would kick off this maximum.
    assert gap._descend(np.ones(3), np.zeros((1, 2)), 0.0)[0].tolist() == [3.0]
    assert len(calls) == 1
    # a gapped d = 5 draw: the step test ends the polish at the closed form,
    # and without it the polish runs on to its iteration cap
    J = np.array([6.8944587503759855, 1.3684459281569263, 1.8100072647617997,
                  -0.7897724715878665, -1.1885059238944704, -1.7377269224820955])
    total = np.abs(J).sum()
    closed = 2 * (2 * np.abs(J).max() - total)
    calls.clear()
    assert abs(gap.min_gap_numeric(J) - closed) <= 16 * np.finfo(float).eps * total
    stopped = len(calls)
    monkeypatch.setattr(gap, "_NEWTON_XTOL", 0.0)
    calls.clear()
    assert abs(gap.min_gap_numeric(J) - closed) <= 16 * np.finfo(float).eps * total
    assert len(calls) > stopped


def test_polish_does_not_stop_one_step_short_of_the_rounding_floor():
    # a gapless d = 3 draw whose polish converges quadratically: a step-size
    # stop at 1e-9 ended it one step early, at 2,443 eps * sum|J|
    J = np.array([1.3340353882004383, -0.8110449730097783, 3.39632871353675,
                  1.252287748741895])
    assert gap.min_gap_numeric(J) <= 4 * np.finfo(float).eps * np.abs(J).sum()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_polish_converges_just_inside_the_gap_boundary(monkeypatch, d):
    # gapless couplings whose longest side is (1 - delta) times the sum of
    # the others, delta = 1e-12..1e-3: a thin polygon, on which a damping
    # floor that swamps the Jacobian's small singular value ran the polish
    # up to its iteration cap
    calls = _counted(monkeypatch, "_amplitude")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1100 + d)
    for _ in range(25):
        others = rng.uniform(0.5, 1.5, size=d)
        delta = 10.0 ** rng.uniform(-12, -3)
        J = np.concatenate([[(1 - delta) * others.sum()], others])
        J = rng.permutation(J * rng.choice([-1.0, 1.0], size=d + 1))
        calls.clear()
        got = gap.min_gap_numeric(J)
        # one evaluation at the starts, then one per iteration
        assert len(calls) <= gap._NEWTON_MAX_ITER, (J, len(calls))
        assert got <= 32 * eps * np.abs(J).sum(), J


def test_min_gap_validation():
    with pytest.raises(ValueError):
        gap.min_gap_numeric([1.0, 1.0, 1.0], grid_n=1)


def test_gap_report_fields():
    rep = gap.gap_report([1.0, 1.0, 1.0], grid_n=16)
    assert rep.has_zero
    assert rep.margin == 1.0
    assert rep.zero_phi is not None
    assert rep.min_numeric < 1e-9

    rep = gap.gap_report([3.0, 1.0, 1.0], grid_n=16)
    assert not rep.has_zero
    assert rep.margin == -1.0
    assert rep.zero_phi is None
    assert abs(rep.min_numeric - 2.0) < 1e-9

    # margin exactly 0: on the boundary the bands touch zero, as has_zero says
    rep = gap.gap_report([1.0, 0.5, 0.5])
    assert rep.margin == 0.0
    assert rep.has_zero is True
    assert rep.zero_phi is not None


def test_barycentric_grid_counts():
    pts = list(gap.barycentric_grid(2, 4))
    # C(4+2, 2) compositions of 4 into 3 parts
    assert len(pts) == 15
    for x in pts:
        assert x.shape == (3,)
        assert abs(x.sum() - 1.0) < 1e-15
        assert np.all(x >= 0)
    # lexicographic order, first and last
    assert np.array_equal(pts[0], [0.0, 0.0, 1.0])
    assert np.array_equal(pts[-1], [1.0, 0.0, 0.0])


def test_gapmap_csv_lines():
    lines = "\n".join(gap.gapmap_csv_lines(2, 4)).split("\n")
    assert lines[0] == "x_0,x_1,x_2,gapped"
    assert len(lines) == 16
    for row in lines[1:]:
        cols = row.split(",")
        x = [float(c) for c in cols[:3]]
        flag = int(cols[3])
        assert flag == int(gap.gapped_region(x))
