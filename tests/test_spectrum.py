import dataclasses
from decimal import Decimal

import numpy as np
import pytest

from kitaev_diamond import lattice, spectrum
from kitaev_diamond.lattice import build_torus
from kitaev_diamond.tightbinding import as_hoppings

EQUAL_J2 = np.array([1.0, 1.0, 1.0])


def test_f_at_origin():
    f = spectrum.f_of_q(EQUAL_J2, np.zeros(2))
    assert f == 6.0 + 0.0j


def test_f_broadcasts():
    phis = np.stack([np.zeros(2), np.array([np.pi, 0.0]), np.array([0.0, np.pi])])
    f = spectrum.f_of_q(EQUAL_J2, phis)
    assert f.shape == (3,)
    assert np.allclose(f, [6.0, 2.0, 2.0], atol=3e-15)


def test_dispersion_symmetric_pair():
    phi = np.array([0.3, 1.1])
    res = spectrum.dispersion(EQUAL_J2, phi)
    assert res.xi_plus >= 0.0
    assert res.xi_minus == -res.xi_plus
    assert np.isclose(res.xi_plus, abs(spectrum.f_of_q(EQUAL_J2, phi)))


def test_dispersion_periodicity():
    rng = np.random.default_rng(0)
    J = rng.uniform(-2, 2, size=4)
    phi = rng.uniform(0, 2 * np.pi, size=3)
    a = spectrum.f_of_q(J, phi)
    b = spectrum.f_of_q(J, phi + 2 * np.pi * np.array([1.0, -2.0, 3.0]))
    assert abs(a - b) < 1e-12


def test_bloch_hamiltonian_eigenvalues():
    phi = np.array([0.7, 2.1])
    h = spectrum.bloch_hamiltonian(EQUAL_J2, phi)
    assert h.shape == (2, 2)
    assert np.allclose(h, h.conj().T)
    evals = np.linalg.eigvalsh(h)
    f = abs(spectrum.f_of_q(EQUAL_J2, phi))
    assert np.allclose(evals, [-f, f])


def test_bz_grid_layout():
    g = spectrum.bz_grid(2, 3)
    assert g.shape == (9, 2)
    assert np.array_equal(g[0], [0.0, 0.0])
    # row-major: second component varies fastest
    assert np.allclose(g[1], [0.0, 2 * np.pi / 3])
    assert np.allclose(g[3], [2 * np.pi / 3, 0.0])
    # the np.indices layout, bit for bit and stride for stride: the Bloch
    # sum exp(1j*phi) @ c rounds differently on a C-ordered copy
    for d, N in ((1, 7), (2, 5), (3, 4), (4, 3), (5, 2), (6, 3)):
        ref = 2 * np.pi * np.indices((N,) * d).reshape(d, -1).T / N
        g = spectrum.bz_grid(d, N)
        assert g.strides == ref.strides
        assert np.array_equal(g.view(np.uint64), ref.view(np.uint64))
    # more axes than one numpy array may have
    g = spectrum.bz_grid(70, 1)
    assert g.shape == (1, 70) and not g.any()


def test_quadratic_form_antisymmetric():
    t = build_torus(2, 2)
    A = spectrum.quadratic_form(t, [1.0, 0.5, -0.25])
    assert np.array_equal(A, -A.T)
    assert A.shape == (8, 8)
    assert np.count_nonzero(A) == 24


def loop_quadratic_form(torus, J):
    """The hopping form built edge by edge: +w at (frm, to), then -w at (to, frm)."""
    n = 2 * torus.n_cells
    A = np.zeros((n, n))
    for frm, to, label in zip(torus.frm.tolist(), torus.to.tolist(), torus.label.tolist()):
        w = 2.0 * J[label - 1]
        A[frm, to] += w
        A[to, frm] -= w
    return A


def reversed_edge_0(torus):
    """torus with edge 0 reversed, as `verify --corrupt-sign` sweeps it."""
    frm, to = torus.frm.copy(), torus.to.copy()
    frm[0], to[0] = to[0], frm[0]
    return dataclasses.replace(torus, frm=frm, to=to)


@pytest.mark.parametrize("torus", [
    *(build_torus(d, N) for d, N in ((2, 12), (3, 6), (1, 1024))),
    # parallel edges share their entries, and the reversed one sums into them
    *(reversed_edge_0(build_torus(d, N)) for d, N in ((1, 1), (2, 1), (3, 1), (5, 1), (8, 1),
                                                      (2, 12))),
], ids=lambda t: f"d{t.d}-N{t.N}-{'reversed' if t.frm[0] < t.to[0] else 'built'}")
def test_quadratic_form_sums_in_edge_order(torus):
    """The array form equals the edge loop bit for bit, signed zeros included."""
    rng = np.random.default_rng(torus.d * 1000 + torus.N)
    # the reversed edge carries J_1 and comes first: each small term, under
    # half an ulp of 2 J_1, rounds away against it, but not summed before it
    lopsided = np.full(torus.d + 1, 4e-17)
    lopsided[0] = 1.0
    for J in (*rng.uniform(-2.0, 2.0, size=(5, torus.d + 1)), lopsided):
        got = spectrum.quadratic_form(torus, J)
        assert np.array_equal(got.view(np.uint64), loop_quadratic_form(torus, J).view(np.uint64))


def test_single_cell_spectrum_exact():
    # one-cell torus in two dimensions: every edge is parallel, the quadratic
    # form collapses to a 2x2 block and the two levels are +-2|J_1+J_2+J_3|
    t = build_torus(2, 1)
    A = spectrum.quadratic_form(t, EQUAL_J2)
    assert np.array_equal(A, np.array([[0.0, -6.0], [6.0, 0.0]]))
    assert np.array_equal(spectrum.majorana_spectrum(A), [-6.0, 6.0])


def test_majorana_spectrum_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        spectrum.majorana_spectrum(np.eye(4))


@pytest.mark.parametrize("A", [
    # inside numpy's default relative tolerance, but i*A has eigenvalues
    # +-1000004.5, not the +-1000009 the upper triangle gives
    [[0.0, 1e6], [-1e6 - 9.0, 0.0]],
    # a complex matrix, whose real part is zero
    [[0.0, 2j], [2j, 0.0]],
    [[0.0, np.inf], [-np.inf, 0.0]],
    [[0.0, np.nan], [np.nan, 0.0]],
    # A + A^T overflows
    [[0.0, 1.7e308], [1.7e308, 0.0]],
    # not square
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
])
def test_majorana_spectrum_refuses_what_its_tolerance_does_not_admit(A):
    # the suite turns a RuntimeWarning into an error, so none is raised first
    with pytest.raises(ValueError):
        spectrum.majorana_spectrum(np.array(A))


def test_majorana_spectrum_admits_asymmetry_within_its_tolerance():
    # max|A + A^T| = 1e-12 is within 1e-12 (1 + max|A|)
    A = np.array([[0.0, 1.0], [-1.0 - 1e-12, 0.0]])
    assert np.allclose(spectrum.majorana_spectrum(A), [-1.0, 1.0])


def test_majorana_spectrum_of_the_empty_matrix_is_empty():
    eigs = spectrum.majorana_spectrum(np.zeros((0, 0)))
    assert eigs.shape == (0,)


def test_bloch_multiset_matches_torus():
    rng = np.random.default_rng(3)
    for d, N in ((2, 3), (3, 2), (1, 5)):
        J = rng.uniform(-2, 2, size=d + 1)
        t = build_torus(d, N)
        dev = spectrum.verify_bloch_equivalence(t, J)
        assert dev < 1e-12


def test_bloch_multiset_contents():
    ms = spectrum.bloch_multiset(EQUAL_J2, 1)
    assert np.array_equal(ms, [-6.0, 6.0])
    assert np.array_equal(spectrum.bloch_multiset([1.0] * 71, 1), [-142.0, 142.0])
    ms2 = spectrum.bloch_multiset(EQUAL_J2, 2)
    assert ms2.shape == (8,)
    assert np.all(np.diff(ms2) >= 0)
    assert np.allclose(ms2 + ms2[::-1], 0.0, atol=1e-14)


def test_couplings_validation():
    with pytest.raises(ValueError):
        spectrum.as_couplings([1.0])
    with pytest.raises(ValueError):
        spectrum.as_couplings([1.0, np.inf, 0.0])
    with pytest.raises(ValueError):
        spectrum.as_couplings([[1.0, 2.0]])
    with pytest.raises(ValueError):
        spectrum.as_couplings([1.0, 2.0, 3.0], d=3)


def test_band_csv_lines():
    lines = "\n".join(spectrum.band_csv_lines(EQUAL_J2, 2)).split("\n")
    assert lines[0] == "phi_1,phi_2,xi_plus,xi_minus"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 6.0
    # round trip at full precision
    for row in lines[1:]:
        cols = [float(x) for x in row.split(",")]
        f = abs(spectrum.f_of_q(EQUAL_J2, np.array(cols[:2])))
        assert cols[2] == f and cols[3] == -f


def test_band_csv_lines_with_hoppings():
    lines = "\n".join(spectrum.band_csv_lines(EQUAL_J2, 2, hoppings=2.0 * EQUAL_J2)).split("\n")
    assert lines[0].endswith("E_plus,E_minus")
    for row in lines[1:]:
        cols = [float(x) for x in row.split(",")]
        assert cols[2] == cols[4] and cols[3] == cols[5]


def exact_ties(rng, per_q):
    """Doubles whose exact decimal has 18 significant digits, the last a 5, so
    17 digits round half to even: odd * 2^(-1-q) for q = 2..20, the odd
    mantissa chosen where the value has 17 - q digits before the point."""
    out = []
    for q in range(2, 21):
        lo = -(-(2 ** (1 + q)) * 10**16 // 10**q)  # ceil(10^(16-q) 2^(1+q))
        hi = 2 ** (1 + q) * 10**17 // 10**q
        odd = rng.integers(lo // 2, (hi - 1) // 2, per_q) * 2 + 1
        out.append(odd * 2.0 ** (-1 - q))
    return np.concatenate(out)


def decade_neighbours():
    """Every 10^k, k = -5..16, and the doubles next to it on either side."""
    p = 10.0 ** np.arange(-5, 17)
    return np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])


FIELD_SETS = {
    "uniform": lambda rng: rng.uniform(0.0, 8.0, 40_000),
    "log-uniform": lambda rng: 10.0 ** rng.uniform(-4.0, 15.0, 40_000),
    "ties": lambda rng: exact_ties(rng, 2_000),
    "decades": lambda rng: decade_neighbours(),
    "fallback": lambda rng: np.array([0.0, 5e-324, 9.9e-5, 1e15, 1e300, np.inf, np.nan]),
}


@pytest.mark.parametrize("name", FIELD_SETS)
def test_float_field_prints_what_csv_floats_prints(monkeypatch, name):
    """The exact kernel gives '{:.17g}' text on seeded sets: uniform on [0, 8),
    log-uniform over its domain [1e-4, 1e15), exact ties, the neighbours of
    every power of ten, and the values it leaves to `csv_floats`.  After the
    correction pass every shift lies in [1, 46], and no shift reaches 64."""
    x = FIELD_SETS[name](np.random.default_rng(38))
    if name == "ties":
        assert {str(Decimal(v)).replace(".", "").strip("0")[-1] for v in x.tolist()} == {"5"}
        assert {len(str(Decimal(v)).replace(".", "").strip("0")) for v in x.tolist()} == {18}
    shifts = []

    def scaled_digits(m, p, s):
        shifts.append(s)
        return scaled(m, p, s)

    scaled = spectrum._scaled_digits
    monkeypatch.setattr(spectrum, "_scaled_digits", scaled_digits)
    rows, want = spectrum._float_field(x), spectrum.csv_floats(x)
    assert [r.tobytes().rstrip(b"\0").decode() for r in rows] == want
    assert rows.dtype == np.uint8 and rows.shape == (x.size, max(22, *map(len, want)))
    first, corrected = shifts
    assert np.all((1 <= first) & (first < 64))
    assert np.all((1 <= corrected) & (corrected <= 46))


def test_float_field_moves_a_decade_estimate_one_low_up(monkeypatch):
    """A log10 one ulp low, as a less accurate log10 may give at a power of
    ten, puts k a decade low there: the correction pass moves it up."""
    log10 = np.log10
    monkeypatch.setattr(spectrum.np, "log10", lambda v: np.nextafter(log10(v), -np.inf))
    assert np.floor(np.log10(np.array([1.0, 1e14]))).tolist() == [-1.0, 13.0]
    x = decade_neighbours()
    rows = spectrum._float_field(x)
    assert [r.tobytes().rstrip(b"\0").decode() for r in rows] == spectrum.csv_floats(x)


def test_float_field_widens_for_longer_fallback_text():
    rows = spectrum._float_field(np.array([1.5, 1.7976931348623157e308]))
    assert rows.shape == (2, 23)
    assert rows[1].tobytes() == b"1.7976931348623157e+308"


def ref_band_block(energies, axis, d, start):
    """The string route the bytes route replaced: each cell a string from
    `csv_floats`, each negative "-" and that string, one join per block."""
    rows = np.arange(start, min(start + spectrum.ROW_BLOCK, energies[0].size))
    axis = np.array(axis, dtype=object)
    cols = [axis[rows // w % axis.size].tolist() for w in lattice.place_values(axis.size, d)]
    for e in energies:
        plus = spectrum.csv_floats(e[start : start + spectrum.ROW_BLOCK])
        cols += [plus, ["-" + p for p in plus]]
    return "\n".join(",".join(row) for row in zip(*cols))


@pytest.mark.parametrize("J,t,grid", [
    ([0.3, -1.2, 0.7], [1.1, 0.4, -0.9], 5),
    ([0.3, -1.2, 0.7], None, 5),
    # |f| and |r| of about 1e-15 at two of the 36 points: fallback rows in fast blocks
    ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 6),
    # infinite and 1e308-scale energies
    ([1e308, 1e308], [1e308, -1e308], 9),
    ([1e308, 1e308, 1e308, 1e308], None, 3),
])
def test_band_block_matches_the_string_route(monkeypatch, J, t, grid):
    monkeypatch.setattr(spectrum, "ROW_BLOCK", 7)
    lines = spectrum.band_csv_lines(J, grid, hoppings=t, mapper=lambda fn, starts: [(fn, starts)])
    next(lines)
    (block, starts), = lines
    energies, _, d = block.args
    axis = spectrum.csv_floats(spectrum.TWO_PI * np.arange(grid) / grid)
    assert len(starts) > 1
    for start in starts:
        assert block(start) == ref_band_block(energies, axis, d, start)
    assert np.isinf(energies[0]).any() == (J[0] == 1e308)


@pytest.mark.parametrize("d,N", [(1, 4), (2, 2), (2, 12), (3, 1), (5, 1)])
def test_bloch_equivalence_at_every_scale(d, N):
    torus = build_torus(d, N)
    base = np.random.default_rng(d * 100 + N).uniform(-1.0, 1.0, size=d + 1)
    base /= np.abs(base).max()
    for scale in [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300, 8.9e307, 1.79e308]:
        dev = spectrum.verify_bloch_equivalence(torus, base * scale)
        # 1e-12 sum |J|, in an order that cannot overflow
        assert np.isfinite(dev) and dev < 1e-12 * scale * np.abs(base).sum()


def test_phase_wrap_never_returns_two_pi():
    phi = spectrum.as_phases([-1e-20, -0.0, 2 * np.pi, -2 * np.pi, 7.0])
    assert np.all((0.0 <= phi) & (phi < spectrum.TWO_PI))
    assert phi[0] == 0.0
    assert np.array_equal(spectrum.as_phases(phi), phi)


def _bloch_sum_old(c, phi, prefactor=None):
    """The amplitude as it was computed from phases, exp taken on every one."""
    top = float(np.maximum(np.abs(c.real), np.abs(c.imag)).max())
    e = spectrum.range_exponent(top, c.size)
    if e:
        c = c * 2.0**-e
    val = c[0] + np.exp(1j * phi) @ c[1:]
    if prefactor is not None:
        val = prefactor * val
    if e:
        val, scaled = np.empty(np.shape(val), complex), val
        with np.errstate(over="ignore"):
            val.real = np.ldexp(np.real(scaled), e)
            val.imag = np.ldexp(np.imag(scaled), e)
    return val


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


GRID_FACTOR_CASES = [(1, 1), (1, 5000), (2, 1), (2, 300), (3, 7), (3, 64), (4, 23), (4, 32),
                     (5, 1), (5, 9)]


@pytest.mark.parametrize("d,N", GRID_FACTOR_CASES)
def test_grid_factors_are_the_exponentials_of_the_grid(d, N):
    """Gathered from one axis, the factors have the bits and the F layout of
    exp over the whole grid, and so does the Bloch sum over them; (4, 32)
    is the budget edge, 32^4 * 4 phases."""
    want = np.exp(1j * spectrum.bz_grid(d, N))
    got = spectrum._grid_factors(d, N)
    assert got.shape == want.shape == (N**d, d)
    assert got.flags.f_contiguous and want.flags.f_contiguous
    assert np.array_equal(bits(got), bits(want))
    c = np.random.default_rng(d * 1000 + N).uniform(-2.0, 2.0, d + 1) * (1 + 0.5j)
    assert np.array_equal(bits(got @ c[1:]), bits(want @ c[1:]))


@pytest.mark.parametrize("d,N", [(1, 9), (2, 5), (3, 4), (4, 3), (5, 2), (5, 1)])
def test_grid_factors_keep_the_grid_budget(monkeypatch, d, N):
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", N**d * d)
    assert spectrum._grid_factors(d, N).shape == (N**d, d)
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", N**d * d - 1)
    for build in (spectrum.bz_grid, spectrum._grid_factors):
        with pytest.raises(ValueError, match=rf"^phase grid {N}\^{d} is over the budget"):
            build(d, N)


def csv_energies(lines, column):
    return np.array([float(row.split(",")[column]) for row in lines[1:]])


@pytest.mark.parametrize("scale", [2.0**-1000, 1.0, 2.0**1000, 1e308])
@pytest.mark.parametrize("d,N", [(1, 40), (2, 13), (3, 6), (4, 4)])
def test_grid_energies_have_the_bits_of_the_phase_route(d, N, scale):
    """|f| and |r| over the grid factors, in the CSV and the multiset, are
    those of exp taken on every phase of `bz_grid`; at 1e308 some rows of
    |f| overflow to inf."""
    rng = np.random.default_rng(d * 100 + N)
    J = rng.uniform(-1.7, 1.7, d + 1) * scale
    t = rng.uniform(-1.7, 1.7, d + 1) * scale * np.exp(1j * rng.uniform(0.0, 6.0, d + 1))
    phi = spectrum.bz_grid(d, N)
    xi = np.abs(_bloch_sum_old(J, phi, 2.0))
    r = np.abs(_bloch_sum_old(as_hoppings(t), spectrum.as_phases(phi)))
    lines = "\n".join(spectrum.band_csv_lines(J, N, hoppings=t)).split("\n")
    assert np.array_equal(bits(csv_energies(lines, d)), bits(xi))
    assert np.array_equal(bits(csv_energies(lines, d + 2)), bits(r))
    _, table = spectrum.band_table(J, N, hoppings=t)
    assert np.array_equal(bits(table[:, d]), bits(xi))
    assert np.array_equal(bits(table[:, d + 2]), bits(r))
    want = np.sort(np.concatenate([-xi, xi]))
    assert np.array_equal(bits(spectrum.bloch_multiset(J, N)), bits(want))
    if scale == 1e308:
        assert np.isposinf(xi).any()


@pytest.mark.parametrize("d,N", [(2, 64), (3, 16)])
def test_band_table_exponentiates_one_axis(monkeypatch, d, N):
    """The table's |f|, and |r| with hoppings, come from one axis's N phase
    factors, not from exp over all d N^d grid phases."""
    sizes = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    for t in (None, np.arange(2.0, d + 3) * 1j):
        sizes.clear()
        cols, _ = spectrum.band_table(np.arange(1.0, d + 2), N, hoppings=t)
        assert len(cols) == d + (2 if t is None else 4)
        assert 0 < sum(sizes) <= N


def test_band_table_needs_no_tight_binding_route(monkeypatch):
    """|r| in the table comes from `spectrum` alone: `tb_energy` is never called."""
    from kitaev_diamond import tightbinding

    def refuse(*args, **kwargs):
        raise AssertionError("tb_energy called")

    monkeypatch.setattr(tightbinding, "tb_energy", refuse)
    t = [1.1, 0.4 - 0.3j, -0.9]
    cols, table = spectrum.band_table([0.3, -1.2, 0.7], 5, hoppings=t)
    assert cols[-2:] == ["E_plus", "E_minus"]
    r = np.abs(_bloch_sum_old(as_hoppings(t), spectrum.bz_grid(2, 5)))
    assert np.array_equal(bits(table[:, 4]), bits(r))
    assert np.array_equal(bits(table[:, 5]), bits(-r))
