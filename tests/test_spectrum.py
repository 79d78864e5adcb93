import dataclasses

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
    *(reversed_edge_0(build_torus(d, 1)) for d in (1, 2, 3, 5, 8)),
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
    """Without hoppings the table's |f| comes from one axis's N phase
    factors, not from exp over all d N^d grid phases."""
    sizes = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    spectrum.band_table(np.arange(1.0, d + 2), N)
    assert 0 < sum(sizes) <= N
