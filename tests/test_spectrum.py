import numpy as np
import pytest

from kitaev_diamond import spectrum
from kitaev_diamond.lattice import build_torus

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
])
def test_majorana_spectrum_refuses_what_its_tolerance_does_not_admit(A):
    # the suite turns a RuntimeWarning into an error, so none is raised first
    with pytest.raises(ValueError):
        spectrum.majorana_spectrum(np.array(A))


def test_majorana_spectrum_admits_asymmetry_within_its_tolerance():
    # max|A + A^T| = 1e-12 is within 1e-12 (1 + max|A|)
    A = np.array([[0.0, 1.0], [-1.0 - 1e-12, 0.0]])
    assert np.allclose(spectrum.majorana_spectrum(A), [-1.0, 1.0])


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
