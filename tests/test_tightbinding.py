import numpy as np
import pytest

from kitaev_diamond import tightbinding
from kitaev_diamond.spectrum import dispersion, f_of_q


def test_r_of_q_matches_manual():
    t = np.array([0.5, -1.0, 0.25])
    phi = np.array([0.3, 2.2])
    want = t[0] + t[1] * np.exp(1j * 0.3) + t[2] * np.exp(1j * 2.2)
    assert tightbinding.r_of_q(t, phi) == want


def test_complex_hoppings_accepted():
    t = np.array([1.0 + 0.5j, 0.3 - 0.2j])
    phi = np.array([1.0])
    e_plus, e_minus = tightbinding.tb_energy(t, phi)
    assert e_plus >= 0 and e_minus == -e_plus
    assert np.isclose(e_plus, abs(t[0] + t[1] * np.exp(1j)))


def test_energy_matches_halved_couplings_bitwise():
    """E(2J, phi) reproduces xi(J, phi) with zero floating-point error.

    Doubling every hopping scales the unit binade only, so both pipelines
    perform the identical sequence of roundings.
    """
    rng = np.random.default_rng(77)
    for _ in range(500):
        d = int(rng.integers(1, 6))
        J = rng.uniform(-3, 3, size=d + 1)
        phi = rng.uniform(0, 2 * np.pi, size=d)
        xi = dispersion(J, phi).xi_plus
        e_plus, _ = tightbinding.tb_energy(2.0 * J, phi)
        assert xi == e_plus


def test_compare_models_zero_deviation():
    rng = np.random.default_rng(78)
    J = np.array([1.3, -0.4, 0.9])
    samples = rng.uniform(0, 2 * np.pi, size=(100, 2))
    assert tightbinding.compare_models(J, samples) == 0.0


@pytest.mark.parametrize("top", [9e307, 1e308, 1.79e308])
def test_compare_models_near_the_float_maximum(top):
    """2J would overflow: J is scaled by a power of two, the deviation back."""
    assert tightbinding.compare_models([top] * 3, [0.1, 0.2]) == 0.0


def test_compare_models_refuses_zero_samples():
    with pytest.raises(ValueError, match="no phase samples"):
        tightbinding.compare_models([1, 1, 1], np.zeros((0, 2)))


def test_hoppings_validation():
    with pytest.raises(ValueError):
        tightbinding.as_hoppings([1.0])
    with pytest.raises(ValueError):
        tightbinding.tb_energy([1.0, 1.0], np.zeros(3))
