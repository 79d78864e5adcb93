"""Two-band tight-binding model on the diamond lattice.

One orbital per sublattice, hopping t_l across the bonds with label l.  The
band amplitude r(phi) = t_1 + sum_i t_{i+1} e^{i phi_i} mirrors the spin
model's f up to the substitution t = 2J, which makes the two spectra agree
identically; `compare_models` measures exactly that.
"""

from __future__ import annotations

import numpy as np

from .spectrum import _bloch_sum, _edge_vector, as_couplings, f_of_q


def as_hoppings(t, d: int | None = None) -> np.ndarray:
    """Validate a hopping vector t_1..t_{d+1}; complex amplitudes allowed."""
    t = np.asarray(t)
    t = t if t.dtype.kind == "c" else t.astype(float).astype(complex)
    return _edge_vector(t, d, "hoppings")


def r_of_q(t, phi) -> complex | np.ndarray:
    """Off-diagonal Bloch amplitude r = t_1 + sum_i t_{i+1} e^{i phi_i}.

    Hoppings near the float maximum give infinite components, never NaN.
    """
    return _bloch_sum(as_hoppings(t), phi)


def tb_energy(t, phi) -> tuple:
    """Particle-hole symmetric bands E = +-|r(phi)|."""
    e = np.abs(r_of_q(t, phi))
    return e, -e


def compare_models(J, phi_samples) -> float:
    """Max |xi_plus - E_plus| over the samples under the matching t = 2J.

    The doubling commutes exactly with floating-point evaluation, so the
    returned deviation is zero up to (at most) one rounding unit.
    """
    J = as_couplings(J)
    phi_samples = np.atleast_2d(phi_samples)
    xi = np.abs(f_of_q(J, phi_samples))
    e_plus, _ = tb_energy(2.0 * J, phi_samples)
    return float(np.abs(xi - e_plus).max())
