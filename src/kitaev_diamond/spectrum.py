"""Free-fermion band structure of the diamond-lattice model.

Momenta are handled as the d phases phi_i picked up along the translation
generators, so the Brillouin zone is the standard torus [0, 2pi)^d and no
reciprocal-lattice embedding ever enters the numerics.  Two independent
routes to the spectrum are kept side by side: the closed-form dispersion
+-|f(phi)| evaluated on the discrete phase grid, and the eigenvalues of the
antisymmetric hopping form assembled edge by edge on the torus.  Their
multiset agreement is the main correctness gate for both.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lattice import DiamondTorus, check_budget, check_size, grid_count, place_values

TWO_PI = 2.0 * np.pi
# Rows of a CSV table formatted per vectorised block.
ROW_BLOCK = 1 << 14
FLOAT_MAX = float(np.finfo(float).max)


def _as_real(x, what: str) -> np.ndarray:
    """x as a float array; a complex x is refused, never cast to its real part."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{what} must be real")
    return x.astype(float, copy=False)


def _edge_vector(c: np.ndarray, d: int | None, what: str) -> np.ndarray:
    """c, refused unless 1-d, finite, with two or more entries (d+1 given d)."""
    if c.ndim != 1 or c.size < 2:
        raise ValueError(f"{what} must be a 1-d sequence with at least two entries")
    if d is not None and c.size != d + 1:
        raise ValueError(f"expected {d + 1} {what} for d={d}, got {c.size}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{what} must be finite")
    return c


def as_couplings(J, d: int | None = None) -> np.ndarray:
    """Validate a real coupling vector J_1..J_{d+1} (indexed by edge label)."""
    return _edge_vector(_as_real(J, "couplings"), d, "couplings")


def as_phases(phi, d: int | None = None) -> np.ndarray:
    """Wrap phases into [0, 2pi).  Accepts shape (..., d)."""
    phi = _as_real(phi, "phases")
    if d is not None and (phi.ndim == 0 or phi.shape[-1] != d):
        raise ValueError(f"expected {d} phases, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phases must be finite")
    phi = np.mod(phi, TWO_PI)
    # np.mod rounds a tiny negative phase up to exactly 2pi
    return np.where(phi == TWO_PI, 0.0, phi)


def range_exponent(top: float, n: int) -> int:
    """Power-of-two exponent e that brings top * 2^-e into [1/2, 1), or 0.

    The exponent is nonzero only when a doubled sum of n terms of magnitude
    top could overflow, so every other input keeps its unscaled arithmetic.
    """
    return int(np.frexp(top)[1]) if 2.0 * n * top > FLOAT_MAX else 0


def _bloch_sum(c: np.ndarray, phi, prefactor: float | None = None):
    """prefactor * (c_0 + sum_i c_{i+1} e^{i phi_i}) over the last axis of phi.

    c is scaled by the power of two of `range_exponent` over its largest
    component, and the result scaled back component by component: a sum
    that overflows then gives infinite components instead of inf - inf =
    NaN.  Scaling only where a sum could overflow keeps the imaginary part
    of couplings more than 2^1022 apart, which a scaled sum would flush.
    """
    phi = as_phases(phi, d=c.size - 1)
    top = float(np.maximum(np.abs(c.real), np.abs(c.imag)).max())
    e = range_exponent(top, c.size)
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
    return complex(val) if val.ndim == 0 else val


def f_of_q(J, phi) -> complex | np.ndarray:
    """Complex band amplitude f = 2*(J_1 + sum_i J_{i+1} e^{i phi_i}).

    phi may be a single phase vector or an array of shape (..., d); the
    result is scalar or shaped (...) accordingly.  Couplings near the float
    maximum give infinite components, never NaN.
    """
    return _bloch_sum(as_couplings(J), phi, 2.0)


class DispersionResult(NamedTuple):
    phi: np.ndarray
    xi_plus: float | np.ndarray
    xi_minus: float | np.ndarray


def dispersion(J, phi) -> DispersionResult:
    """Two-band energies xi = +-|f(phi)|."""
    phi = as_phases(phi, d=len(J) - 1)
    xi = np.abs(f_of_q(J, phi))
    return DispersionResult(phi=phi, xi_plus=xi, xi_minus=-xi)


def bloch_hamiltonian(J, phi) -> np.ndarray:
    """Momentum-space 2x2 block [[0, i f], [-i conj(f), 0]]."""
    f = f_of_q(J, phi)
    if not np.isscalar(f) and getattr(f, "ndim", 0) > 0:
        raise ValueError("bloch_hamiltonian expects a single phase vector")
    return np.array([[0.0, 1j * f], [-1j * np.conj(f), 0.0]])


def bz_grid(d: int, N: int) -> np.ndarray:
    """All N^d grid phases phi_i = 2 pi m_i / N, row-major in (m_1, ..., m_d).

    The digits m_i come from `place_values`, at any d.  A grid of more than
    ENTRY_BUDGET phases is refused before it is built.
    """
    d = check_size(d, 1, "dimension")
    N = check_size(N, 1, "grid size")
    check_budget(grid_count(N, d) * d, f"phase grid {N}^{d}")
    w = np.array(place_values(N, d))
    # the transpose of a C-ordered (d, N^d) array, as np.indices gives it:
    # exp(1j*phi) @ c rounds differently on a C-ordered (N^d, d) array
    digits = (np.arange(N**d) // w[:, None] % N).T
    return TWO_PI * digits / N


def bloch_multiset(J, N: int) -> np.ndarray:
    """Sorted multiset of the 2*N^d dispersion values +-|f| over the grid."""
    J = as_couplings(J)
    absf = np.abs(f_of_q(J, bz_grid(J.size - 1, N)))
    return np.sort(np.concatenate([-absf, absf]))


def quadratic_form(torus: DiamondTorus, J) -> np.ndarray:
    """Antisymmetric hopping form of the model in the uniform link gauge.

    Row/column order follows the torus vertex ordering.  Each edge with label
    l contributes +2*J_l in the (s=1, s=0) orientation; parallel edges of an
    N=1 torus accumulate onto the same entry.
    """
    J = as_couplings(J, d=torus.d)
    n = len(torus.vertices)
    A = np.zeros((n, n))
    for e in torus.edges:
        w = 2.0 * J[e.label - 1]
        A[e.frm, e.to] += w
        A[e.to, e.frm] -= w
    return A


def majorana_spectrum(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of i*A in ascending order, for a real, finite, square A
    with max|A + A^T| <= 1e-12 (1 + max|A|); any other A is refused."""
    A = _as_real(A, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    # a sum past the float range is an infinite asymmetry, refused below
    with np.errstate(over="ignore"):
        asym = np.abs(A + A.T).max()
    if asym > 1e-12 * (1.0 + np.abs(A).max()):
        raise ValueError("matrix is not antisymmetric")
    return np.linalg.eigvalsh(1j * A)


def verify_bloch_equivalence(torus: DiamondTorus, J) -> float:
    """Max deviation between the grid dispersion multiset and the exact
    spectrum of the hopping form.  Zero (to rounding) certifies both routes.
    J is scaled by `range_exponent` over the edges, the deviation scaled back.
    """
    J = as_couplings(J, d=torus.d)
    e = range_exponent(float(np.abs(J).max()), len(torus.edges))
    J = np.ldexp(J, -e)
    matrix_eigs = majorana_spectrum(quadratic_form(torus, J))
    grid_eigs = bloch_multiset(J, torus.N)
    if matrix_eigs.size != grid_eigs.size:
        raise ValueError(
            f"multiset sizes differ: {matrix_eigs.size} matrix eigenvalues "
            f"vs {grid_eigs.size} grid values"
        )
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.abs(matrix_eigs - grid_eigs).max(), e))


def csv_floats(values: np.ndarray) -> list[str]:
    """Each value with 17 significant digits, as the CSV tables print it."""
    return list(map("{:.17g}".format, values.tolist()))


def band_table(J, grid_n: int, hoppings=None) -> tuple[list[str], np.ndarray]:
    """Column names and values of the band table over the grid_n^d phase grid.

    Rows are the grid points, row-major as `bz_grid`; columns are the d
    phases, xi_plus = |f| and xi_minus = -|f|, then with hoppings E_plus =
    |r| and E_minus = -|r|.  Every input, the hoppings' length included, is
    validated and the grid checked against the budget before anything is
    computed.
    """
    J = as_couplings(J)
    d = J.size - 1
    cols = [f"phi_{i + 1}" for i in range(d)] + ["xi_plus", "xi_minus"]
    if hoppings is not None:
        from .tightbinding import as_hoppings, tb_energy

        hoppings = as_hoppings(hoppings, d=d)
        cols += ["E_plus", "E_minus"]
    phi = bz_grid(d, grid_n)
    xi = np.abs(f_of_q(J, phi))
    values = [phi, xi[:, None], -xi[:, None]]
    if hoppings is not None:
        values += [e[:, None] for e in tb_energy(hoppings, phi)]
    return cols, np.concatenate(values, axis=1)


def band_csv_lines(J, grid_n: int, hoppings=None):
    """The band table over the full phase grid, as CSV text.

    Yields the header, then each block of up to ROW_BLOCK rows as one
    newline-joined string: one row per grid point, row-major, 17 significant
    digits, and with `hoppings` the tight-binding energies as extra columns.
    Each axis's grid_n phases are formatted once and looked up per row, and
    each energy is formatted once and its negative printed as "-" and that
    string (the same text for every value >= 0, zero and inf included).
    """
    cols, values = band_table(J, grid_n, hoppings)
    d = cols.index("xi_plus")
    # the last axis runs fastest, so the first grid_n rows hold its phases
    axis = np.array(csv_floats(values[:grid_n, d - 1]), dtype=object)
    yield ",".join(cols)
    for start in range(0, len(values), ROW_BLOCK):
        block = values[start : start + ROW_BLOCK]
        rows = np.arange(start, start + len(block))
        out = [axis[rows // w % grid_n].tolist() for w in place_values(grid_n, d)]
        for j in range(d, len(cols), 2):
            plus = csv_floats(block[:, j])
            out += [plus, list(map("-".__add__, plus))]
        yield "\n".join(map(",".join, zip(*out)))
