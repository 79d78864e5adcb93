"""Free-fermion band structure of the diamond-lattice model.

Momenta are handled as the d phases phi_i picked up along the translation
generators, so the Brillouin zone is the standard torus [0, 2pi)^d and no
reciprocal-lattice embedding ever enters the numerics.  Two independent
routes to the spectrum are kept side by side: the closed-form dispersion
+-|f(phi)| evaluated on the discrete phase grid, and the eigenvalues of the
antisymmetric hopping form assembled edge by edge on the torus.  Their
multiset agreement is the main correctness gate for both.  Couplings meet edges
in `_edge_couplings` only; the band tables take |f| and |r| from one axis's
phase factors (`_band_energies`), the CSV prints each energy as '{:.17g}'
does, from an exact integer kernel over whole blocks, and the JSON as json does.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

import numpy as np

from . import lattice
from .lattice import DiamondTorus, check_budget, check_size, grid_count, place_values

TWO_PI = 2.0 * np.pi
# Rows of a table formatted per block.
ROW_BLOCK = 1 << 14
FLOAT_MAX = float(np.finfo(float).max)


def _as_real(x, what: str) -> np.ndarray:
    """x as a float array.  Only integer and float arrays are admitted: a
    complex x is never cast to its real part, nor a string, bool or object
    array read as numbers."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
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


def as_hoppings(t, d: int | None = None) -> np.ndarray:
    """Validate a hopping vector t_1..t_{d+1}; complex amplitudes allowed."""
    t = np.asarray(t)
    if t.dtype.kind not in "iufc":
        raise ValueError("hoppings must be real or complex")
    return _edge_vector(t.astype(complex), d, "hoppings")


def _edge_couplings(torus: DiamondTorus, J) -> np.ndarray:
    """J checked as the d + 1 couplings, then J_l of each edge's label l (1..d+1), in order."""
    return as_couplings(J, d=torus.d)[torus.label - 1]


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


def _bloch_sum(c: np.ndarray, z: np.ndarray, prefactor: float | None = None):
    """prefactor * (c_0 + sum_i c_{i+1} z_i) over the last axis of the phase
    factors z = e^{i phi}, the one amplitude of both band models.

    c is already checked, and z is exp(1j * phi) of phases checked by
    `as_phases`, or `_grid_factors` over the grid.
    c is scaled by the power of two of `range_exponent` over its largest
    component, and the result scaled back component by component: a sum
    that overflows then gives infinite components instead of inf - inf =
    NaN.  Scaling only where a sum could overflow keeps the imaginary part
    of couplings more than 2^1022 apart, which a scaled sum would flush.
    """
    top = float(np.maximum(np.abs(c.real), np.abs(c.imag)).max())
    e = range_exponent(top, c.size)
    if e:
        c = c * 2.0**-e
    val = c[0] + z @ c[1:]
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
    J = as_couplings(J)
    return _bloch_sum(J, np.exp(1j * as_phases(phi, d=J.size - 1)), 2.0)


class DispersionResult(NamedTuple):
    phi: np.ndarray
    xi_plus: float | np.ndarray
    xi_minus: float | np.ndarray


def dispersion(J, phi) -> DispersionResult:
    """Two-band energies xi = +-|f(phi)| at the wrapped phases phi."""
    xi = np.abs(f_of_q(J, phi))
    return DispersionResult(phi=as_phases(phi), xi_plus=xi, xi_minus=-xi)


def bloch_hamiltonian(J, phi) -> np.ndarray:
    """Momentum-space 2x2 block [[0, i f], [-i conj(f), 0]]."""
    f = f_of_q(J, phi)
    if not np.isscalar(f) and getattr(f, "ndim", 0) > 0:
        raise ValueError("bloch_hamiltonian expects a single phase vector")
    return np.array([[0.0, 1j * f], [-1j * np.conj(f), 0.0]])


def _grid_columns(d: int, N: int, of_phase) -> np.ndarray:
    """of_phase over the N^d grid phases phi_i = 2 pi m_i / N, an F-ordered
    (N^d, d) array, row-major in (m_1, ..., m_d); a grid of more than
    ENTRY_BUDGET phases, d N^d, is refused first.

    of_phase runs on the N phases of one axis only.  Column i, viewed as
    (N^i, N, N^(d-1-i)) row-major, takes value m_i along its middle axis,
    so no digit array is made."""
    d = check_size(d, 1, "dimension")
    N = check_size(N, 1, "grid size")
    check_budget(grid_count(N, d) * d, f"phase grid {N}^{d}")
    axis = of_phase(TWO_PI * np.arange(N) / N)
    # F-ordered; at d = 1 both orders hold, and np.indices' has C strides
    out = np.empty((N**d, d), dtype=axis.dtype, order="F" if d > 1 else "C")
    for i in range(d):
        out[:, i].reshape(N**i, N, N ** (d - 1 - i))[...] = axis[:, None]
    return out


def bz_grid(d: int, N: int) -> np.ndarray:
    """All N^d grid phases phi_i = 2 pi m_i / N, row-major in (m_1, ..., m_d).

    The layout is F-ordered, as np.indices' transpose gives it:
    exp(1j*phi) @ c rounds differently on a C-ordered (N^d, d) array."""
    return _grid_columns(d, N, lambda phi: phi)


def _grid_factors(d: int, N: int) -> np.ndarray:
    """np.exp(1j * bz_grid(d, N)) bit for bit, F-ordered as it and within its
    budget, from the N factors of one axis: exp runs N times, not d N^d."""
    return _grid_columns(d, N, lambda phi: np.exp(1j * phi))


def bloch_multiset(J, N: int) -> np.ndarray:
    """Sorted multiset of the 2*N^d dispersion values +-|f| over the grid."""
    J = as_couplings(J)
    absf = np.abs(_bloch_sum(J, _grid_factors(J.size - 1, N), 2.0))
    return np.sort(np.concatenate([-absf, absf]))


def _forms_in_budget(d: int, N: int) -> int:
    """How many hopping forms of the (d, N) torus, (2N^d)^2 entries each, fit
    ENTRY_BUDGET together, read when called.  d and N are checked as `build_torus`
    checks them, and a torus whose one form does not fit is refused."""
    d, N = check_size(d, 1, "dimension"), check_size(N, 1, "torus size")
    n = 2 * grid_count(N, d)
    check_budget(n * n, f"hopping form of torus d={d}, N={N}")
    return lattice.ENTRY_BUDGET // (n * n)


def quadratic_form(torus: DiamondTorus, J) -> np.ndarray:
    """Antisymmetric hopping form of the model in the uniform link gauge.

    Row/column order follows the torus vertex ordering.  Each edge with label
    l contributes +2*J_l in the (s=1, s=0) orientation; parallel edges of an
    N=1 torus accumulate onto the same entry.  One `np.add.at` adds +w at
    (frm, to), then -w at (to, frm), edge by edge: each entry sums in edge order.
    Its (2N^d)^2 entries, however few the edges, are counted first, by `_forms_in_budget`.
    """
    w = 2.0 * _edge_couplings(torus, J)
    _forms_in_budget(torus.d, torus.N)
    n = 2 * torus.n_cells
    A = np.zeros((n, n))
    frm, to = torus.frm, torus.to
    np.add.at(A, (np.ravel([frm, to], "F"), np.ravel([to, frm], "F")), np.ravel([w, -w], "F"))
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
        asym = np.abs(A + A.T).max(initial=0.0)
    if asym > 1e-12 * (1.0 + np.abs(A).max(initial=0.0)):
        raise ValueError("matrix is not antisymmetric")
    return np.linalg.eigvalsh(1j * A)


def verify_bloch_equivalence(torus: DiamondTorus, J) -> float:
    """Max deviation between the grid dispersion multiset and the exact
    spectrum of the hopping form.  Zero (to rounding) certifies both routes.
    J is scaled by `range_exponent` over the edges, the deviation scaled back.
    """
    J = as_couplings(J, d=torus.d)
    e = range_exponent(float(np.abs(J).max()), torus.label.size)
    J = np.ldexp(J, -e)
    matrix_eigs = majorana_spectrum(quadratic_form(torus, J))
    grid_eigs = bloch_multiset(J, torus.N)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.abs(matrix_eigs - grid_eigs).max(), e))


def csv_floats(values: np.ndarray) -> list[str]:
    """Each value with 17 significant digits, as the CSV tables print it."""
    return list(map("{:.17g}".format, values.tolist()))


def _layout(k: int, last: int) -> list[int]:
    """Columns of [17 digits, '.', '0', NUL] that print the digits up to `last`
    at decimal exponent k in fixed notation, NUL-padded to 22."""
    head = [18, 17] + [18] * (-1 - k) if k < 0 else [*range(k + 1)] + [17] * (last > k)
    return (head + [*range(max(k + 1, 0), last + 1)] + [19] * 22)[:22]


# the layout of each exponent k = -4..14 and last digit the fast path prints
_LAYOUTS = np.array([[_layout(k, last) for last in range(17)] for k in range(-4, 15)])


def _scaled_digits(m: np.ndarray, p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """m 5^p / 2^s rounded half to even, exactly, for uint64 m < 2^53, p <= 21 and
    1 <= s < 64 with a 64-bit quotient: the product is formed in two words."""
    a, s, low32 = np.uint64(5) ** p.astype(np.uint64), s.astype(np.uint64), np.uint64(2**32 - 1)
    mid = (m >> 32) * (a & low32) + (m & low32) * (a >> 32)
    lo = (m & low32) * (a & low32) + (mid << 32)
    hi = (m >> 32) * (a >> 32) + (mid >> 32) + (lo < mid << 32)
    q = (hi << (64 - s)) | (lo >> s)
    rem = lo & ((1 << s) - 1)
    return q + (rem + (q & 1) > 1 << (s - 1))


def _float_field(x: np.ndarray) -> np.ndarray:
    """'{:.17g}'.format(v) for each v of the float array x, as uint8 rows NUL-padded
    to 22 bytes, or to the longest text.  Finite v in [1e-4, 1e15) are printed here:
    D = round(v 10^(16-k)) at k = floor(log10 v) is m 5^(16-k) / 2^(37-e+k) for v's
    mantissa m = v 2^(53-e), exactly; a D outside [10^16, 10^17), one rounded up to
    10^17 included, moves k by one and is made again.  Its digits are laid out by
    `_LAYOUTS`, trailing fraction zeros dropped.  `csv_floats` prints the rest."""
    fast = (x >= 1e-4) & (x < 1e15)
    slow = np.array(csv_floats(x[~fast]), dtype=bytes)
    out = np.zeros((x.size, max(22, slow.itemsize)), np.uint8)
    out[~fast, : slow.itemsize] = slow.view(np.uint8).reshape(slow.size, slow.itemsize)
    frac, e = np.frexp(x[fast])
    m = (frac * 2.0**53).astype(np.uint64)
    k = np.floor(np.log10(x[fast])).astype(np.int64)
    for _ in range(2):
        D = _scaled_digits(m, 16 - k, 37 - e + k)
        k += (D >= 10**17).astype(np.int64) - (D < 10**16)
    digits = D // 10 ** np.arange(16, -1, -1, dtype=np.uint64)[:, None]  # j + 1 leading digits
    digits[1:] -= 10 * digits[:-1]
    digits = digits.T.astype(np.uint8) + ord("0")
    last = np.maximum(16 - (digits[:, ::-1] != ord("0")).argmax(axis=1), k)
    text = np.hstack([digits, np.broadcast_to(np.frombuffer(b".0\0", np.uint8), (k.size, 3))])
    out[fast, :22] = text.ravel()[_LAYOUTS[k + 4, last] + 20 * np.arange(k.size)[:, None]]
    return out


def _band_energies(J, grid_n: int, hoppings) -> tuple[int, list[str], list[np.ndarray]]:
    """d, the band table's columns (the d phases, xi_plus = |f|, xi_minus = -|f|, then with
    hoppings E_plus = |r|, E_minus = -|r|) and its energies |f|, and |r| with hoppings, over
    the grid_n^d grid from one `_grid_factors` array.  J and the hoppings, their length
    included, are checked before the grid's budget."""
    J = as_couplings(J)
    d = J.size - 1
    cols = [f"phi_{i + 1}" for i in range(d)] + ["xi_plus", "xi_minus"]
    amplitudes = [(J, 2.0)]
    if hoppings is not None:
        amplitudes.append((as_hoppings(hoppings, d=d), None))
        cols += ["E_plus", "E_minus"]
    z = _grid_factors(d, grid_n)
    return d, cols, [np.abs(_bloch_sum(c, z, prefactor)) for c, prefactor in amplitudes]


def band_table(J, grid_n: int, hoppings=None) -> tuple[list[str], np.ndarray]:
    """Column names and values of the band table over the grid_n^d phase grid.

    Rows are the grid points, row-major as `bz_grid`.  The energies come from
    `_band_energies`, which checks every input and the grid's budget first.  The CLI
    prints its tables from the same energies without it (`band_csv_lines`,
    `band_json_lines`); this whole table serves library callers and the tests."""
    d, cols, energies = _band_energies(J, grid_n, hoppings)
    values = [bz_grid(d, grid_n)]
    for e in energies:
        values += [e[:, None], -e[:, None]]
    return cols, np.concatenate(values, axis=1)


def band_json_lines(J, grid_n: int, hoppings=None):
    """The band table over the full phase grid, as json.dumps(indent=2) prints
    {"columns": cols, "rows": values} of `band_table`.

    Yields json's head through '"rows": [', then each block of up to ROW_BLOCK rows as one
    string, then the tail.  A row is laid out as json lays it out, from the text of one axis's
    N phases and of the energies of `_band_energies`, each printed once by float.__repr__, as
    json prints a float, its negative as "-" and that text (exact for every value >= 0, zero
    included).  A non-finite energy is refused before the head.
    """
    d, cols, energies = _band_energies(J, grid_n, hoppings)
    if not all(np.isfinite(e).all() for e in energies):
        raise ValueError("non-finite value in rows; JSON has no Infinity or NaN")
    head, tail = json.dumps({"columns": cols, "rows": []}, indent=2).rsplit("[]", 1)
    axis = np.array(list(map(float.__repr__, (TWO_PI * np.arange(grid_n) / grid_n).tolist())))
    # one row two levels deep, as json.dumps(indent=2) lays it out
    row = "    [\n      " + ",\n      ".join(["%s"] * d + ["%s", "-%s"] * len(energies)) + "\n    ]"
    yield head + "["
    n = energies[0].size
    for start in range(0, n, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, n))
        fields = [axis[rows // w % grid_n].tolist() for w in place_values(grid_n, d)]
        for e in energies:
            text = list(map(float.__repr__, e[start : start + ROW_BLOCK].tolist()))
            fields += [text, text]
        yield ",\n".join(map(row.__mod__, zip(*fields))) + ("," if start + ROW_BLOCK < n else "")
    yield "  ]" + tail


def band_csv_lines(J, grid_n: int, hoppings=None, *, mapper=map):
    """The band table over the full phase grid, as CSV text.

    Yields the header, then each block of up to ROW_BLOCK rows as one newline-joined string:
    the rows of `band_table`, each value as '{:.17g}' prints it (`_float_field`).  Before the
    header |f|, and |r| with `hoppings`, is computed over the whole grid by `_band_energies`,
    as `band_table` computes it, which a product per block would not keep: the BLAS groups a
    short block's rows otherwise.  The blocks, printed from those columns and one axis's phase
    text, are `mapper(block, starts)` over their first rows, in order: the builtin map by
    default; the CLI passes one that prints them in forked processes.
    """
    d, cols, energies = _band_energies(J, grid_n, hoppings)
    axis = _float_field(TWO_PI * np.arange(grid_n) / grid_n)
    yield ",".join(cols)
    block = functools.partial(_band_block, energies, axis, d)
    yield from mapper(block, range(0, energies[0].size, ROW_BLOCK))


def _band_block(energies: list[np.ndarray], axis: np.ndarray, d: int, start: int) -> str:
    """CSV text of rows start..start+ROW_BLOCK-1 of the band table, built as NUL-padded
    bytes, one row per table row, and decoded once with the NULs deleted.  Each phase is
    looked up in axis, the `_float_field` rows of one axis's phases, and each energy,
    |f| and maybe |r|, is printed once by `_float_field`, its negative as "-" and that
    text (the same text for every value >= 0, zero and inf)."""
    rows = np.arange(start, min(start + ROW_BLOCK, energies[0].size))
    comma, dash = (np.full((rows.size, 1), ord(c), np.uint8) for c in ",-")
    parts = [p for w in place_values(len(axis), d)
             for p in (axis.take(rows // w % len(axis), 0), comma)]
    for e in energies:
        plus = _float_field(e[start : start + ROW_BLOCK])
        parts += [plus, comma, dash, plus, comma]
    text = np.hstack(parts)
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode()[:-1]
