"""Input gates: each kind of input is checked by one rule wherever it enters.

Sizes (dimensions, torus and grid sizes, resolutions), real coefficient
vectors, torus vertices and polygon sides each pass one check.  These tests
pin what those checks refuse that a hand-written comparison let through: a
float size, a complex array cast to its real part, and a vertex with
non-integer coordinates.
"""

import numpy as np
import pytest

from kitaev_diamond import clifford, gap, lattice, spectrum
from kitaev_diamond.lattice import Vertex
from kitaev_diamond.tightbinding import compare_models, r_of_q

J2 = [1.0, 1.0, 1.0]


@pytest.mark.parametrize("call", [
    lambda: spectrum.bz_grid(2, 2.5),
    lambda: spectrum.bz_grid(2.0, 2),
    lambda: spectrum.bloch_multiset(J2, 2.5),
    lambda: lattice.build_torus(2, 2.0),
    lambda: lattice.make_basis(2.5),
    lambda: lattice.base_graph(2.5),
    lambda: gap.barycentric_grid(2, 2.5),
    lambda: clifford.spin_ops(2.5),
    lambda: clifford.d_operator(2.5),
    lambda: gap.min_gap_numeric(J2, grid_n=2.5),
])
def test_sizes_must_be_integers(call):
    with pytest.raises(ValueError, match=r"must be an integer, got 2\.[05]$"):
        call()


def test_sizes_accept_numpy_integers_and_keep_their_range_messages():
    two = np.int64(2)
    assert lattice.build_torus(two, two) == lattice.build_torus(2, 2)
    assert np.array_equal(spectrum.bz_grid(two, np.int32(3)), spectrum.bz_grid(2, 3))
    assert gap.min_gap_numeric(J2, grid_n=np.int64(8)) == gap.min_gap_numeric(J2, grid_n=8)
    with pytest.raises(ValueError, match="^grid size must be >= 1, got 0$"):
        spectrum.bz_grid(2, np.int64(0))
    with pytest.raises(ValueError, match="^grid_n must be >= 2, got 1$"):
        gap.min_gap_numeric(J2, grid_n=1)


@pytest.mark.parametrize("call", [
    lambda: spectrum.as_couplings(np.array([1 + 1j, 1, 1])),
    lambda: spectrum.as_couplings([1j, 1, 1]),
    lambda: gap.has_zero(np.array([3j, 1, 1])),
    lambda: spectrum.f_of_q(np.array([1 + 5j, 1, 1]), [0, 0]),
    lambda: spectrum.f_of_q(J2, np.array([1j, 0])),
    lambda: compare_models(J2, np.array([[1j, 0.0]])),
    lambda: gap.polygon_angles(np.array([1 + 1j, 1, 1])),
    lambda: gap.polygon_exists(np.array([1 + 1j, 1, 1])),
])
def test_couplings_phases_and_sides_are_never_cast_from_complex(call):
    with pytest.raises(ValueError, match="must be real"):
        call()


def test_hoppings_stay_complex():
    assert r_of_q(np.array([1j, 1, 1]), [0, 0]) == 2 + 1j


def test_vertices_need_integer_coordinates_and_bit():
    t = lattice.build_torus(2, 3)
    basis = lattice.make_basis(2)
    for v in (Vertex(mu=(0.5, 1), s=0), Vertex(mu=(1.0, 1), s=0), Vertex(mu=(0, 1), s=1.0)):
        with pytest.raises(KeyError):
            t.index(v)
        with pytest.raises(KeyError):
            lattice.covering_map(t, v)
        with pytest.raises(ValueError, match="not a vertex"):
            lattice.vertex_position(basis, v, 3)
    v = Vertex(mu=(np.int64(1), 2), s=np.int64(1))
    assert t.index(v) == 9 + 5
    assert np.array_equal(lattice.vertex_position(basis, v, 3),
                          lattice.vertex_position(basis, Vertex((1, 2), 1), 3))
