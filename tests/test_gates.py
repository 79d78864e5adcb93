"""Input gates: each kind of input is checked by one rule wherever it enters.

Sizes (dimensions, torus and grid sizes, resolutions, bond indices), real
coefficient vectors, torus vertices and polygon sides each pass one check.
These tests pin what those checks refuse that a hand-written comparison let
through: a float size, a complex array cast to its real part, and a vertex
with non-integer coordinates.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from kitaev_diamond import clifford, gap, lattice, spectrum, spinham
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
    lambda: lattice.vertex_position(lattice.make_basis(1), Vertex((2,), 0), 2.5),
])
def test_sizes_must_be_integers(call):
    with pytest.raises(ValueError, match=r"must be an integer, got 2\.[05]$"):
        call()


_T3 = lattice.build_torus(2, 3)


@pytest.mark.parametrize("call,error", [
    (lambda: lattice.build_torus(True, True), ValueError),
    (lambda: lattice.build_torus(2, True), ValueError),
    (lambda: clifford.majorana_rep(True), ValueError),
    (lambda: clifford.spin_ops(True), ValueError),
    (lambda: spectrum.bz_grid(True, 2), ValueError),
    (lambda: spectrum.bloch_multiset(J2, True), ValueError),
    (lambda: lattice.check_fundamental_domain(lattice.make_basis(2), True), ValueError),
    (lambda: _T3.index(Vertex(mu=(True, 1), s=0)), KeyError),
    (lambda: _T3.index(Vertex(mu=(0, 1), s=True)), KeyError),
    (lambda: lattice.covering_map(_T3, Vertex(mu=(1, True), s=1)), KeyError),
    (lambda: lattice.vertex_position(lattice.make_basis(2), Vertex((True, 0), 0), 3), ValueError),
    (lambda: lattice.vertex_position(lattice.make_basis(2), Vertex((0, 0), 0), True), ValueError),
])
def test_bool_is_not_an_integer(call, error):
    """bool subclasses int, but True is refused as a size or a coordinate, not read as 1."""
    with pytest.raises(error, match="must be an integer, got True$|not a vertex"):
        call()


def test_sizes_accept_numpy_integers_and_keep_their_range_messages():
    two = np.int64(2)
    got, want = lattice.build_torus(two, two), lattice.build_torus(2, 2)
    assert (got.d, got.N) == (want.d, want.N)
    for name in ("frm", "to", "label"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
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
    # strings, bools and objects are not read as numbers either
    lambda: gap.has_zero(["3", "1", "1"]),
    lambda: gap.polygon_exists(["1", "1", "1"]),
    lambda: spectrum.as_couplings([True, False, True]),
    lambda: spectrum.f_of_q(np.array([1.0, 1.0, 1.0], dtype=object), [0, 0]),
    lambda: spectrum.f_of_q(J2, ["0", "0"]),
    lambda: spectrum.majorana_spectrum(np.zeros((2, 2), dtype=bool)),
    # hoppings may be complex, never strings, bools or objects
    lambda: r_of_q(["1", "1", "1"], [0, 0]),
    lambda: r_of_q([True, True, True], [0, 0]),
    lambda: r_of_q(np.array([1j, 1, 1], dtype=object), [0, 0]),
])
def test_couplings_phases_and_sides_are_never_cast_from_complex(call):
    with pytest.raises(ValueError, match="must be real"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: spectrum.as_phases([0.0, np.inf]), "^phases must be finite$"),
    (lambda: spectrum.as_phases([np.nan, 0.0], d=2), "^phases must be finite$"),
    (lambda: spectrum.bloch_hamiltonian(J2, np.zeros((3, 2))),
     "^bloch_hamiltonian expects a single phase vector$"),
    (lambda: clifford.PauliString(2, x=1) * clifford.PauliString(3, z=1),
     "^qubit counts differ: 2 and 3$"),
])
def test_phases_and_operands_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_dispersion_checks_its_couplings_before_its_phases():
    for J in (5.0, np.array([[1.0, 1.0, 1.0]])):
        with pytest.raises(ValueError, match="^couplings must be a 1-d sequence"):
            spectrum.dispersion(J, [0, 0])


def test_bond_index_is_an_integer_size():
    basis = lattice.make_basis(3)
    with pytest.raises(ValueError, match=r"^bond index must be an integer, got 0\.5$"):
        lattice.check_fundamental_domain(basis, 0.5)
    with pytest.raises(ValueError, match="^bond index must be in 0..3, got 4$"):
        lattice.check_fundamental_domain(basis, 4)
    assert (lattice.check_fundamental_domain(basis, np.int64(2))
            == lattice.check_fundamental_domain(basis, 2))


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


def _off_torus(d, N, **arrays):
    """build_torus(d, N) with its edge arrays replaced by edited copies."""
    torus = lattice.build_torus(d, N)
    edited = {}
    for name, edit in arrays.items():
        a = getattr(torus, name).copy()
        edit(a)
        edited[name] = a
    return dataclasses.replace(torus, **edited)


def _set(i, value):
    def edit(a):
        a[i] = value
    return edit


@pytest.mark.parametrize("make,message", [
    # label 0 took J_3 in the form and passed the spin suite; label 4 raised IndexError
    (lambda: _off_torus(2, 1, label=_set(0, 0)), "edge labels .* must lie in 1..3"),
    (lambda: _off_torus(2, 1, label=_set(2, 4)), "edge labels .* must lie in 1..3"),
    # frm -1 wrapped to the last vertex and gave the strings bits past their
    # 16 qubits; frm 8 raised IndexError, and a shift count went negative
    (lambda: _off_torus(2, 2, frm=_set(0, -1)), "edge endpoints .* must lie in 0..7"),
    (lambda: _off_torus(2, 2, frm=_set(0, 8)), "edge endpoints .* must lie in 0..7"),
    (lambda: _off_torus(2, 2, to=_set(3, 8)), "edge endpoints .* must lie in 0..7"),
    (lambda: dataclasses.replace(lattice.build_torus(2, 2), to=lattice.build_torus(2, 2).to[:-1]),
     "arrays of one length"),
    (lambda: dataclasses.replace(lattice.build_torus(2, 1),
                                 label=lattice.build_torus(2, 1).label.astype(float)),
     "integer arrays"),
    # past 128 edges the ends are read by numpy's min and max
    (lambda: _off_torus(3, 6, label=_set(500, 0)), "edge labels .* must lie in 1..4"),
    (lambda: _off_torus(3, 6, label=_set(863, 5)), "edge labels .* must lie in 1..4"),
    (lambda: _off_torus(2, 12, frm=_set(300, -1)), "edge endpoints .* must lie in 0..287"),
    (lambda: _off_torus(2, 12, to=_set(431, 288)), "edge endpoints .* must lie in 0..287"),
    # sigma^3 sigma^3 on one site is the identity, which build_spin_hamiltonian
    # gave edge 2 as its term, while quadratic_form, with no diagonal, gave it 0
    (lambda: lattice.DiamondTorus(2, 1, [1, 1, 1], [0, 0, 1], [1, 2, 3]),
     "edges of torus d=2, N=1 must join two distinct vertices$"),
    (lambda: _off_torus(2, 12, to=_set(300, 244)), "d=2, N=12 must join two distinct vertices$"),
], ids=["label-0", "label-4", "frm-minus-1", "frm-8", "to-8", "short-to", "float-label",
        "large-label-0", "large-label-5", "large-frm-minus-1", "large-to-288", "self-loop",
        "large-self-loop"])
def test_a_hand_made_torus_with_edges_off_the_torus_is_refused(make, message):
    """Edge arrays that leave the torus, or join a vertex to itself, are refused
    when the torus is made, so no quadratic form, spin model or link operator
    is ever built on them; past 128 edges numpy reads the arrays."""
    with pytest.raises(ValueError, match=message):
        make()


_T21 = lattice.build_torus(2, 1)


@pytest.mark.parametrize("make,message", [
    # link_operators returned 3 strings for a label array of shape (1, 3)
    (lambda: dataclasses.replace(_T21, label=_T21.label.reshape(1, 3)), "1-d integer arrays"),
    # quadratic_form and verify_bloch_equivalence raised TypeError
    (lambda: dataclasses.replace(_T21, d=2.0), r"dimension must be an integer, got 2\.0$"),
    # so they did at N = 1.0, and build_spin_hamiltonian accepted it
    (lambda: dataclasses.replace(_T21, N=1.0), r"torus size must be an integer, got 1\.0$"),
    (lambda: dataclasses.replace(_T21, d=0), "dimension must be >= 1, got 0$"),
    # torus_to_dict returned a dict at N = 0, one with direction -1 at label 0,
    # and one of float endpoints
    (lambda: dataclasses.replace(_T21, N=0), "torus size must be >= 1, got 0$"),
    (lambda: lattice.DiamondTorus(2, 1, [1, 1, 1], [0, 0, 0], [0, 2, 3]),
     "edge labels of torus d=2, N=1 must lie in 1..3$"),
    (lambda: lattice.DiamondTorus(2, 1, [1.0, 1.0, 1.0], [0, 0, 0], [1, 2, 3]), "integer arrays"),
    (lambda: lattice.DiamondTorus(2, 1, [1, 1, 1], [0, 0, 0], [True, True, True]), "integer arrays"),
    (lambda: lattice.DiamondTorus(2, 1, [1, 1, 1], [0, 0, 0], [1, 2]), "one length"),
], ids=["2-d-label", "float-d", "float-N", "d-0", "N-0", "label-0", "float-frm", "bool-label",
        "short-list"])
def test_a_malformed_torus_is_refused_when_it_is_made(make, message):
    """d and N pass `check_size`, and the edge arrays the rest of the torus
    check, in `DiamondTorus` itself: no reader ever sees such a torus."""
    with pytest.raises(ValueError, match=message):
        make()


def test_a_torus_takes_lists_and_keeps_its_arrays_read_only():
    """Lists of ints are taken as arrays; every array is read back from its
    own bytes, so changing an input later leaves the torus as it was, and a
    torus of `build_torus` or `dataclasses.replace` holds three read-only
    arrays over three bytes objects and equals every torus of its content."""
    built = lattice.build_torus(2, 1)
    listed = lattice.DiamondTorus(np.int64(2), np.int64(1), [1, 1, 1], [0, 0, 0], [1, 2, 3])
    assert type(listed.d) is int and type(listed.N) is int
    for name in ("frm", "to", "label"):
        assert np.array_equal(getattr(listed, name), getattr(built, name))
        assert not getattr(listed, name).flags.writeable
    assert np.array_equal(spectrum.quadratic_form(listed, J2), spectrum.quadratic_form(built, J2))
    frm, label = np.array([1, 1, 1]), np.array([1, 2, 3], dtype=np.uint8)
    torus = lattice.DiamondTorus(2, 1, frm, [0, 0, 0], label)
    frm[0], label[0] = 0, 3
    assert torus.frm.tolist() == [1, 1, 1] and torus.label.tolist() == [1, 2, 3]
    assert torus.label.dtype == np.uint8
    for name in ("frm", "to", "label"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(torus, name)[0] = 1
    big = lattice.build_torus(2, 3)
    for t in (big, dataclasses.replace(big), dataclasses.replace(big, d=2)):
        assert t == big and hash(t) == hash(big)
        arrays = (t.frm, t.to, t.label)
        assert all(isinstance(a.base, bytes) and not a.flags.writeable for a in arrays)
        assert len({id(a.base) for a in arrays}) == 3


@pytest.mark.parametrize("rebuilt", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy,
                                     copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_a_pickled_or_copied_torus_is_made_through_its_check(rebuilt):
    """pickle and copy rebuild a torus through its constructor, so the copy
    equals the original, keeps its dtypes, and its arrays are read-only: it
    used to come back writable, and label 0 then took J_3 in the form."""
    uint8 = lattice.DiamondTorus(2, 1, [1, 1, 1], [0, 0, 0], np.array([1, 2, 3], np.uint8))
    for t in (lattice.build_torus(2, 1), lattice.build_torus(2, 12), uint8):
        copied = rebuilt(t)
        assert copied == t and hash(copied) == hash(t)
        for name in ("frm", "to", "label"):
            a = getattr(copied, name)
            assert a.dtype == getattr(t, name).dtype and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        J = np.arange(1.0, t.d + 2)
        assert np.array_equal(spectrum.quadratic_form(copied, J), spectrum.quadratic_form(t, J))


def test_a_torus_equals_no_other_kind_of_object():
    """Against a non-torus `__eq__` returns NotImplemented, so == falls back to
    identity: a torus equals neither a plain object nor its own content tuple."""
    torus = lattice.build_torus(2, 1)
    assert torus.__eq__(object()) is NotImplemented
    assert not torus == object()
    assert torus != object()
    assert torus != torus._content and not torus == torus._content


def test_a_torus_keeps_its_edges_when_the_base_of_a_view_is_written():
    """A read-only view of an array the caller can still write, and a
    broadcast view, are read back into the torus's own bytes: writing the
    base later changes neither the labels nor the hopping form."""
    J = [1, 2, 3]
    labels, one = np.array([1, 2, 3]), np.array([1])
    view = labels[:]
    view.flags.writeable = False
    tori = [lattice.DiamondTorus(2, 1, [1, 1, 1], [0, 0, 0], view),
            lattice.DiamondTorus(2, 1, np.broadcast_to(one, 3), [0, 0, 0], [1, 2, 3])]
    forms = [spectrum.quadratic_form(t, J) for t in tori]
    assert forms[0][1, 0] == 12.0
    labels[0], one[0] = 0, 0
    for t, form in zip(tori, forms):
        assert t.frm.tolist() == [1, 1, 1] and t.label.tolist() == [1, 2, 3]
        assert np.array_equal(spectrum.quadratic_form(t, J), form)


def test_an_endpoint_bound_past_twenty_digits_is_named_not_printed():
    """The endpoint refusal prints 2N^d - 1 while it is short, and names it
    otherwise: at d = 20000 formatting it raised Python's digit-limit error."""
    with pytest.raises(ValueError, match=r"torus d=32, N=2 must lie in 0\.\.8589934591$"):
        lattice.DiamondTorus(32, 2, [-1], [0], [1])
    with pytest.raises(ValueError, match=r"torus d=20000, N=2 must lie in 0\.\.2N\^d-1$"):
        lattice.DiamondTorus(20000, 2, [-1], [0], [1])


def test_the_hopping_form_counts_its_own_entries(monkeypatch):
    """A hand-made torus may claim N^d cells with a few edges: quadratic_form
    refuses (2N^d)^2 entries over the budget before it allocates them, at the
    edge of a budget patched down to 64, and so does the Bloch check on it."""
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", 64)
    fits = lattice.DiamondTorus(1, 4, np.array([4]), np.array([0]), np.array([1]))  # 8 x 8
    A = spectrum.quadratic_form(fits, [1.0, 0.5])
    assert A.shape == (8, 8) and A[4, 0] == 2.0 and A[0, 4] == -2.0
    over = lattice.DiamondTorus(1, 5, np.array([5]), np.array([0]), np.array([1]))  # 10 x 10
    for call in (spectrum.quadratic_form, spectrum.verify_bloch_equivalence):
        with pytest.raises(ValueError, match="hopping form of torus d=1, N=5 is over the budget"):
            call(over, [1.0, 0.5])


def test_the_embedding_counts_its_own_coordinates(monkeypatch):
    """A hand-made torus may claim N^d cells with one edge: torus_to_dict refuses
    its 2N^d (d+1) vertex coordinates over the budget before it makes the basis
    or any array, where it would have built 16,000,000 vertex dicts, and the
    writer `lattice` prints refuses them on its first chunk."""
    over = lattice.DiamondTorus(3, 200, [1], [0], [1])

    def built(d):
        raise AssertionError(f"the embedding made the basis of d={d} before it counted")

    monkeypatch.setattr(lattice, "make_basis", built)
    for first in (lattice.torus_to_dict, lambda t: next(lattice._torus_json_lines(t))):
        with pytest.raises(ValueError, match="embedding of torus d=3, N=200 is over the budget"):
            first(over)
