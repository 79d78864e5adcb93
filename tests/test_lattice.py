import dataclasses
import itertools
import json
from collections import defaultdict

import numpy as np
import pytest

from kitaev_diamond import lattice


def vertices(t):
    """The torus's vertices in index order: lexicographic in (s, mu)."""
    cells = list(itertools.product(range(t.N), repeat=t.d))
    return [lattice.Vertex(mu, s) for s in (0, 1) for mu in cells]


def edges(t):
    """The torus's edge arrays read as Edge tuples, in edge order."""
    return [lattice.Edge(f, to, label - 1, label)
            for f, to, label in zip(t.frm.tolist(), t.to.tolist(), t.label.tolist())]


def test_basis_shapes_and_zero_sum():
    for d in range(1, 9):
        b = lattice.make_basis(d)
        assert b.alpha.shape == (d, d + 1)
        assert b.beta.shape == (d + 1, d + 1)
        # alpha_i = e_i - e_{d+1}
        for i in range(d):
            expected = np.zeros(d + 1)
            expected[i] = 1.0
            expected[d] = -1.0
            assert np.array_equal(b.alpha[i], expected)
        # rows sum to zero coordinate-wise and the whole frame sums to zero
        assert np.allclose(b.beta.sum(axis=1), 0.0, atol=1e-13)
        assert np.allclose(b.beta.sum(axis=0), 0.0, atol=1e-13)


def test_beta_norms_and_angles():
    """All beta_i have |beta|^2 = d/(d+1) and mutual dot -1/(d+1)."""
    for d in range(1, 9):
        b = lattice.make_basis(d)
        gram = b.beta @ b.beta.T
        want = -np.ones((d + 1, d + 1)) / (d + 1)
        np.fill_diagonal(want, d / (d + 1))
        assert np.allclose(gram, want, atol=1e-13)


def test_dual_basis_pairing():
    for d in range(1, 7):
        b = lattice.make_basis(d)
        # beta_1..beta_d are the dual basis, in the zero-sum hyperplane
        assert np.allclose(b.beta[1:] @ b.alpha.T, np.eye(d), atol=1e-12)
        assert np.allclose(b.beta[1:].sum(axis=1), 0.0, atol=1e-12)


def test_base_graph():
    g = lattice.base_graph(3)
    assert g.d == 3
    assert g.vertices == (0, 1)
    assert g.labels == (1, 2, 3, 4)


def test_torus_counts():
    for d, N in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        t = lattice.build_torus(d, N)
        # the edges' endpoints are the 2 N^d vertices
        assert np.union1d(t.frm, t.to).tolist() == list(range(2 * N**d))
        assert t.frm.shape == t.to.shape == t.label.shape == ((d + 1) * N**d,)
        assert t.n_cells == N**d
    for name in ("frm", "to", "label"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(t, name)[0] = 0


def test_place_values_are_the_powers():
    """One running product gives the powers N^(d-1), ..., 1 exactly."""
    def powers(N, d):
        return [N**k for k in range(d - 1, -1, -1)]

    for N in range(1, 6):
        for d in range(0, 9):
            assert lattice.place_values(N, d) == powers(N, d)
    for N, d in ((1, 100000), (2, 62), (3, 70)):
        w = lattice.place_values(N, d)
        assert w == powers(N, d) and all(type(v) is int for v in w)


def test_torus_vertex_order_and_index():
    t = lattice.build_torus(2, 3)
    # s=0 block first, cells in lexicographic order
    assert t.index(lattice.Vertex(mu=(0, 0), s=0)) == 0
    assert t.index(lattice.Vertex(mu=(0, 1), s=0)) == 1
    assert t.index(lattice.Vertex(mu=(0, 0), s=1)) == 9
    assert lattice.place_values(3, 4) == [27, 9, 3, 1]
    # 70 coordinates: more axes than one numpy array may have
    for d, N in ((2, 3), (3, 4), (70, 1)):
        t = lattice.build_torus(d, N)
        for i, v in enumerate(vertices(t)):
            assert t.index(v) == i


def test_torus_regular_and_properly_coloured():
    for d, N in itertools.product((2, 3, 4), (1, 2, 3)):
        t = lattice.build_torus(d, N)
        incident = defaultdict(list)
        vs = vertices(t)
        for e in edges(t):
            assert vs[e.frm].s == 1
            assert vs[e.to].s == 0
            incident[e.frm].append(e.label)
            incident[e.to].append(e.label)
        for labels in incident.values():
            assert sorted(labels) == list(range(1, d + 2))


def test_torus_edge_directions():
    for d, N in ((2, 2), (3, 3), (1, 5), (4, 1)):
        t = lattice.build_torus(d, N)
        vs = vertices(t)
        for e in edges(t):
            v, w = vs[e.frm], vs[e.to]
            if e.direction == 0:
                assert v.mu == w.mu
            else:
                step = list(v.mu)
                step[e.direction - 1] = (step[e.direction - 1] + 1) % t.N
                assert tuple(step) == w.mu
            assert e.label == e.direction + 1


def test_bipartite_no_same_side_edges():
    t = lattice.build_torus(3, 2)
    vs = vertices(t)
    for e in edges(t):
        assert vs[e.frm].s != vs[e.to].s


def test_build_torus_validation():
    with pytest.raises(ValueError):
        lattice.build_torus(0, 2)
    with pytest.raises(ValueError):
        lattice.build_torus(2, 0)


def test_covering_map():
    t = lattice.build_torus(2, 2)
    assert lattice.covering_map(t, lattice.Vertex(mu=(1, 1), s=0)) == 0
    assert lattice.covering_map(t, lattice.Vertex(mu=(0, 1), s=1)) == 1
    # a vertex given with numpy ints is indexed and projected to Python ints,
    # which json writes (it refuses numpy's int64)
    index = t.index(lattice.Vertex((np.int64(1), 0), 1))
    base = lattice.covering_map(t, lattice.Vertex((0, 0), np.int64(1)))
    assert json.dumps([index, base]) == "[6, 1]"
    for e in edges(t):
        assert lattice.covering_map(t, e) == e.direction
    with pytest.raises(KeyError):
        lattice.covering_map(t, lattice.Vertex(mu=(5, 0), s=0))
    # edge 1 of the (2, 2) torus is Edge(4, 2, 1, 2); each field changed is foreign
    assert lattice.covering_map(t, lattice.Edge(4, 2, 1, 2)) == 1
    for e in (lattice.Edge(4, 3, 1, 2), lattice.Edge(4, 2, 1, 3), lattice.Edge(4, 2, 3, 4),
              lattice.Edge(3, 2, 1, 2), lattice.Edge(8, 2, 1, 2), lattice.Edge(4, 2, -1, 0),
              lattice.Edge(4.0, 2, 1, 2), lattice.Edge(4, 2, True, 2), lattice.Edge(4, 2, 1, "2"),
              lattice.Edge(np.int64(2**62), 2, 1, 2)):
        with pytest.raises(KeyError):
            lattice.covering_map(t, e)
    with pytest.raises(TypeError):
        lattice.covering_map(t, "not a cell")


def test_covering_map_finds_the_edges_of_any_torus():
    """An edge is found by its frm, to and label, not by build_torus's layout:
    on the (2, 2) torus with edge 0 cut, Edge(4, 2, 1, 2) is the first edge,
    and on the torus with its edges reversed every edge is still found."""
    t = lattice.build_torus(2, 2)
    cut = dataclasses.replace(t, frm=t.frm[1:], to=t.to[1:], label=t.label[1:])
    assert lattice.covering_map(cut, lattice.Edge(4, 2, 1, 2)) == 1
    flipped = dataclasses.replace(t, frm=t.frm[::-1], to=t.to[::-1], label=t.label[::-1])
    for torus in (cut, flipped):
        for e in edges(torus):
            assert lattice.covering_map(torus, e) == e.direction
    # the cut edge is foreign to the cut torus, and a direction must be its label - 1
    for e in (edges(t)[0], lattice.Edge(4, 2, 2, 2)):
        with pytest.raises(KeyError):
            lattice.covering_map(cut, e)


def test_vertex_position():
    b = lattice.make_basis(2)
    origin = lattice.vertex_position(b, lattice.Vertex(mu=(0, 0), s=0), 2)
    assert np.array_equal(origin, np.zeros(3))
    shifted = lattice.vertex_position(b, lattice.Vertex(mu=(1, 0), s=0), 2)
    assert np.allclose(shifted, b.alpha[0])
    offset = lattice.vertex_position(b, lattice.Vertex(mu=(0, 0), s=1), 2)
    assert np.allclose(offset, b.p)
    # positions live in the zero-sum hyperplane
    assert abs(offset.sum()) < 1e-13
    # the export's one product gives each vertex's position bit for bit,
    # signed zeros included
    for d, N in ((1, 1), (1, 4), (2, 3), (3, 2), (5, 1)):
        t = lattice.build_torus(d, N)
        b = lattice.make_basis(d)
        doc = lattice.torus_to_dict(t)
        for v, entry in zip(vertices(t), doc["vertices"], strict=True):
            want = lattice.vertex_position(b, v, N).tolist()
            assert list(map(repr, entry["pos"])) == list(map(repr, want))


def test_edge_vectors_are_beta():
    """Each edge of the built torus realises the geometric bond beta_label."""
    for d in (2, 3):
        b = lattice.make_basis(d)
        t = lattice.build_torus(d, 3)
        vs = vertices(t)
        for e in edges(t):
            v, w = vs[e.frm], vs[e.to]
            pv = lattice.vertex_position(b, v, t.N)
            pw = lattice.vertex_position(b, w, t.N)
            delta = pw - pv
            # direction 0 edges step by -p = beta_0; direction i by alpha_i - p,
            # except when the cell index wraps around the torus
            wrapped = e.direction > 0 and w.mu[e.direction - 1] != (
                v.mu[e.direction - 1] + 1
            )
            if not wrapped:
                assert np.allclose(delta, b.beta[e.direction], atol=1e-12)


def test_fundamental_domain_closed_form():
    for d in range(1, 9):
        b = lattice.make_basis(d)
        for i in range(d + 1):
            chk = lattice.check_fundamental_domain(b, i)
            assert all(type(v) is float for v in dataclasses.astuple(chk))
            assert abs(chk.t1 - d / (2 * (d + 1))) < 1e-12
            assert abs(chk.t2 - (d + 2) / (2 * (d + 1))) < 1e-12
            assert 0.0 < chk.t1 < chk.t2 < 1.0
            assert chk.residual1 < 1e-12
            assert chk.residual2 < 1e-12


def test_json_round_trip():
    t = lattice.build_torus(2, 2)
    doc = json.loads(json.dumps(lattice.torus_to_dict(t), indent=2))
    assert doc["d"] == 2 and doc["N"] == 2
    assert len(doc["vertices"]) == 8
    assert len(doc["edges"]) == 12
    v0 = doc["vertices"][0]
    assert set(v0) == {"mu", "s", "pos"}
    e0 = doc["edges"][0]
    assert set(e0) == {"from", "to", "direction", "label"}
    # indices in the document refer back into the vertex list
    for e in doc["edges"]:
        assert 0 <= e["from"] < 8 and 0 <= e["to"] < 8
