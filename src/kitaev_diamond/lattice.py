"""Geometry of the d-dimensional diamond lattice and its finite torus quotients.

The lattice lives in the zero-sum hyperplane W of R^(d+1).  The translation
group is generated by alpha_i = e_i - e_{d+1}; the two sublattices are the
lattice points themselves and their translate by the centering vector p.
Every vertex has d+1 nearest neighbours, reached along the bond vectors
beta_0, ..., beta_d which sum to zero and share a common length.

The torus's JSON is here: `torus_to_dict`, and the text `lattice` prints (`_torus_json_lines`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Most array entries (table cells, matrix elements, coordinates) one request
# may allocate.  Each function that builds a grid or a torus counts what it
# would allocate with integer arithmetic and calls check_budget first, so an
# oversized request is refused with ValueError instead of exhausting memory.
ENTRY_BUDGET = 1 << 22
# Entries each bounded memo keeps, least recently used first out: spinham's memos
# of spin strings and of identity-check facts, and gap's of restart offsets.  The
# 14 one-cell spin tori d = 2..15 fit, so a pass over them hits.
MEMO_SIZE = 16
# Rows of a table, or records of the torus's JSON, formatted per block.
ROW_BLOCK = 1 << 14
# Exponents and binomial depths are capped here when counting: past it every
# count is over the budget anyway, unless it is exactly 1.
_COUNT_CAP = 64


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer; bool is refused."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_budget(entries: int, what: str) -> None:
    """Refuse a request that would allocate more than ENTRY_BUDGET entries."""
    if entries > ENTRY_BUDGET:
        raise ValueError(f"{what} is over the budget of {ENTRY_BUDGET} entries")


def check_size(value, low: int, what: str) -> int:
    """value as an int; refused unless a Python or numpy integer >= low (`_is_int`)."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return int(value)


def grid_count(n: int, d: int) -> int:
    """n**d for n >= 1, the exponent capped at _COUNT_CAP = 64 so a huge d
    builds no huge integer.  Past the cap the count is n**64: 1 for n = 1,
    and at least 2**64 for n >= 2, so against any cap below 2**64 it gets
    the verdict of the exact count."""
    return n ** min(d, _COUNT_CAP)


def place_values(N: int, d: int) -> list[int]:
    """N^(d-1), ..., N, 1: every torus and phase grid ranks cell (m_1, ..., m_d)
    as sum_i m_i N^(d-i), row-major, and reads m_i off rank r as r // N^(d-i) % N."""
    w = [1] * d  # one running product, none at all for N = 1
    for k in range(d - 2, -1, -1) if N != 1 else ():
        w[k] = w[k + 1] * N
    return w


def simplex_count(d: int, r: int) -> int:
    """C(r+d, d), the compositions of r into d+1 parts, or a number over
    ENTRY_BUDGET when that is.

    The depth of the binomial is capped, so huge d and r stay cheap.
    """
    return math.comb(r + d, min(r, d, _COUNT_CAP))


@dataclass(frozen=True)
class LatticeBasis:
    """Basis data for the d-dimensional diamond lattice embedded in R^(d+1).

    Attributes
    ----------
    d : dimension of the lattice (>= 1)
    alpha : (d, d+1) array, translation generators alpha_i = e_i - e_{d+1}
    p : (d+1,) array, sublattice offset p = (alpha_1 + ... + alpha_d)/(d+1)
    beta : (d+1, d+1) array, bond vectors; row 0 is -p, row i is alpha_i - p
    """

    d: int
    alpha: np.ndarray
    p: np.ndarray
    beta: np.ndarray


def make_basis(d: int) -> LatticeBasis:
    """Construct the translation generators, bond vectors and dual basis.

    All vectors lie in the zero-sum hyperplane of R^(d+1).  The bond vectors
    beta_1..beta_d are already the dual basis: <alpha_j, alpha_i> = 1 +
    delta_ij and <p, alpha_i> = 1, so <beta_j, alpha_i> = delta_ij.  The
    (2d+1)(d+1) entries of alpha and beta are refused above ENTRY_BUDGET.
    """
    d = check_size(d, 1, "dimension")
    check_budget((2 * d + 1) * (d + 1), f"lattice basis d={d}")
    alpha = np.eye(d, d + 1)
    alpha[:, d] = -1.0
    p = alpha.sum(axis=0) / (d + 1)
    beta = np.vstack([-p, alpha - p])
    return LatticeBasis(d=d, alpha=alpha, p=p, beta=beta)


class Vertex(NamedTuple):
    """Torus vertex: integer coordinates mod N plus a sublattice bit.

    s = 0 is the sublattice at the lattice points, s = 1 the translate by p.
    """

    mu: tuple[int, ...]
    s: int


def _is_vertex(v: Vertex, d: int, N: int) -> bool:
    """Whether v has d integer coordinates in 0..N-1 and an integer bit s in {0, 1}."""
    return _is_int(v.s) and v.s in (0, 1) and len(v.mu) == d and all(
        _is_int(c) and 0 <= c < N for c in v.mu)


class Edge(NamedTuple):
    """Directed torus edge from the s=1 endpoint to the s=0 endpoint.

    `direction` in 0..d selects the bond vector beta_direction;
    `label` = direction + 1 is the coupling index the edge carries.
    """

    frm: int
    to: int
    direction: int
    label: int


@dataclass(frozen=True)
class BaseGraph:
    """Quotient multigraph: two vertices joined by d+1 parallel labelled edges."""

    d: int
    vertices: tuple[int, int]
    labels: tuple[int, ...]


def base_graph(d: int) -> BaseGraph:
    d = check_size(d, 1, "dimension")
    return BaseGraph(d=d, vertices=(0, 1), labels=tuple(i + 1 for i in range(d + 1)))


@dataclass(frozen=True, eq=False, init=False)
class DiamondTorus:
    """Finite quotient of the diamond lattice by N times the translation lattice.

    Vertex s * N^d + r lies on sublattice s in the cell of rank r
    (`place_values`): lexicographic in (s, mu).  Edge k, with coupling index
    label[k] = direction + 1, runs from frm[k] (s=1) to to[k] (s=0), per s=1
    vertex in rank order, direction 0..d.  Both orders fix the JSON export and
    the row/column order of quadratic forms.  A torus checks itself when made: d and N
    pass `check_size` (>= 1); frm, to and label, lists taken as arrays, are 1-d integer
    arrays of one length, labels in 1..d+1, endpoints in 0..2N^d-1, no edge from a vertex
    to itself.  Each array is then read back from its own dtype and bytes, so it is
    read-only and nothing the caller holds can change it.  That content, d, N and the
    three (dtype, bytes) pairs, is the torus's identity: `==` and `hash` read it, and
    `pickle`, `copy` and `dataclasses.replace` rebuild the torus through this check.
    """

    d: int
    N: int
    frm: np.ndarray
    to: np.ndarray
    label: np.ndarray

    # the check is __init__, which sets each field once: a frozen dataclass's own
    # __init__ and a __post_init__ would set them twice, at about 2 us a build
    def __init__(self, d: int, N: int, frm, to, label):
        d, N = check_size(d, 1, "dimension"), check_size(N, 1, "torus size")
        frm, to, label = arrays = [np.asarray(a) for a in (frm, to, label)]
        if not (frm.shape == to.shape == label.shape == (label.size,)
                and frm.dtype.kind in "iu" and to.dtype.kind in "iu" and label.dtype.kind in "iu"):
            raise ValueError("a torus's frm, to and label must be 1-d integer arrays of one length")
        # the ends as Python ints, which no dtype wraps; sorted lists beat numpy on few edges
        if label.size <= 128:
            frms, tos = frm.tolist(), to.tolist()
            labels, ends = sorted(label.tolist()), sorted(frms + tos)
            loop = any(map(int.__eq__, frms, tos))
        else:
            labels = [int(label.min()), int(label.max())]
            ends = [min(int(frm.min()), int(to.min())), max(int(frm.max()), int(to.max()))]
            loop = bool((frm == to).any())
        if labels and not 1 <= labels[0] <= labels[-1] <= d + 1:
            raise ValueError(f"edge labels of torus d={d}, N={N} must lie in 1..{d + 1}")
        if ends and not 0 <= ends[0] <= ends[-1] < 2 * grid_count(N, d):
            # 2N^d - 1 is printed while it has at most 20 digits
            top = 2 * N**d - 1 if d * N.bit_length() <= 64 else "2N^d-1"
            raise ValueError(f"edge endpoints of torus d={d}, N={N} must lie in 0..{top}")
        if loop:
            raise ValueError(f"edges of torus d={d}, N={N} must join two distinct vertices")
        content = [(a.dtype, a.tobytes()) for a in arrays]
        # bytes are immutable, so each array read back from them is read-only
        frm, to, label = [np.frombuffer(data, dtype) for dtype, data in content]
        vars(self).update(d=d, N=N, frm=frm, to=to, label=label, _content=(d, N, *content))

    def __eq__(self, other):
        if not isinstance(other, DiamondTorus):
            return NotImplemented
        return self._content == other._content

    def __hash__(self):
        return hash(self._content)

    def __reduce__(self):
        return type(self), (self.d, self.N, self.frm, self.to, self.label)

    def index(self, v: Vertex) -> int:
        """Index of a vertex in the stable ordering, a Python int."""
        if not _is_vertex(v, self.d, self.N):
            raise KeyError(f"not a vertex of this torus: {v}")
        w = place_values(self.N, self.d)
        return int(v.s) * self.n_cells + sum(int(c) * wi for c, wi in zip(v.mu, w))

    @property
    def n_cells(self) -> int:
        return self.N**self.d


def build_torus(d: int, N: int) -> DiamondTorus:
    """Build the torus with 2*N^d vertices and (d+1)*N^d directed edges.

    Direction 0 joins (mu, 1) to (mu, 0); direction i >= 1 joins (mu, 1) to
    (mu + e_i mod N, 0).  With N = 1 this leaves d+1 distinct parallel edges
    between the two remaining vertices.  With the `place_values` w_i, the step
    along e_i adds w_i to the cell's rank, or (1-N) w_i where mu_i wraps, so
    the build costs O(N^d d).  Its three edge arrays, 3(d+1)N^d entries, are
    refused above ENTRY_BUDGET before anything is built; its 2N^d (d+1) vertex
    coordinates, which `torus_to_dict` counts, are fewer.
    """
    d = check_size(d, 1, "dimension")
    N = check_size(N, 1, "torus size")
    check_budget(3 * (d + 1) * grid_count(N, d), f"torus d={d}, N={N}")
    L = N**d
    rank = np.arange(L)[:, None]
    # frm, to and label, each as the (cell, direction) table
    edges = np.empty((3, L, d + 1), dtype=np.int64)
    edges[0], edges[1], edges[2] = L + rank, rank, np.arange(1, d + 2)
    if N > 1:  # with one cell, every step wraps back to it
        w = np.array(place_values(N, d))
        edges[1, :, 1:] += np.where(rank // w % N < N - 1, w, (1 - N) * w)
    return DiamondTorus(d, N, *edges.reshape(3, -1))


def covering_map(torus: DiamondTorus, item: Vertex | Edge) -> int:
    """Project a torus vertex to its base vertex (the s bit), or a torus edge, found by
    its frm, to and label, to its base edge (the direction, label - 1)."""
    if isinstance(item, Vertex):
        torus.index(item)  # raises on foreign vertices
        return int(item.s)
    if isinstance(item, Edge):
        if all(map(_is_int, item)):
            frm, to, direction, label = map(int, item)
            if direction == label - 1 and np.any(
                    (torus.frm == frm) & (torus.to == to) & (torus.label == label)):
                return direction
        raise KeyError(f"not an edge of this torus: {item}")
    raise TypeError(f"expected Vertex or Edge, got {type(item).__name__}")


def vertex_position(basis: LatticeBasis, v: Vertex, N: int) -> np.ndarray:
    """Embedded position sum_i mu_i alpha_i + s*p of a torus-orbit representative."""
    N = check_size(N, 1, "torus size")
    if not _is_vertex(v, basis.d, N):
        raise ValueError(f"not a vertex of the torus of size {N}: {v}")
    return np.asarray(v.mu, dtype=float) @ basis.alpha + v.s * basis.p


@dataclass(frozen=True)
class FundamentalDomainCheck:
    """Coefficients placing the two sublattice seeds inside the unit cell."""

    t1: float
    t2: float
    residual1: float
    residual2: float


def check_fundamental_domain(basis: LatticeBasis, i: int) -> FundamentalDomainCheck:
    """Express the two seed points along bond i in the edge-difference frame.

    The points -(d/2)*beta_i and -(d/2+1)*beta_i are written as
    -t * sum_{j != i} (beta_i - beta_j); both coefficients must land strictly
    inside (0, 1), which certifies the seeds sit in the open fundamental cell.
    """
    d = basis.d
    i = check_size(i, 0, "bond index")
    if i > d:
        raise ValueError(f"bond index must be in 0..{d}, got {i}")
    beta_i = basis.beta[i]
    frame = -sum(beta_i - basis.beta[j] for j in range(d + 1) if j != i)
    denom = float(frame @ frame)
    p1 = -(d / 2.0) * beta_i
    p2 = p1 - beta_i
    t1 = float(p1 @ frame) / denom
    t2 = float(p2 @ frame) / denom
    res1 = float(np.linalg.norm(p1 - t1 * frame))
    res2 = float(np.linalg.norm(p2 - t2 * frame))
    if not (0.0 < t1 < 1.0 and 0.0 < t2 < 1.0):
        raise AssertionError(
            f"fundamental-domain coefficients escaped (0,1): t1={t1}, t2={t2}"
        )
    return FundamentalDomainCheck(t1=t1, t2=t2, residual1=res1, residual2=res2)


def _vertex_table(torus: DiamondTorus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each vertex's mu, the digits of its cell rank, its s, and its position mu @ alpha + s*p,
    all in one product; refused first when the 2N^d (d+1) coordinates are over ENTRY_BUDGET."""
    d, N = torus.d, torus.N
    check_budget(2 * grid_count(N, d) * (d + 1), f"embedding of torus d={d}, N={N}")
    basis = make_basis(d)
    L = torus.n_cells
    mu = np.arange(2 * L)[:, None] % L // np.array(place_values(N, d)) % N
    s = np.repeat([0, 1], L)
    return mu, s, mu.astype(float) @ basis.alpha + s[:, None] * basis.p


def torus_to_dict(torus: DiamondTorus) -> dict:
    """JSON-ready description of the torus, its vertices from `_vertex_table`."""
    mu, s, pos = _vertex_table(torus)
    return {
        "d": torus.d, "N": torus.N,
        "vertices": [
            {"mu": m, "s": b, "pos": x} for m, b, x in zip(mu.tolist(), s.tolist(), pos.tolist())
        ],
        "edges": [
            {"from": f, "to": t, "direction": label - 1, "label": label}
            for f, t, label in zip(torus.frm.tolist(), torus.to.tolist(), torus.label.tolist())
        ],
    }


def _torus_json_lines(torus: DiamondTorus):
    """json.dumps(torus_to_dict(torus), indent=2) without the dict: json's frame with both
    lists empty, then each list's records, from one template filled from `_vertex_table` or
    the edge arrays, in blocks of up to ROW_BLOCK; an empty list is json's "[]"."""
    d, N = torus.d, torus.N
    mu, s, pos = _vertex_table(torus)
    head, middle, tail = json.dumps(dict(d=d, N=N, vertices=[], edges=[]), indent=2).split("[]")
    lists = [({"mu": ["%r"] * d, "s": "%r", "pos": ["%r"] * (d + 1)}, [*mu.T, s, *pos.T], middle),
             (dict.fromkeys(["from", "to", "direction", "label"], "%r"),
              [torus.frm, torus.to, torus.label - 1, torus.label], tail)]
    text = head
    for slots, columns, after in lists:
        # a record two levels deep; json prints an int or a finite float as its repr
        record = "    " + json.dumps(slots, indent=2).replace('"%r"', "%r").replace("\n", "\n    ")
        n = len(columns[0])
        if n:
            yield text + "["
        for start in range(0, n, ROW_BLOCK):
            rows = zip(*[c[start : start + ROW_BLOCK].tolist() for c in columns])
            yield ",\n".join(map(record.__mod__, rows)) + ("," if start + ROW_BLOCK < n else "")
        text = ("  ]" if n else text + "[]") + after
    yield text
