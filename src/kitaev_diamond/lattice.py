"""Geometry of the d-dimensional diamond lattice and its finite torus quotients.

The lattice lives in the zero-sum hyperplane W of R^(d+1).  The translation
group is generated by alpha_i = e_i - e_{d+1}; the two sublattices are the
lattice points themselves and their translate by the centering vector p.
Every vertex has d+1 nearest neighbours, reached along the bond vectors
beta_0, ..., beta_d which sum to zero and share a common length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Most array entries (table cells, matrix elements, coordinates) one request
# may allocate.  Each function that builds a grid or a torus counts what it
# would allocate with integer arithmetic and calls check_budget first, so an
# oversized request is refused with ValueError instead of exhausting memory.
ENTRY_BUDGET = 1 << 22
# Exponents and binomial depths are capped here when counting: past it every
# count is over the budget anyway, unless it is exactly 1.
_COUNT_CAP = 64
_INTEGER = (int, np.integer)


def check_budget(entries: int, what: str) -> None:
    """Refuse a request that would allocate more than ENTRY_BUDGET entries."""
    if entries > ENTRY_BUDGET:
        raise ValueError(f"{what} is over the budget of {ENTRY_BUDGET} entries")


def check_size(value, low: int, what: str) -> int:
    """value as an int; refused unless a Python or numpy integer >= low."""
    if not isinstance(value, _INTEGER):
        raise ValueError(f"{what} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return int(value)


def grid_count(n: int, d: int) -> int:
    """n**d for n >= 1, or a number over ENTRY_BUDGET when n**d is.

    The exponent is capped, so a huge d never builds a huge integer.
    """
    return n ** min(d, _COUNT_CAP)


def place_values(N: int, d: int) -> list[int]:
    """N^(d-1), ..., N, 1: every torus and phase grid ranks cell (m_1, ..., m_d)
    as sum_i m_i N^(d-i), row-major, and reads m_i off rank r as r // N^(d-i) % N."""
    return [N**k for k in range(d - 1, -1, -1)]


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
    return isinstance(v.s, _INTEGER) and v.s in (0, 1) and len(v.mu) == d and all(
        isinstance(c, _INTEGER) and 0 <= c < N for c in v.mu)


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


@dataclass(frozen=True)
class DiamondTorus:
    """Finite quotient of the diamond lattice by N times the translation lattice.

    Vertices are ordered lexicographically by (s, mu); edges are generated per
    s=1 vertex in lex order, direction 0..d.  Both orderings are load-bearing:
    they fix the JSON export and the row/column order of quadratic forms.
    """

    d: int
    N: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def index(self, v: Vertex) -> int:
        """Index of a vertex in the stable ordering."""
        if not _is_vertex(v, self.d, self.N):
            raise KeyError(f"not a vertex of this torus: {v}")
        w = place_values(self.N, self.d)
        return v.s * self.n_cells + sum(c * wi for c, wi in zip(v.mu, w))

    @property
    def n_cells(self) -> int:
        return self.N**self.d


def build_torus(d: int, N: int) -> DiamondTorus:
    """Build the torus with 2*N^d vertices and (d+1)*N^d directed edges.

    Direction 0 joins (mu, 1) to (mu, 0); direction i >= 1 joins (mu, 1) to
    (mu + e_i mod N, 0).  With N = 1 this leaves d+1 distinct parallel edges
    between the two remaining vertices.  With the `place_values` w_i, the step
    along e_i adds w_i to the cell's rank, or (1-N) w_i where mu_i wraps, so
    the build costs O(N^d d).  The request counts as the larger of its dense
    hopping form, (2N^d)^2 entries, and its 2N^d * d vertex coordinates, and
    is refused above ENTRY_BUDGET before anything is built.
    """
    d = check_size(d, 1, "dimension")
    N = check_size(N, 1, "torus size")
    order = 2 * grid_count(N, d)
    check_budget(order * max(order, d), f"torus d={d}, N={N}")
    cells = list(itertools.product(range(N), repeat=d))
    vertices = [Vertex(mu, s) for s in (0, 1) for mu in cells]
    L, w = N**d, place_values(N, d)
    edges = []
    for rank, mu in enumerate(cells):
        frm = L + rank
        edges.append(Edge(frm, rank, 0, 1))
        for i, c in enumerate(mu):
            to = rank + w[i] if c < N - 1 else rank - (N - 1) * w[i]
            edges.append(Edge(frm, to, i + 1, i + 2))
    return DiamondTorus(d=d, N=N, vertices=tuple(vertices), edges=tuple(edges))


def covering_map(torus: DiamondTorus, item: Vertex | Edge) -> int:
    """Project a torus vertex to its base vertex (the s bit) or a torus edge
    to its base edge (the direction)."""
    if isinstance(item, Vertex):
        torus.index(item)  # raises on foreign vertices
        return item.s
    if isinstance(item, Edge):
        if item not in torus.edges:
            raise KeyError(f"not an edge of this torus: {item}")
        return item.direction
    raise TypeError(f"expected Vertex or Edge, got {type(item).__name__}")


def vertex_position(basis: LatticeBasis, v: Vertex, N: int) -> np.ndarray:
    """Embedded position sum_i mu_i alpha_i + s*p of a torus-orbit representative."""
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
    if not 0 <= i <= d:
        raise ValueError(f"bond index must be in 0..{d}, got {i}")
    beta_i = basis.beta[i]
    frame = -sum(beta_i - basis.beta[j] for j in range(d + 1) if j != i)
    denom = frame @ frame
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


def torus_to_dict(torus: DiamondTorus) -> dict:
    """JSON-ready description of the torus with embedded vertex positions,
    mu @ alpha + s*p for all vertices in one product.  The entries of alpha
    are 0 and +-1, so each sum in mu @ alpha is an exact integer."""
    basis = make_basis(torus.d)
    mu = np.array([v.mu for v in torus.vertices], dtype=float)
    s = np.array([v.s for v in torus.vertices], dtype=float)
    pos = (mu @ basis.alpha + s[:, None] * basis.p).tolist()
    return {
        "d": torus.d,
        "N": torus.N,
        "vertices": [
            {"mu": list(v.mu), "s": v.s, "pos": x} for v, x in zip(torus.vertices, pos)
        ],
        "edges": [
            {"from": e.frm, "to": e.to, "direction": e.direction, "label": e.label}
            for e in torus.edges
        ],
    }
