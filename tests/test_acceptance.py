"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Every criterion is a standalone test so the suite reports them separately;
the verdict lines are written past pytest's capture so they always show up
in the run log.
"""

import itertools
import sys
import time
from collections import defaultdict

import numpy as np

from kitaev_diamond import clifford, gap, lattice, spectrum, spinham, tightbinding

EPS = float(np.finfo(float).eps)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    sys.__stdout__.write(f"criterion {num} ({name}): {verdict}{suffix}\n")
    sys.__stdout__.flush()


def test_criterion_1_bloch_torus_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for d, N in itertools.product((2, 3, 4), (2, 3, 4)):
        torus = lattice.build_torus(d, N)
        for _ in range(10):
            J = rng.uniform(-2.0, 2.0, size=d + 1)
            dev = spectrum.verify_bloch_equivalence(torus, J)
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    report(1, "Bloch-torus spectral equivalence", ok,
           f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8, worst
    assert elapsed < 60.0, elapsed


def test_criterion_2_honeycomb_reproduction():
    J = np.array([1.0, 1.0, 1.0])
    xi0 = spectrum.dispersion(J, np.zeros(2)).xi_plus
    exact_top = float(xi0) == 6.0
    cone = spectrum.dispersion(J, np.array([2 * np.pi / 3, 4 * np.pi / 3])).xi_plus
    cone_ok = cone < 1e-12

    # the published band picture: exactly two conical minima on a 64x64 grid
    n = 64
    rows = "\n".join(spectrum.band_csv_lines(J, n)).split("\n")[1:]
    vals = np.array([float(r.split(",")[2]) for r in rows]).reshape(n, n)
    minima = []
    for i in range(n):
        for j in range(n):
            v = vals[i, j]
            neighbours = [
                vals[(i + di) % n, (j + dj) % n]
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                if (di, dj) != (0, 0)
            ]
            if all(v < w for w in neighbours):
                minima.append(v)
    two_cones = len(minima) == 2 and all(v < 0.5 for v in minima)

    ok = exact_top and cone_ok and two_cones
    report(2, "honeycomb band reproduction", ok,
           f"xi(0,0)={float(xi0)}, xi(cone)={cone:.1e}, minima={len(minima)}")
    assert exact_top, xi0
    assert cone_ok, cone
    assert two_cones, minima


def test_criterion_3_zero_classifier_vs_numeric():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    checked = 0
    disagreements = 0
    # on gapped draws the minimum is the closed form 2*(2 max|J| - sum|J|);
    # worst oracle deviation from it, in units of eps * sum|J|
    worst_excess = 0.0
    for d in (2, 3, 4):
        for _ in range(1000):
            J = rng.uniform(-2.0, 2.0, size=d + 1)
            total = float(np.sum(np.abs(J)))
            margin = total - 2.0 * float(np.max(np.abs(J)))
            if abs(margin) < 1e-3 * total:
                continue
            numeric = gap.min_gap_numeric(J, grid_n=48)
            if gap.has_zero(J) != (numeric < 1e-4 * total):
                disagreements += 1
            if margin < 0.0:
                closed = 2.0 * (2.0 * float(np.max(np.abs(J))) - total)
                worst_excess = max(worst_excess, abs(numeric - closed) / (EPS * total))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and worst_excess <= 16.0 and elapsed < 120.0
    report(3, "zero classifier vs numeric oracle", ok,
           f"{checked} draws, {disagreements} disagreements, gapped draws within "
           f"{worst_excess:.1f} eps of the closed form, {elapsed:.1f}s")
    assert disagreements == 0
    assert worst_excess <= 16.0, worst_excess
    assert elapsed < 120.0, elapsed


def test_criterion_4_constructive_zero_soundness():
    rng = np.random.default_rng(104)

    # polygon closure on 10^4 admissible side-length draws
    worst_closure = 0.0
    done = 0
    while done < 10_000:
        n = int(rng.integers(3, 9))
        a = rng.uniform(0.01, 10.0, size=n)
        if 2.0 * a.max() >= a.sum():
            continue
        theta = gap.polygon_angles(a)
        worst_closure = max(
            worst_closure, abs(np.sum(a * np.exp(1j * theta))) / a.sum()
        )
        done += 1
    closure_ok = worst_closure < 1e-12

    # every claimed zero is a zero, including boundary and sparse draws
    worst_f = 0.0
    tested = 0
    for _ in range(3000):
        d = int(rng.integers(1, 6))
        J = rng.uniform(-2.0, 2.0, size=d + 1)
        style = rng.integers(0, 4)
        if style == 1:  # zero out some couplings
            J[rng.random(d + 1) < 0.4] = 0.0
        elif style == 2:  # exact boundary: one magnitude equals the rest
            k = int(rng.integers(0, d + 1))
            rest = np.delete(np.abs(J), k).sum()
            J[k] = np.sign(J[k]) * rest if J[k] else rest
        if not gap.has_zero(J):
            continue
        phi = gap.find_zero(J)
        total = float(np.sum(np.abs(J)))
        if total == 0.0:
            continue
        worst_f = max(worst_f, abs(spectrum.f_of_q(J, phi)) / total)
        tested += 1
    sound_ok = worst_f < 1e-9

    ok = closure_ok and sound_ok
    report(4, "constructive zero soundness", ok,
           f"closure {worst_closure:.1e}, |f(zero)|/sum {worst_f:.1e} on {tested} draws")
    assert closure_ok, worst_closure
    assert sound_ok, worst_f


def test_criterion_5_complementarity_exhaustive():
    bad = 0
    total = 0
    for d in (2, 3, 4):
        for x in gap.barycentric_grid(d, 40):
            if gap.gapped_region(x) == gap.has_zero(x):
                bad += 1
            total += 1
    ok = bad == 0
    report(5, "gapped region complementarity", ok,
           f"{total} rational points, {bad} disagreements")
    assert bad == 0


def test_criterion_6_clifford_suite():
    def generators(k):
        return [s.to_dense() for s in clifford.majorana_rep(k)]

    # exact anticommutation through k = 12
    anti_exact = True
    for k in range(1, 13):
        c = generators(k)
        eye2 = 2.0 * np.eye(2 ** (k // 2), dtype=complex)
        for i in range(k):
            for j in range(k):
                want = eye2 if i == j else np.zeros_like(eye2)
                if not np.array_equal(c[i] @ c[j] + c[j] @ c[i], want):
                    anti_exact = False

    # ladder relations to 1e-14, for a_i = (c_{2i-1} + i c_{2i})/2 and the
    # odd generator b
    ladder_worst = 0.0
    for k in range(2, 13):
        c = generators(k)
        m = k // 2
        a = [0.5 * (c[2 * i] + 1j * c[2 * i + 1]) for i in range(m)]
        a_dag = [0.5 * (c[2 * i] - 1j * c[2 * i + 1]) for i in range(m)]
        b = c[-1] if k % 2 == 1 else None
        eye = np.eye(2**m, dtype=complex)
        for i in range(m):
            for j in range(m):
                ladder_worst = max(
                    ladder_worst,
                    np.max(np.abs(a[i] @ a[j] + a[j] @ a[i])),
                    np.max(np.abs(
                        a[i] @ a_dag[j] + a_dag[j] @ a[i]
                        - (eye if i == j else 0.0)
                    )),
                )
            if b is not None:
                ladder_worst = max(
                    ladder_worst,
                    np.max(np.abs(a[i] @ b + b @ a[i])),
                    np.max(np.abs(a_dag[i] @ b + b @ a_dag[i])),
                )
        if b is not None:
            ladder_worst = max(ladder_worst, np.max(np.abs(b @ b - eye)))
    ladder_ok = ladder_worst < 1e-14

    # odd-generator chirality is the identity, bitwise
    chirality_exact = True
    for k in (1, 3, 5, 7, 9, 11):
        eye = np.eye(2 ** (k // 2), dtype=complex)
        prod = eye
        for c in generators(k):
            prod = prod @ c
        if not np.array_equal((1j) ** ((k - 1) // 2) * prod, eye):
            chirality_exact = False

    # D eigenspace dimension and the two-dimensional anchor
    nu_ok = all(
        int(np.sum(np.real(np.diag(clifford.d_operator(d).to_dense())) > 0))
        == 2 ** (d // 2)
        for d in range(2, 7)
    )
    anchor_ok = np.array_equal(
        clifford.d_operator(2).to_dense(), -np.linalg.multi_dot(generators(4))
    )

    ok = anti_exact and ladder_ok and chirality_exact and nu_ok and anchor_ok
    report(6, "Clifford algebra suite", ok,
           f"ladder worst {ladder_worst:.1e}, anchors {anchor_ok}")
    assert anti_exact
    assert ladder_ok, ladder_worst
    assert chirality_exact
    assert nu_ok
    assert anchor_ok


def test_criterion_7_operator_identities():
    rng = np.random.default_rng(107)
    worst = 0.0
    all_exact = True
    tori = 0
    for d in range(2, 32):
        torus = lattice.build_torus(d, 1)
        if not spinham.hamiltonian_fits(torus):
            break
        tori += 1
        for _ in range(20):
            J = rng.uniform(-2.0, 2.0, size=d + 1)
            system = spinham.build_spin_hamiltonian(torus, J)
            res = spinham.verify_operator_identities(system)
            worst = max(worst, res["max_residual"])
            if not (res["links_exact_pm_one"] and res["parity_diagonal_pm_one"]):
                all_exact = False
    ok = worst < 1e-12 and all_exact and tori > 0
    report(7, "operator identities on spin tori", ok,
           f"{tori} tori x 20 draws, worst residual {worst:.1e}")
    assert worst < 1e-12, worst
    assert all_exact
    assert tori == 14  # every dimension through d = 15 fits in 2^16


def test_criterion_7_identities_on_the_largest_admitted_tori():
    # the model is sized by its (d+1) N^d edge strings of 2 N^d (d//2 + 1)
    # qubits; each of these tori is the last its d admits within 2^22
    rng = np.random.default_rng(117)
    t0 = time.perf_counter()
    failed = []
    for d, N in ((2047, 1), (1, 1024), (2, 24), (3, 8)):
        J = rng.uniform(-2.0, 2.0, size=d + 1)
        system = spinham.build_spin_hamiltonian(lattice.build_torus(d, N), J)
        res = spinham.verify_operator_identities(system)
        if not (res["max_residual"] == 0.0 and res["links_exact_pm_one"]
                and res["parity_diagonal_pm_one"]):
            failed.append((d, N))
    elapsed = time.perf_counter() - t0
    report(7, "operator identities on the largest admitted tori", not failed,
           f"4 tori, failed {failed}, {elapsed:.1f}s")
    assert not failed


def test_criterion_8_tight_binding_identification():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 6))
        J = rng.uniform(-3.0, 3.0, size=d + 1)
        phi = rng.uniform(0.0, 2 * np.pi, size=d)
        xi = float(spectrum.dispersion(J, phi).xi_plus)
        e_plus, _ = tightbinding.tb_energy(2.0 * J, phi)
        dev = abs(xi - float(e_plus)) / (1.0 + float(np.sum(np.abs(J))))
        worst = max(worst, dev)
    ok = worst < 1e-14
    report(8, "tight-binding identification", ok, f"worst rel dev {worst:.1e}")
    assert worst < 1e-14, worst


def test_criterion_9_lattice_geometry():
    geom_ok = True
    for d in range(1, 9):
        b = lattice.make_basis(d)
        if np.max(np.abs(b.beta.sum(axis=0))) > 1e-12:
            geom_ok = False
        if np.max(np.abs(np.sum(b.beta**2, axis=1) - d / (d + 1))) > 1e-12:
            geom_ok = False

    torus_ok = True
    for d, N in itertools.product((1, 2, 3, 4, 5), (1, 2, 3)):
        t = lattice.build_torus(d, N)
        if not t.frm.size == t.to.size == t.label.size == (d + 1) * N**d:
            torus_ok = False
        degree = defaultdict(int)
        for frm, to in zip(t.frm.tolist(), t.to.tolist()):
            # vertex k is on sublattice s = k // N^d
            if frm // t.n_cells != 1 or to // t.n_cells != 0:
                torus_ok = False  # bipartite orientation broken
            degree[frm] += 1
            degree[to] += 1
        # the edges' endpoints are all 2 N^d vertices
        if set(degree.values()) != {d + 1} or len(degree) != 2 * N**d:
            torus_ok = False

    domain_ok = True
    for d in range(1, 9):
        b = lattice.make_basis(d)
        chk = lattice.check_fundamental_domain(b, 0)
        if abs(chk.t1 - d / (2 * (d + 1))) > 1e-12:
            domain_ok = False
        if abs(chk.t2 - (d + 2) / (2 * (d + 1))) > 1e-12:
            domain_ok = False
        if not (0.0 < chk.t1 < 1.0 and 0.0 < chk.t2 < 1.0):
            domain_ok = False

    ok = geom_ok and torus_ok and domain_ok
    report(9, "lattice geometry invariants", ok,
           f"basis {geom_ok}, tori {torus_ok}, domain {domain_ok}")
    assert geom_ok
    assert torus_ok
    assert domain_ok
