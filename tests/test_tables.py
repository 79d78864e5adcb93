"""The array-native band table and simplex map against per-row references.

The references are the per-row formatters the package used before its
tables became array-native: one f-string per value for the band table, the
CSV text parsed back to floats for its JSON form, and one `gapped_region`
call per simplex point.  Output must match them byte for byte, and the size
budget and the `--t` check must refuse before anything is printed.  The JSON
tables of `bands` and `lattice` are also compared with the route they
replaced, one `json.dumps(indent=2)` of the whole payload.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from kitaev_diamond import cli, clifford, gap, lattice, spectrum, spinham
from kitaev_diamond.tightbinding import r_of_q, tb_energy


def ref_band_csv_lines(J, grid_n, hoppings=None):
    J = spectrum.as_couplings(J)
    d = J.size - 1
    phis = spectrum.bz_grid(d, grid_n)
    xi = np.abs(spectrum.f_of_q(J, phis))
    cols = [f"phi_{i + 1}" for i in range(d)] + ["xi_plus", "xi_minus"]
    extra = None
    if hoppings is not None:
        extra = tb_energy(hoppings, phis)[0]
        cols += ["E_plus", "E_minus"]
    yield ",".join(cols)
    for row in range(phis.shape[0]):
        vals = [*phis[row], xi[row], -xi[row]]
        if extra is not None:
            vals += [extra[row], -extra[row]]
        yield ",".join(f"{v:.17g}" for v in vals)


def ref_bands_stdout(J, grid_n, hoppings, fmt):
    lines = list(ref_band_csv_lines(J, grid_n, hoppings))
    if fmt == "json":
        cols = lines[0].split(",")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        return json.dumps({"columns": cols, "rows": rows}, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def ref_gapmap_csv_lines(d, resolution):
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield (*prefix, remaining)
            return
        for k in range(remaining + 1):
            yield from rec((*prefix, k), remaining - k, slots - 1)

    yield ",".join([f"x_{i}" for i in range(d + 1)] + ["gapped"])
    for ks in rec((), resolution, d + 1):
        x = np.asarray(ks, dtype=float) / resolution
        flag = int(gap.gapped_region(x))
        yield ",".join([f"{v:.17g}" for v in x] + [str(flag)])


def run_cli(capsys, tmp_path, argv):
    """stdout of argv, checked equal to what --out writes to a file."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    target = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out
    return out


def floats(flag, values):
    return flag + "=" + ",".join(repr(float(v)) for v in values)


GAPMAP_CASES = [(d, r) for d in range(1, 10) for r in (1, 2, 3, 5, 8)] + [(4, 40)]


@pytest.mark.parametrize("d,r", GAPMAP_CASES)
def test_gapmap_matches_per_point_reference(capsys, tmp_path, d, r):
    want = list(ref_gapmap_csv_lines(d, r))
    assert "\n".join(gap.gapmap_csv_lines(d, r)).split("\n") == want
    if r in (3, 40):
        argv = ["gapmap", "--d", str(d), "--resolution", str(r)]
        assert run_cli(capsys, tmp_path, argv) == "\n".join(want) + "\n"


def test_barycentric_grid_matches_recursive_reference():
    for d, r in ((1, 6), (3, 7), (9, 3)):
        rows = [ln.split(",")[:-1] for ln in list(ref_gapmap_csv_lines(d, r))[1:]]
        want = np.array(rows, dtype=float)
        assert np.array_equal(gap.barycentric_grid(d, r), want)


def test_simplex_rows_repeat_by_binomial_counts():
    """Each prefix k_0..k_i of a simplex row that leaves v of the resolution is
    repeated once per composition of v into the m + 1 = d - i parts still to
    come, C(v + m, m): every count the map reads, m = 0..d-1, v = 0..r."""
    for d in range(1, 7):
        for r in range(1, 7):
            ks = gap._compositions(d, r)
            for i in range(d):
                prefixes, counts = np.unique(ks[:, : i + 1], axis=0, return_counts=True)
                m = d - 1 - i
                assert counts.tolist() == [math.comb(r - sum(p) + m, m) for p in prefixes.tolist()]


def test_gapmap_at_its_budget_edge(capsys):
    """d = 2047 at resolution 1 is 2048 rows of 2048 parts, ENTRY_BUDGET
    exactly: data row j holds its 1 in column x_{2047-j}, and every point, a
    vertex of the simplex, is gapped.  d = 2048 is refused with empty stdout."""
    d = 2047
    header = ",".join([f"x_{i}" for i in range(d + 1)] + ["gapped"])
    rows = [",".join(["0"] * (d - j) + ["1"] + ["0"] * j + ["1"]) for j in range(d + 1)]
    assert "\n".join(gap.gapmap_csv_lines(d, 1)) == "\n".join([header, *rows])
    assert cli.main(["gapmap", "--d", "2048", "--resolution", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "over the budget" in captured.err


BAND_GRIDS = {1: (1, 2, 7, 64), 2: (1, 3, 40), 3: (2, 5, 16), 4: (3, 8)}


@pytest.mark.parametrize("d", sorted(BAND_GRIDS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("with_t", [False, True])
def test_bands_match_per_row_reference(capsys, tmp_path, d, fmt, with_t):
    rng = np.random.default_rng(40 + d)
    for grid in BAND_GRIDS[d]:
        J = rng.uniform(-2.0, 2.0, d + 1)
        t = rng.uniform(-2.0, 2.0, d + 1) if with_t else None
        argv = ["bands", "--d", str(d), floats("--J", J), "--grid", str(grid),
                "--format", fmt]
        if with_t:
            argv.append(floats("--t", t))
        assert run_cli(capsys, tmp_path, argv) == ref_bands_stdout(J, grid, t, fmt)
        if fmt == "csv":
            got = "\n".join(spectrum.band_csv_lines(J, grid, hoppings=t)).split("\n")
            assert got == list(ref_band_csv_lines(J, grid, t))


def old_json(payload):
    """The route the JSON tables replaced: one json.dumps of the whole payload."""
    return json.dumps(payload, indent=2, allow_nan=False, default=np.ndarray.tolist) + "\n"


def old_bands_json(J, grid_n, hoppings=None):
    cols, values = spectrum.band_table(J, grid_n, hoppings=hoppings)
    return old_json({"columns": cols, "rows": values})


def bands_json_stdout(capsys, J, grid_n, hoppings=None):
    argv = ["bands", "--d", str(len(J) - 1), floats("--J", J), "--grid", str(grid_n),
            "--format", "json"]
    if hoppings is not None:
        argv.append(floats("--t", hoppings))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 0
    return captured.out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("with_t", [False, True])
def test_bands_json_prints_the_old_routes_bytes(capsys, d, with_t):
    rng = np.random.default_rng(480 + d)
    for grid in (1, 2, 7, 64):
        J = rng.uniform(-2.0, 2.0, d + 1)
        t = rng.uniform(-2.0, 2.0, d + 1) if with_t else None
        if lattice.grid_count(grid, d) * d > lattice.ENTRY_BUDGET:
            # 64^4 phases: both routes refuse the grid with one message
            with pytest.raises(ValueError, match="over the budget") as refused:
                spectrum.band_table(J, grid, hoppings=t)
            with pytest.raises(ValueError, match="over the budget") as streamed:
                next(spectrum.band_json_lines(J, grid, hoppings=t))
            assert str(streamed.value) == str(refused.value)
            continue
        assert bands_json_stdout(capsys, J, grid, t) == old_bands_json(J, grid, t)


@pytest.mark.parametrize("J, t, grid", [
    # 40,000 rows: two full blocks and a partial one
    ([0.3, -1.2, 0.7], [1.1, 0.4, -0.9], 200),
    # every minus column is -0.0
    ([0.0, 0.0, 0.0], None, 7),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 7),
    # energies whose reprs take the exponent form, and negative couplings
    ([1e-300, 1e-300, -1e-300], [-1e-300, 2e-300, 1e-300], 7),
    ([-1.0, -0.5, -2.0], [-1.0, -1.0, -1.0], 7),
])
def test_bands_json_prints_the_old_routes_bytes_at_special_values(capsys, J, t, grid):
    out = bands_json_stdout(capsys, J, grid, t)
    assert out == old_bands_json(J, grid, t)
    if not any(J):
        minus = [v for row in json.loads(out)["rows"] for v in row[len(J) :: 2]]
        assert minus and all(v == 0.0 and math.copysign(1.0, v) < 0 for v in minus)


def test_bands_json_streams_in_row_blocks():
    # the head, one string per block of ROW_BLOCK rows, and the tail
    for d, grid in ((1, 1), (2, 128), (2, 129), (2, 200), (3, 40)):
        rows = grid**d
        chunks = list(spectrum.band_json_lines(np.ones(d + 1), grid, hoppings=np.ones(d + 1)))
        assert len(chunks) == -(-rows // spectrum.ROW_BLOCK) + 2
        assert chunks[0].endswith('"rows": [') and chunks[-1] == "  ]\n}"


# (1, 8193) has 16,386 vertices and 16,386 edges: two blocks of each
@pytest.mark.parametrize("d, N", [(1, 1), (1, 5), (2, 3), (3, 6), (5, 2), (40, 1), (1, 8193)])
def test_lattice_prints_the_old_routes_bytes(capsys, d, N):
    code = cli.main(["lattice", "--d", str(d), "--N", str(N)])
    assert code == 0
    assert capsys.readouterr().out == old_json(lattice.torus_to_dict(lattice.build_torus(d, N)))


def test_lattice_json_streams_in_record_blocks():
    # the head, one string per block of ROW_BLOCK vertices, the middle, one
    # string per block of edges, and the tail
    for d, N in ((1, 1), (1, 8192), (1, 8193), (2, 128), (3, 20)):
        torus = lattice.build_torus(d, N)
        chunks = list(lattice._torus_json_lines(torus))
        vertices = -(-2 * torus.n_cells // lattice.ROW_BLOCK)
        edges = -(-torus.label.size // lattice.ROW_BLOCK)
        assert len(chunks) == 1 + vertices + 1 + edges + 1
        assert chunks[0].endswith('"vertices": [') and chunks[-1] == "  ]\n}"
        assert chunks[1 + vertices] == '  ],\n  "edges": ['


def test_lattice_json_of_an_edgeless_torus_prints_an_empty_list():
    """A hand-made torus without edges prints "edges": [] as json does: the head,
    its one block of vertices, and the middle closed by json's empty list."""
    e = np.array([], dtype=np.int64)
    torus = lattice.DiamondTorus(3, 2, e, e, e)
    chunks = list(lattice._torus_json_lines(torus))
    assert "\n".join(chunks) == json.dumps(lattice.torus_to_dict(torus), indent=2)
    assert len(chunks) == 3 and chunks[-1] == '  ],\n  "edges": []\n}'


def test_tables_across_block_boundaries(capsys, tmp_path, monkeypatch):
    # blocks of 7 rows: full blocks, a partial last block, and the CLI's
    # blockwise writes all meet the per-row references
    monkeypatch.setattr(spectrum, "ROW_BLOCK", 7)
    monkeypatch.setattr(gap, "ROW_BLOCK", 7)
    J, t = [0.3, -1.2, 0.7], [1.1, 0.4, -0.9]
    for grid in (2, 5, 7):
        for fmt in ("csv", "json"):
            want = ref_bands_stdout(J, grid, t, fmt)
            argv = ["bands", "--d", "2", floats("--J", J), floats("--t", t), "--grid", str(grid),
                    "--format", fmt]
            assert run_cli(capsys, tmp_path, argv) == want
    for r in (4, 5):
        want = "\n".join(ref_gapmap_csv_lines(3, r)) + "\n"
        assert run_cli(capsys, tmp_path, ["gapmap", "--d", "3", "--resolution", str(r)]) == want
    # and blocks of 7 records: the vertices and the edges of each torus end in a partial block
    monkeypatch.setattr(lattice, "ROW_BLOCK", 7)
    for d, N in ((1, 5), (2, 3), (3, 2)):
        want = old_json(lattice.torus_to_dict(lattice.build_torus(d, N)))
        assert run_cli(capsys, tmp_path, ["lattice", "--d", str(d), "--N", str(N)]) == want


@pytest.mark.parametrize("scale", [1e-300, 1e-310, 1e300, 1e307])
def test_bands_at_extreme_scales_match_reference(capsys, tmp_path, scale):
    rng = np.random.default_rng(7)
    for d, grid in ((1, 9), (2, 6), (3, 4)):
        J = rng.uniform(-2.0, 2.0, d + 1) * scale
        t = rng.uniform(-2.0, 2.0, d + 1) * scale
        for fmt in ("csv", "json"):
            argv = ["bands", "--d", str(d), floats("--J", J), floats("--t", t),
                    "--grid", str(grid), "--format", fmt]
            want = ref_bands_stdout(J, grid, t, fmt)
            assert "nan" not in want.lower()
            assert run_cli(capsys, tmp_path, argv) == want


def test_band_rows_with_zero_and_infinite_energies():
    # xi_minus is "-" and xi_plus's text: "-0" at a zero, "-inf" past the range
    J = [1e308, 1e308, -1e308, -1e308]
    lines = "\n".join(spectrum.band_csv_lines(J, 2)).split("\n")
    cells = [ln.split(",") for ln in lines[1:]]
    assert ["0", "-0"] in [c[3:] for c in cells]
    assert ["inf", "-inf"] in [c[3:] for c in cells]
    for c in cells:
        assert c[4] == f"{-float(c[3]):.17g}"


def test_amplitudes_near_float_max_are_never_nan():
    phi = spectrum.bz_grid(3, 4)
    for J in ([1e308, 1e308, -1e308, -1e308], [1.7e308, -1.7e308, 1.7e308, 1e-300],
              [-1.7976931348623157e308] * 4):
        f = spectrum.f_of_q(J, phi)
        r = r_of_q(J, phi)
        for z in (f, r):
            assert not np.isnan(z.real).any() and not np.isnan(z.imag).any()
            assert not np.isnan(np.abs(z)).any()
        # where the sum overflows the band reads +inf
        assert np.isposinf(np.abs(f)).any()
        _, values = spectrum.band_table(J, 4, hoppings=np.array(J) * (1 + 1j))
        assert not np.isnan(values).any()
    # a complex hopping whose modulus alone overflows keeps finite components
    r = r_of_q([1.5e308 + 1.5e308j, 1.0], np.array([0.5]))
    assert np.isfinite(r.real) and np.isfinite(r.imag)


def test_scaled_amplitude_is_exact_where_nothing_overflows():
    # couplings just over the scaling threshold give the bits of the same
    # couplings scaled down by a power of two, scaled back up
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 2 * np.pi, (50, 3))
    J = rng.uniform(0.5, 1.0, 4) * 2.0**1023
    small = spectrum.f_of_q(J * 2.0**-600, phi)
    big = spectrum.f_of_q(J, phi)
    with np.errstate(over="ignore"):
        assert np.array_equal(big.real, np.ldexp(small.real, 600))
        assert np.array_equal(big.imag, np.ldexp(small.imag, 600))
    assert np.isfinite(big).any()


REFUSALS = [
    ["bands", "--d", "6", "--J", "1,1,1,1,1,1,1", "--grid", "64"],
    ["bands", "--d", "2", "--J", "1,1,1", "--t", "1,1", "--grid", "4"],
    ["bands", "--d", "2", "--J", "1,1,1", "--t", "1,1,1,1", "--format", "json"],
    ["gapmap", "--d", "4", "--resolution", "400"],
    ["gapmap", "--d", "1000000000", "--resolution", "1000000000"],
    # one torus refusal per routine that allocates: the torus's edge arrays
    # (4,198,401 entries), the hopping form (4,743,684) and the spin strings
    ["lattice", "--d", "2", "--N", "683"],
    ["verify", "--d", "2", "--N", "33", "--draws", "1"],
    ["verify-algebra", "--d", "2", "--N", "33"],
    ["lattice", "--d", "100000000", "--N", "1"],
    ["verify", "--d", "3", "--N", "100", "--draws", "1"],
    ["verify-algebra", "--d", "2048"],
    ["lattice", "--d", "1448", "--N", "1"],
    ["verify", "--d", "2", "--draws", "-3"],
    ["verify-algebra", "--d", "2", "--J="],
    ["bands", "--d", "2", "--J", "1,1,1", "--t=", "--grid", "4"],
    # the torus fits its budget, the spin model's strings do not
    ["verify-algebra", "--d", "3", "--N", "9"],
    # every list field parses: an empty one is refused, not dropped
    ["verify-algebra", "--d", "2", "--J", "1,,1,1"],
    ["verify-algebra", "--d", "2", "--J", "1,1,1,"],
    ["bands", "--d", "2", "--J", "1,1,1", "--t", ",1,1,1", "--grid", "4"],
    # a seed is a size >= 0
    ["verify", "--d", "2", "--seed", "-1"],
    ["verify-algebra", "--d", "2", "--seed", "-1"],
    # edge arrays that fit and spin strings that do not: the largest torus at
    # d = 2, and the first past the strings' edge at d = 1
    ["verify-algebra", "--d", "2", "--N", "682"],
    ["verify-algebra", "--d", "1", "--N", "1025"],
]


def _refused_before_any_output(capsys, tmp_path, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    target = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(target)]) == 2
    assert not target.exists()


@pytest.mark.parametrize("argv", REFUSALS)
def test_refusals_exit_2_before_any_output(capsys, tmp_path, argv):
    _refused_before_any_output(capsys, tmp_path, argv)


def _no_torus(*args):
    raise AssertionError(f"a torus was built: {args}")


@pytest.mark.parametrize("argv", [a for a in REFUSALS if a[0] == "verify-algebra"])
def test_verify_algebra_refuses_before_it_builds_a_torus(monkeypatch, capsys, tmp_path, argv):
    """The spin model is counted from (d, N) and --J parsed first, so no
    refusal of verify-algebra allocates a torus."""
    monkeypatch.setattr(cli, "build_torus", _no_torus)
    _refused_before_any_output(capsys, tmp_path, argv)


def test_verify_algebra_counts_its_strings_at_the_exact_edge(monkeypatch, capsys):
    """(2, 2) has 12 edge strings of 16 qubits: 192 entries print the report,
    191 are refused before any torus is built."""
    argv = ["verify-algebra", "--d", "2", "--N", "2"]
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", 192)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", 191)
    monkeypatch.setattr(cli, "build_torus", _no_torus)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spin model on torus d=2, N=2 is over the budget of 191 entries\n"


def test_list_and_seed_errors_name_their_option(capsys):
    budget = "is over the budget of 4194304 entries"
    for argv, message in [
        (["verify-algebra", "--d", "2", "--J", "1,,1,1"], "could not parse --J list '1,,1,1'"),
        (["bands", "--d", "2", "--J", "1,1,1", "--t="], "could not parse --t list ''"),
        (["verify", "--d", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["verify-algebra", "--d", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["gap", "--d", "2", "--J", "1,1,1", "--grid", "1"], "--grid must be >= 2, got 1"),
        # a torus is refused by the routine that counts it: lattice by its edge
        # arrays, verify by its hopping form, verify-algebra by its spin strings
        (["lattice", "--d", "2", "--N", "683"], f"torus d=2, N=683 {budget}"),
        (["verify", "--d", "2", "--N", "33", "--draws", "1"],
         f"hopping form of torus d=2, N=33 {budget}"),
        (["verify-algebra", "--d", "2", "--N", "33"], f"spin model on torus d=2, N=33 {budget}"),
        # and counts them before it builds the torus, whose edge arrays are over too
        (["verify-algebra", "--d", "2", "--N", "683"], f"spin model on torus d=2, N=683 {budget}"),
    ]:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_t_length_error_names_the_hoppings(capsys):
    assert cli.main(["bands", "--d", "2", "--J", "1,1,1", "--t", "1,1"]) == 2
    assert "expected 3 hoppings for d=2, got 2" in capsys.readouterr().err


def test_budget_counts_are_exact(monkeypatch):
    torus_2_2 = lattice.build_torus(2, 2)
    one_edge = lattice.DiamondTorus(3, 2, [8], [0], [1])
    cases = [
        (lambda: spectrum.bz_grid(3, 4), 4**3 * 3),
        (lambda: gap.barycentric_grid(2, 4), 15 * 3),
        (lambda: "\n".join(gap.gapmap_csv_lines(2, 4)).split("\n"), 15 * 3),
        # three edge arrays of 4 cells times 3 directions
        (lambda: lattice.build_torus(2, 2), 3 * 4 * 3),
        (lambda: lattice.build_torus(40, 1), 3 * 41),
        (lambda: spectrum.quadratic_form(torus_2_2, np.ones(3)), 8 * 8),
        # a hand-made torus of 2^3 cells and one edge: 16 vertices of 4 coordinates,
        # in the library's dict and in the writer `lattice` prints
        (lambda: lattice.torus_to_dict(one_edge), 16 * 4),
        (lambda: list(lattice._torus_json_lines(one_edge)), 16 * 4),
        # alpha is 3 x 4 and beta 4 x 4
        (lambda: lattice.make_basis(3), 7 * 4),
        # 12 edge strings of 8 sites times 2 qubits
        (lambda: spinham.build_spin_hamiltonian(torus_2_2, np.ones(3)), 12 * 8 * 2),
        # 7 generators on 3 qubits
        (lambda: clifford.majorana_rep(7), 7 * 3),
    ]
    for build, entries in cases:
        monkeypatch.setattr(lattice, "ENTRY_BUDGET", entries)
        build()
        monkeypatch.setattr(lattice, "ENTRY_BUDGET", entries - 1)
        with pytest.raises(ValueError, match="over the budget"):
            build()
    # H's matrix: 4^8 states times 12 edge columns
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", 4**8 * 12)
    assert spinham.hamiltonian_fits(torus_2_2)
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", 4**8 * 12 - 1)
    assert not spinham.hamiltonian_fits(torus_2_2)


def test_budget_admits_the_benchmark_commands():
    assert spectrum.bz_grid(3, 64).shape == (64**3, 3)  # bands --d 3 --grid 64
    assert 2 * lattice.build_torus(2, 12).n_cells == 288  # verify --d 2 --N 12
    assert 2 * lattice.build_torus(3, 6).n_cells == 432  # lattice --d 3 --N 6
    assert lattice.simplex_count(4, 40) == 135751
    # huge exponents and binomials are counted without huge integers
    assert lattice.grid_count(2, 10**9) > lattice.ENTRY_BUDGET
    assert lattice.grid_count(1, 10**9) == 1
    assert lattice.simplex_count(10**9, 10**9) > lattice.ENTRY_BUDGET


@pytest.mark.parametrize("d,grid,with_t", [(2, 1000, False), (2, 1000, True), (3, 100, False)])
def test_band_csv_holds_only_its_energy_columns(d, grid, with_t):
    """Once the header is out, the CSV route holds |f|, and |r| with --t, 8
    bytes a row each, and one axis's phase strings: not the phases, their
    exponentials or a table of every column."""
    J = np.linspace(0.4, 1.1, d + 1)
    t = J * (1 + 1j) if with_t else None
    rows = grid**d
    tracemalloc.start()
    try:
        lines = spectrum.band_csv_lines(J, grid, hoppings=t)
        before = tracemalloc.get_traced_memory()[0]
        assert next(lines).startswith("phi_1,")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    lines.close()
    assert held <= 8 * rows * (2 if with_t else 1) + (1 << 20)


def test_band_csv_route_builds_no_phase_grid(monkeypatch):
    # bz_grid serves band_table; the CSV and JSON routes need only the grid factors
    J, t = [0.3, -1.2, 0.7], [1.1, 0.4, -0.9]
    want = list(ref_band_csv_lines(J, 9, t))
    want_json = old_bands_json(J, 9, t)

    def refused(d, N):
        raise AssertionError("bz_grid called")

    monkeypatch.setattr(spectrum, "bz_grid", refused)
    assert "\n".join(spectrum.band_csv_lines(J, 9, hoppings=t)).split("\n") == want
    assert "\n".join(spectrum.band_json_lines(J, 9, hoppings=t)) + "\n" == want_json
