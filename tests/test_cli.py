import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kitaev_diamond
from kitaev_diamond import cli, spectrum
from kitaev_diamond.lattice import build_torus
from kitaev_diamond.spectrum import bz_grid, f_of_q
from test_spectrum import reversed_edge_0


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bands_csv(capsys):
    code, out, err = run_cli(capsys, "bands", "--d", "2", "--J", "1,1,1", "--grid", "3")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "phi_1,phi_2,xi_plus,xi_minus"
    assert len(lines) == 10
    # values round-trip against the library at full precision
    grid = bz_grid(2, 3)
    for row, phi in zip(lines[1:], grid):
        cols = [float(x) for x in row.split(",")]
        assert np.allclose(cols[:2], phi, atol=0)
        assert cols[2] == float(np.abs(f_of_q([1.0, 1.0, 1.0], phi)))
    # 64 phase axes plus one: more than one numpy array may have
    code, out, err = run_cli(capsys, "bands", "--d", "64", "--J", ",".join(["1"] * 65),
                             "--grid", "1")
    assert code == 0 and err == ""
    assert out.split("\n") == [
        ",".join([f"phi_{i}" for i in range(1, 65)] + ["xi_plus", "xi_minus"]),
        ",".join(["0"] * 64 + ["130", "-130"]),
        "",
    ]


def test_bands_json(capsys):
    code, out, _ = run_cli(
        capsys, "bands", "--d", "2", "--J", "1,1,1", "--grid", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["phi_1", "phi_2", "xi_plus", "xi_minus"]
    assert len(doc["rows"]) == 4


def test_bands_deterministic(capsys):
    args = ("bands", "--d", "3", "--J", "1,0.5,0.25,0.125", "--grid", "4")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bands_with_hoppings_columns(capsys):
    code, out, _ = run_cli(
        capsys, "bands", "--d", "2", "--J", "1,1,1", "--grid", "2",
        "--t", "2,2,2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi_1,phi_2,xi_plus,xi_minus,E_plus,E_minus"
    for row in lines[1:]:
        cols = [float(x) for x in row.split(",")]
        assert cols[2] == cols[4] and cols[3] == cols[5]


def test_lists_starting_with_a_minus_sign_are_given_with_equals(capsys):
    """argparse reads `--J -1,2` as an option; `--J=-1,2` is the way to write it."""
    code, out, err = run_cli(capsys, "bands", "--d", "1", "--J=-1,2", "--t=-1,2",
                             "--format", "json")
    assert code == 0 and err == ""
    cols, values = spectrum.band_table([-1.0, 2.0], 64, hoppings=[-1.0, 2.0])
    assert json.loads(out) == {"columns": cols, "rows": values.tolist()}


def test_gap_json_gapless(capsys):
    code, out, _ = run_cli(capsys, "gap", "--d", "2", "--J", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["has_zero"] is True
    assert doc["margin"] == 1.0
    assert len(doc["zero_phi"]) == 2
    assert doc["min_numeric"] < 1e-9


def test_gap_json_gapped(capsys):
    code, out, _ = run_cli(capsys, "gap", "--d", "2", "--J", "3,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["has_zero"] is False
    assert doc["zero_phi"] is None
    assert abs(doc["min_numeric"] - 2.0) < 1e-9


def test_gap_json_near_float_max(capsys):
    code, out, _ = run_cli(capsys, "gap", "--d", "2", "--J", "1e308,1e308,1e308", "--grid", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["has_zero"] is True and doc["margin"] == 1e308
    assert doc["min_numeric"] < 1e-9 * 3e308
    # the margin 2e308 overflows: refused rather than printed as Infinity
    code, out, err = run_cli(capsys, "gap", "--d", "3", "--J", "1e308,1e308,1e308,1e308")
    assert code == 2 and out == ""
    assert "error" in err


def test_gap_refuses_oversized_dimension(capsys):
    # the zero construction works at any d; the oracle's scan cap refuses
    code, out, err = run_cli(capsys, "gap", "--d", "1100", "--J", ",".join(["1"] * 1101))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_gapmap_csv(capsys):
    code, out, _ = run_cli(capsys, "gapmap", "--d", "2", "--resolution", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x_0,x_1,x_2,gapped"
    assert len(lines) == 16
    flags = [int(r.split(",")[-1]) for r in lines[1:]]
    assert set(flags) == {0, 1}


def test_lattice_json(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--d", "2", "--N", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 2 and doc["N"] == 2
    assert len(doc["vertices"]) == 8 and len(doc["edges"]) == 12


def test_verify_passes(capsys):
    # d = 64 grids 64 phase axes, and its spin model is over the entry budget
    for d, N, draws in ((2, 2, 3), (64, 1, 2)):
        code, out, _ = run_cli(
            capsys, "verify", "--d", str(d), "--N", str(N), "--draws", str(draws),
            "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_deviation"] < 1e-8
        suite = doc["operator_suite"]
        assert suite is None if d == 64 else suite["pass"] is True
        assert doc["failures"] == []


@pytest.mark.parametrize("d, N", [(2, 2), (2, 1), (5, 1)])
def test_verify_corrupt_sign_trips(capsys, d, N):
    # at N = 1 every bond shares one matrix entry; reversing one still trips
    code, out, _ = run_cli(
        capsys, "verify", "--d", str(d), "--N", str(N), "--draws", "3", "--seed", "1",
        "--corrupt-sign",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["max_deviation"] > 1e-8
    assert len(doc["failures"]) == 3


@pytest.mark.parametrize("N", [1, 2])
def test_verify_failure_records_recompute(capsys, N):
    """Each failure record under --corrupt-sign holds its draw's index,
    couplings and deviation on the reversed torus; max_deviation is the
    largest deviation."""
    d, draws, seed = 2, 4, 5
    code, out, _ = run_cli(capsys, "verify", "--d", str(d), "--N", str(N), "--draws",
                           str(draws), "--seed", str(seed), "--corrupt-sign")
    assert code == 1
    doc = json.loads(out)
    swept = reversed_edge_0(build_torus(d, N))
    couplings = [cli._draw(seed, d, k) for k in range(draws)]
    want = [{"draw": k, "d": d, "N": N, "seed": seed, "J": J.tolist(),
             "deviation": spectrum.verify_bloch_equivalence(swept, J)}
            for k, J in enumerate(couplings)]
    assert doc["failures"] == want
    assert doc["max_deviation"] == max(f["deviation"] for f in want)


def test_verify_records_failed_draws_between_passing_ones(monkeypatch, capsys):
    """A draw fails here where its first coupling is positive: the records
    are those draws alone, in draw order, each with its own couplings."""
    d, N, draws, seed = 3, 2, 12, 4
    monkeypatch.setattr(cli.spectrum, "verify_bloch_equivalence",
                        lambda torus, J: 1.0 if J[0] > 0 else 0.0)
    code, out, _ = run_cli(capsys, "verify", "--d", str(d), "--N", str(N), "--draws",
                           str(draws), "--seed", str(seed))
    doc = json.loads(out)
    failed = [k for k in range(draws) if cli._draw(seed, d, k)[0] > 0]
    # the seed gives failed draws between passing ones
    assert 0 < len(failed) < draws and failed != list(range(failed[0], failed[-1] + 1))
    want = [{"draw": k, "d": d, "N": N, "seed": seed, "J": cli._draw(seed, d, k).tolist(),
             "deviation": 1.0} for k in failed]
    assert code == 1 and doc["pass"] is False
    assert doc["failures"] == want
    assert doc["max_deviation"] == 1.0


@pytest.mark.parametrize("seed, d", [(0, 2), (7, 3), (2**40, 5)])
def test_verify_algebra_draws_verify_draw_0(capsys, seed, d):
    """verify-algebra's default couplings are draw 0 of verify's stream."""
    _, out, _ = run_cli(capsys, "verify-algebra", "--d", str(d), "--seed", str(seed))
    _, swept, _ = run_cli(capsys, "verify", "--d", str(d), "--N", "1", "--draws", "1",
                          "--seed", str(seed), "--corrupt-sign")
    J = cli._draw(seed, d, 0).tolist()
    assert json.loads(out)["J"] == json.loads(swept)["failures"][0]["J"] == J


def test_verify_deterministic_for_seed(capsys):
    args = ("verify", "--d", "3", "--N", "2", "--draws", "4", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_algebra(capsys):
    code, out, _ = run_cli(
        capsys, "verify-algebra", "--d", "3", "--J", "1,0.5,-0.5,0.25"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_residual"] == 0.0
    assert doc["links_exact_pm_one"] is True


def test_bad_couplings_usage_error(capsys):
    code, _, err = run_cli(capsys, "gap", "--d", "2", "--J", "1,1")
    assert code == 2
    assert "error" in err


def test_unparseable_floats(capsys):
    code, _, err = run_cli(capsys, "bands", "--d", "2", "--J", "a,b,c")
    assert code == 2
    assert "could not parse" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    code, out, _ = run_cli(
        capsys, "bands", "--d", "2", "--J", "1,1,1", "--grid", "2",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("phi_1,phi_2,")
    # an output that cannot be opened is a usage error
    for argv in (
        ["bands", "--d", "2", "--J", "1,1,1", "--out", str(tmp_path / "missing" / "x.csv")],
        ["verify", "--d", "2", "--N", "2", "--draws", "2", "--out", str(tmp_path)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ")


def test_verify_refuses_an_unwritable_out_before_its_sweep(monkeypatch, capsys, tmp_path):
    # each swept draw appends a line to a file, so the draws that workers
    # forked by a pooled sweep compare count as well
    swept = tmp_path / "swept"

    def compare(*args):
        with open(swept, "a") as fh:
            fh.write("draw\n")
        return 0.0

    monkeypatch.setattr(cli.spectrum, "verify_bloch_equivalence", compare)
    argv = ["verify", "--d", "2", "--N", "12", "--draws", "20"]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ")
    assert not swept.exists()
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "x.json"))
    assert code == 0 and swept.read_text().splitlines() == ["draw"] * 20


def test_console_entry_point():
    # the child imports the package these tests import, installed or not
    src = str(Path(kitaev_diamond.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kitaev_diamond", "gap", "--d", "2", "--J", "1,1,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["has_zero"] is True


def _child_env(**extra):
    """The environment of a child that imports the package these tests
    import, installed or not."""
    src = str(Path(kitaev_diamond.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


BIG_BANDS = ["bands", "--d", "3", "--J", "1,1,1,1", "--grid", "64"]


def test_a_reader_that_stops_early_is_a_usage_error():
    """`bands ... | head -1`: exit code 2, one error line, no traceback.

    With one BLAS thread the command forks workers for its blocks; each
    holds the child's stderr, so its end of file shows that none outlived
    the command.
    """
    proc = subprocess.Popen([sys.executable, "-m", "kitaev_diamond", *BIG_BANDS],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    assert proc.stdout.readline() == b"phi_1,phi_2,phi_3,xi_plus,xi_minus\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [BIG_BANDS, ["gapmap", "--d", "2", "--resolution", "4"]])
@pytest.mark.parametrize("to_file", [False, True])
def test_a_full_device_is_a_usage_error(argv, to_file):
    """A write that fails, at once or when the output is flushed, ends
    with exit code 2 and one error line."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "kitaev_diamond", *argv, *(["--out", "/dev/full"] * to_file)],
            stdout=subprocess.DEVNULL if to_file else full, stderr=subprocess.PIPE,
            env=_child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"), timeout=60)
    name = "/dev/full" if to_file else "stdout"
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {name}: No space left on device\n".encode()


def test_import_graph_has_no_scipy():
    """The package runs on numpy alone: no scipy module is loaded or named."""
    pkg = Path(kitaev_diamond.__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(pkg.parent), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, kitaev_diamond, kitaev_diamond.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for source in pkg.rglob("*.py"):
        assert "scipy" not in source.read_text(), source


def test_bands_json_refuses_overflow(tmp_path, capsys):
    """Bands beyond the float range exit 2 in JSON; CSV still prints inf."""
    argv = ["bands", "--d", "3", "--J=1e308,1e308,-1e308,-1e308", "--grid", "2"]
    target = tmp_path / "bands.json"
    code, out, err = run_cli(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 2 and out == "" and "error" in err
    assert not target.exists()
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "inf" in out


@pytest.mark.parametrize("d,N,calls", [
    pytest.param(2, 2, 1, id="2-1"), pytest.param(2, 12, 2, id="12-2"), (16, 1, 1),
])
def test_verify_builds_each_torus_once(monkeypatch, capsys, d, N, calls):
    """The sweep's torus carries the operator suite where it fits the spin cap;
    one cell where it does not is not built again, and carries no suite."""
    argv = ["verify", "--d", str(d), "--N", str(N), "--draws", "2", "--seed", "3"]
    _, want, _ = run_cli(capsys, *argv)
    built = []

    def counting(*args):
        built.append(args)
        return build_torus(*args)

    monkeypatch.setattr(cli, "build_torus", counting)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    assert len(built) == calls
    suite = json.loads(out)["operator_suite"]
    assert suite is None if d == 16 else suite["pass"] is True


# the spin model's matrix fits at (1, 8), 2^16 rows by 16 edges, and at
# (15, 1); it does not at (1, 9) or (3, 2), whose suite runs on one cell
@pytest.mark.parametrize("d, N, suite_N", [
    pytest.param(2, 12, 1, id="12-1"),
    pytest.param(2, 2, 2, id="2-2"),
    (1, 8, 8), (1, 9, 1), (3, 2, 1), (15, 1, 1),
])
def test_verify_reports_an_operator_suite_failure(monkeypatch, capsys, d, N, suite_N):
    """A residual in the operator suite fails verify with one entry that names
    the suite's torus: the sweep's where its spin model fits, else one cell."""
    real = cli.spinham.verify_operator_identities
    monkeypatch.setattr(cli.spinham, "verify_operator_identities",
                        lambda system: {**real(system), "max_residual": 1.0})
    code, out, _ = run_cli(capsys, "verify", "--d", str(d), "--N", str(N), "--draws", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and doc["operator_suite"]["pass"] is False
    [entry] = doc["failures"]
    assert entry["suite"] == "operator-identities"
    assert (entry["d"], entry["N"], entry["seed"]) == (d, suite_N, 0)
    assert len(entry["J"]) == d + 1


@pytest.mark.parametrize("argv, code", [
    (["bands", "--d", "2", "--J", "0.3,-1.2,0.7", "--t", "1,2,3", "--grid", "5"], 0),
    (["bands", "--d", "3", "--J", "1,0.5,0.5,0.5", "--grid", "3", "--format", "json"], 0),
    (["gap", "--d", "3", "--J", "1,0.5,0.5,0.5"], 0),
    (["gapmap", "--d", "2", "--resolution", "6"], 0),
    (["lattice", "--d", "2", "--N", "2"], 0),
    (["verify", "--d", "2", "--N", "2", "--draws", "2"], 0),
    (["verify", "--d", "2", "--N", "2", "--draws", "2", "--corrupt-sign"], 1),
    (["verify-algebra", "--d", "3"], 0),
])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, argv, code):
    target = tmp_path / "out"
    got, want, _ = run_cli(capsys, *argv)
    assert got == code
    got, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (got, out, err) == (code, "", "")
    assert target.read_bytes() == want.encode()


@pytest.mark.parametrize("argv", [
    ["gap", "--d", "4", "--J", "1.79e308,1e308,1e308,1e308,1e308"],
    ["gapmap", "--d", "4", "--resolution", "400"],
    ["verify", "--d", "2", "--N", "2", "--draws", "-3"],
    # the seed is checked whether or not couplings are given
    ["verify-algebra", "--d", "2", "--seed", "-1", "--J", "1,1,1"],
])
def test_a_refused_request_leaves_no_out_file(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("argv, field", [
    # gapless, but the margin sum|J| - 2 max|J| is beyond the float range
    (["gap", "--d", "4", "--J", "1.79e308,1e308,1e308,1e308,1e308"], "margin"),
    # gapped, and the gap, twice the smallest amplitude, is beyond it
    (["gap", "--d", "2", "--J", "1.79e308,1e300,1e300"], "min_numeric"),
    (["bands", "--d", "3", "--J=1e308,1e308,-1e308,-1e308", "--grid", "2",
      "--format", "json"], "rows"),
    # only the hopping column overflows
    (["bands", "--d", "2", "--J", "1,1,1", "--t=1e308,1e308,1e308", "--grid", "4",
      "--format", "json"], "rows"),
    # |f| overflows only in the second of three blocks (the test below), so a
    # check block by block would have printed the first
    (["bands", "--d", "2", "--J=3.05e307,-3.05e307,3.05e307", "--grid", "200",
      "--format", "json"], "rows"),
])
def test_a_json_refusal_names_the_field(tmp_path, capsys, argv, field):
    target = tmp_path / "out"
    for out_args in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, *argv, *out_args)
        assert code == 2 and out == ""
        assert err == f"error: non-finite value in {field}; JSON has no Infinity or NaN\n"
    assert not target.exists()


def test_the_late_overflow_lies_past_the_first_block():
    _, _, (absf,) = spectrum._band_energies([3.05e307, -3.05e307, 3.05e307], 200, None)
    late = np.flatnonzero(~np.isfinite(absf))
    assert late.size and late.min() >= spectrum.ROW_BLOCK and late.max() < 2 * spectrum.ROW_BLOCK
