"""Tests of the benchmark itself: every checker rejects a corrupted result,
a run that checked nothing fails, and the tracer times what it claims to.

    python3 -m pytest -q perfbench
"""

import copy
import json
import sys
import textwrap

import numpy as np
import pytest

import run
import speed
import workloads as wl
from tracer import Tracer

kd = run.import_package()


def rejects(check, result):
    with pytest.raises(wl.CheckFailed):
        check(result)
    return True


def cli(argv):
    return wl.run_cli(kd, argv)


def with_stdout(result, text):
    code, _, err = result
    return code, text, err


# -- checkers -------------------------------------------------------------


@pytest.mark.parametrize("J", [[1.0, 0.6, 0.7], [2.0, 0.3, -0.4], [1.0, -0.5, 0.0, 0.7]])
def test_oracle_checker_accepts_and_rejects(J):
    J = np.array(J)
    good = (kd.gap.has_zero(J), kd.gap.find_zero(J), kd.gap.min_gap_numeric(J))
    assert wl.check_oracle(J, good) >= 4
    has_zero, phi, gap = good
    assert rejects(lambda r: wl.check_oracle(J, r), (not has_zero, phi, gap))
    if has_zero:
        assert rejects(lambda r: wl.check_oracle(J, r), (has_zero, phi + 0.3, gap))
        assert rejects(lambda r: wl.check_oracle(J, r), (has_zero, None, gap))
        assert rejects(lambda r: wl.check_oracle(J, r), (has_zero, phi, 0.5))
    else:
        assert rejects(lambda r: wl.check_oracle(J, r), (has_zero, np.zeros(J.size - 1), gap))
        assert rejects(lambda r: wl.check_oracle(J, r), (has_zero, phi, 0.5 * gap))


def test_oracle_checker_on_the_boundary_still_checks_the_zero():
    J = np.array([1.0, -0.5, 0.0, 0.5])
    good = (kd.gap.has_zero(J), kd.gap.find_zero(J), kd.gap.min_gap_numeric(J))
    assert good[0] and wl.check_oracle(J, good) == 4
    assert rejects(lambda r: wl.check_oracle(J, r), (True, good[1] + 0.1, good[2]))
    assert rejects(lambda r: wl.check_oracle(J, r), (True, None, good[2]))


def test_oracle_checker_lets_an_exact_boundary_draw_round_either_way():
    # a classifier that normalises before taking the margin may call this
    # boundary gapped; it must then be consistent about it
    J = np.array([0.7, -0.2, 0.0, 0.5])
    assert abs(wl._margin(J)[1]) <= wl.BOUNDARY_RTOL * wl._margin(J)[0]
    gap = kd.gap.min_gap_numeric(J)
    assert wl.check_oracle(J, (False, None, gap)) == 2
    assert wl.check_oracle(J, (True, kd.gap.find_zero(J), gap)) == 4
    assert rejects(lambda r: wl.check_oracle(J, r), (False, kd.gap.find_zero(J), gap))
    assert rejects(lambda r: wl.check_oracle(J, r), (False, None, -0.1))
    off = np.array([0.7, -0.2, 0.0, 0.5 - 1e-9])  # just gapped, outside the band
    assert rejects(lambda r: wl.check_oracle(off, r), (True, None, gap))


@pytest.mark.parametrize("d", wl.ORACLE_DIMS)
def test_oracle_draws_fall_in_their_class(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        assert wl._margin(wl.draw_couplings(rng, d, "gapless"))[1] >= 0.0
        assert wl._margin(wl.draw_couplings(rng, d, "gapped"))[1] < 0.0
        J = wl.draw_couplings(rng, d, "boundary")
        assert abs(wl._margin(J)[1]) <= 1e-15 * wl._margin(J)[0]
        J = wl.draw_couplings(rng, d, "zeroed")
        assert 0 < np.count_nonzero(J) < J.size


@pytest.mark.parametrize("d", [2, 5])
def test_algebra_checker_accepts_and_rejects(d):
    J = np.linspace(0.5, 1.5, d + 1)
    system = kd.spinham.build_spin_hamiltonian(kd.lattice.build_torus(d, 1), J)
    report = kd.spinham.verify_operator_identities(system)
    sector = kd.spinham.plus_sector_dimension(system)
    check = lambda r: wl.check_algebra(d, r)  # noqa: E731
    assert check((system, report, sector)) == 7
    assert rejects(check, (system, {**report, "max_residual": 1e-6}, sector))
    assert rejects(check, (system, {**report, "links_exact_pm_one": False}, sector))
    assert rejects(check, (system, {**report, "parity_diagonal_pm_one": False}, sector))
    assert rejects(check, (system, report, 1 - sector))
    wrong = kd.spinham.build_spin_hamiltonian(kd.lattice.build_torus(d + 2, 1),
                                              np.ones(d + 3))
    assert rejects(check, (wrong, report, sector))


def test_bands_csv_checker_rejects_corruption():
    J = np.array([1.0, -0.5, 0.25, 0.75])
    grid = 6
    good = cli(["bands", "--d", "3", wl._floats("--J", J), "--grid", str(grid)])
    check = lambda r: wl.check_bands_csv(J, grid, r, sample_seed=1)  # noqa: E731
    assert check(good) == 8
    text = good[1]
    lines = text.splitlines()
    assert rejects(check, with_stdout(good, "\n".join(lines[:-1]) + "\n"))
    fields = lines[-1].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-6))
    assert rejects(check, with_stdout(good, "\n".join(lines[:-1] + [",".join(fields)]) + "\n"))
    fields = lines[-1].split(",")
    fields[4] = fields[3]
    assert rejects(check, with_stdout(good, "\n".join(lines[:-1] + [",".join(fields)]) + "\n"))
    assert rejects(check, with_stdout(good, text.replace("xi_plus", "xi_p", 1)))
    assert rejects(check, (2, text, ""))


def test_bands_json_checker_rejects_corruption():
    J = np.array([1.0, -0.5, 0.25])
    t = np.array([0.3, 1.0, -2.0])
    grid = 5
    good = cli(["bands", "--d", "2", wl._floats("--J", J), wl._floats("--t", t),
                "--grid", str(grid), "--format", "json"])
    check = lambda r: wl.check_bands_json(J, t, grid, r)  # noqa: E731
    assert check(good) == 8
    payload = json.loads(good[1])
    for col, scale in ((2, 1.0 + 1e-9), (4, 1.0 + 1e-9), (5, -1.0)):
        bad = copy.deepcopy(payload)
        bad["rows"][7][col] *= scale
        assert rejects(check, with_stdout(good, json.dumps(bad) + "\n"))
    bad = copy.deepcopy(payload)
    bad["rows"].pop()
    assert rejects(check, with_stdout(good, json.dumps(bad) + "\n"))


def test_gapmap_reference_matches_program_and_rejects_a_flipped_flag():
    reference = wl.gapmap_reference(3, 8)
    good = cli(["gapmap", "--d", "3", "--resolution", "8"])
    assert wl.check_gapmap(reference, good) == 4
    lines = good[1].splitlines()
    lines[5] = lines[5][:-1] + ("0" if lines[5].endswith("1") else "1")
    assert rejects(lambda r: wl.check_gapmap(reference, r),
                   with_stdout(good, "\n".join(lines) + "\n"))


def test_lattice_checker_rejects_corruption():
    d, N = 2, 3
    good = cli(["lattice", "--d", str(d), "--N", str(N)])
    check = lambda r: wl.check_lattice(d, N, r)  # noqa: E731
    assert check(good) == 10
    payload = json.loads(good[1])
    corruptions = [
        lambda p: p["edges"][4].update(to=(p["edges"][4]["to"] + 1) % N**d),
        lambda p: p["edges"][2].update(label=1),
        lambda p: p["vertices"].pop(),
        lambda p: p["vertices"][0]["pos"].__setitem__(0, 0.5),
        lambda p: p["vertices"].__setitem__(0, p["vertices"][1]),
    ]
    for corrupt in corruptions:
        bad = copy.deepcopy(payload)
        corrupt(bad)
        assert rejects(check, with_stdout(good, json.dumps(bad) + "\n"))


def test_verify_checker_rejects_failures_and_a_vacuous_pass():
    good = cli(["verify", "--d", "2", "--N", "3", "--draws", "2", "--seed", "4"])
    assert wl.check_verify(2, good) == 6
    vacuous = cli(["verify", "--d", "2", "--N", "3", "--draws", "0"])
    assert json.loads(vacuous[1])["pass"] is True  # the program's own verdict
    assert rejects(lambda r: wl.check_verify(0, r), vacuous)
    corrupt = cli(["verify", "--d", "2", "--N", "3", "--draws", "2", "--corrupt-sign"])
    assert rejects(lambda r: wl.check_verify(2, r), corrupt)
    payload = json.loads(good[1])
    payload["operator_suite"]["pass"] = False
    assert rejects(lambda r: wl.check_verify(2, r), with_stdout(good, json.dumps(payload) + "\n"))


def test_cli_usage_error_is_a_failed_op_not_an_exit():
    stats = run.Stats()
    op = wl.Op("bad", lambda k: wl.run_cli(k, ["bands", "--d", "2", "--J", "-1,1,1"]),
               lambda r: wl.check_bands_csv(np.array([-1.0, 1, 1]), 64, r, 0))
    stats.run(kd, op)
    assert (stats.attempted, stats.failed, stats.checks) == (1, 1, 0)


# -- run verdict ----------------------------------------------------------


def test_run_that_checked_nothing_is_not_correct():
    stats = run.Stats()
    stats.run(kd, wl.Op("no-checks", lambda k: None, lambda r: 0))
    assert stats.failed == 0
    assert run.verdict([stats]) == (False, 1, 0, 0)
    stats.run(kd, wl.Op("one-check", lambda k: None, lambda r: 1))
    assert run.verdict([stats]) == (True, 2, 0, 1)


def test_every_workload_cycle_passes_its_checks_on_cheap_ops():
    stats = run.Stats()
    for op in wl.Oracle(3).cycle() + wl.Algebra(3).warmup() + wl.Cli(3).warmup():
        stats.run(kd, op)
    assert stats.failed == 0, stats.failures
    assert stats.checks > 0


def test_tail_latency_leaves_ten_samples_beyond():
    xs = list(range(100))
    value, pct, n = run.tail_latency(xs)
    assert sum(x > value for x in xs) == run.TAIL_BEYOND
    assert (pct, n) == (90.0, 100)
    assert run.tail_latency(xs[:15]) == (14, 100.0, 15)


def test_untraced_run_prints_every_end_to_end_metric_of_the_spec(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", "oracle", "--seed", "2", "--seconds", "0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]
    spec = run.load_spec()
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] \
        == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and details["checks_run"] > 0
    assert len(details["setup_samples_s"]) == 1
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


# -- speed calibration ----------------------------------------------------


def test_every_workload_has_a_kernel_that_leaves_the_package_alone():
    assert set(speed.KERNELS) == set(wl.WORKLOADS)
    loaded = set(sys.modules)
    for work, reference_s in speed.KERNELS.values():
        assert np.isfinite(work()) and reference_s > 0
    assert not {m for m in set(sys.modules) - loaded if m.startswith(run.PACKAGE)}


def test_speed_scales_an_op_by_the_fastest_kernel_runs_near_it():
    clock = FakeClock()
    costs = iter([3.0, 1.0,    # cold first run, then 1 s: sample 1
                  2.0, 2.0,    # sample 2, after a 10 s op
                  4.0, 4.0,    # sample 3, 20 s later
                  6.0, 6.0])   # sample 4, right after
    sp = speed.Speed(lambda: clock.spend(next(costs)), reference_s=1.0, clock=clock)
    sp.maybe_sample()
    assert list(sp.kernel_s) == [1.0]
    sp.maybe_sample()  # the last sample is fresh
    assert len(sp.kernel_s) == 1
    op_start = clock()
    clock.spend(10.0)
    sp.maybe_sample()
    clock.spend(20.0)
    sp.sample()
    sp.sample()
    assert list(sp.kernel_s) == [1.0, 2.0, 4.0, 6.0]
    # the op lies between samples 1 and 2; samples 3 and 4 are too far off
    assert sp.scale(op_start, op_start + 10.0) == pytest.approx(1.0 / 1.5)
    # a short op just before sample 3 uses samples 2 and 3 only
    assert sp.scale(37.0, 37.5) == pytest.approx(1.0 / 3.0)
    # a 40 s op reaches 20 s either side, so all four count
    assert sp.scale(8.0, 48.0) == pytest.approx(1.0 / 3.25)
    assert sp.mean_s(1) == 4.0


def test_speed_without_samples_refuses_to_scale():
    sp = speed.Speed(lambda: 0.0, reference_s=1.0)
    with pytest.raises(ValueError):
        sp.scale(0.0, 1.0)


# -- tracer ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A two-module package: b imports a's functions by name."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import work\n")
    (pkg / "a.py").write_text(textwrap.dedent("""
        CLOCK = None

        def work(t):
            CLOCK.spend(t)
            return t

        def rows(n):
            for i in range(n):
                CLOCK.spend(1.0)
                yield work(0.5)

        def broken():
            raise ValueError("no")
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        from .a import work, rows, broken

        def outer():
            work(2.0)
            return sum(rows(3))

        def catches():
            try:
                broken()
            except ValueError:
                return 0
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.a
    import fakepkg.b

    clock = FakeClock()
    fakepkg.a.CLOCK = clock
    yield fakepkg, clock
    for name in [n for n in sys.modules if n.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_tracer_wraps_from_imports_and_times_generators_while_consumed(fakepkg):
    pkg, clock = fakepkg
    tracer = Tracer(clock=clock)
    patched = tracer.install("fakepkg")
    try:
        assert pkg.b.work is pkg.a.work is pkg.work
        assert patched == 9  # 3 names in a, 5 in b, 1 in the package itself
        gen = pkg.a.rows(2)
        clock.spend(10.0)  # creating a generator does no work
        assert list(gen) == [0.5, 0.5]
        clock.spend(10.0)
        pkg.b.outer()
    finally:
        tracer.uninstall()
    assert pkg.b.outer.__name__ == "outer" and not hasattr(pkg.b.outer, "__wrapped__")
    self_s, calls = tracer.self_times(), tracer.calls()
    assert calls == {"a.work": 6, "a.rows": 2, "a.broken": 0, "b.outer": 1, "b.catches": 0}
    assert self_s["a.work"] == pytest.approx(2.0 + 5 * 0.5)
    assert self_s["a.rows"] == pytest.approx(2 * 1.0 + 3 * 1.0)
    assert self_s["b.outer"] == pytest.approx(0.0)
    ids = np.frombuffer(tracer.span_id, dtype=np.int64)
    outer = ids[np.frombuffer(tracer.name, dtype=np.int64) == tracer.names.index("b.outer")]
    children = np.frombuffer(tracer.parent, dtype=np.int64) == outer[0]
    assert children.sum() == 2  # work(2.0) and the rows generator, not its items


def test_tracer_counts_each_exception_once_per_layer(fakepkg):
    pkg, clock = fakepkg
    tracer = Tracer(clock=clock)
    tracer.install("fakepkg")
    try:
        assert pkg.b.catches() == 0
        with pytest.raises(ValueError):
            pkg.a.broken()
    finally:
        tracer.uninstall()
    assert tracer.errors == {"a": 2}
    assert list(tracer.failed).count(1) == 2


def test_importtime_sums_outermost_entries_of_each_package():
    log = textwrap.dedent("""\
        import time: self [us] | cumulative | imported package
        import time:       100 |        100 |         scipy.sparse._base
        import time:       200 |        300 |       scipy.sparse
        import time:        50 |         50 |         scipy.optimize._a
        import time:        70 |        120 |       scipy.optimize._b
        import time:        30 |         30 |       scipy.optimize._c
        import time:       500 |        950 |   kitaev_diamond.gap
        import time:        10 |        960 | kitaev_diamond
        import time:         5 |          5 | kitaev_diamond.cli
    """)
    assert run.importtime_seconds(log) == pytest.approx(
        {"kitaev_diamond": 965e-6, "scipy.optimize": 150e-6, "scipy.sparse": 300e-6})
