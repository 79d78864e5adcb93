"""Property tests of the gap classifiers, the zero construction and the wrap.

The energy functions +-|f| are homogeneous of degree one in the couplings,
so every verdict must survive scaling by 2^k, and permuting or flipping the
sign of couplings only relabels the polygon.  Magnitudes are drawn from
{0} and [2^-20, 2], so no side scaled by 2^k for |k| <= 990 is subnormal.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kitaev_diamond import gap, spectrum

# the same examples on every run, however slow the machine
fixed = settings(derandomize=True, deadline=None, database=None)

magnitudes = st.one_of(st.just(0.0), st.floats(2.0**-20, 2.0))
couplings = st.lists(
    st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0]),
    min_size=2,
    max_size=8,
).map(np.array)
exponents = st.integers(-990, 990)


def _nonzero(J):
    return np.count_nonzero(J) >= 2


def _moves(data, n):
    """A permutation of n labels and a sign for each."""
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return np.array(perm), np.array(signs)


@fixed
@given(couplings, exponents)
def test_verdicts_invariant_under_power_of_two_scaling(J, k):
    scaled = np.ldexp(J, k)
    assert gap.has_zero(scaled) == gap.has_zero(J)
    if np.any(J):
        assert gap.gapped_region(scaled) == gap.gapped_region(J)
    if _nonzero(J):
        assert gap.polygon_exists(np.abs(scaled)) == gap.polygon_exists(np.abs(J))
    want, got = gap.find_zero(J), gap.find_zero(scaled)
    assert (want is None) == (got is None)
    if want is not None:
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64))


@fixed
@given(couplings.filter(lambda J: J.size <= 4), exponents)
def test_min_gap_numeric_scales_by_the_same_power(J, k):
    want = gap.min_gap_numeric(J, grid_n=8)
    assert gap.min_gap_numeric(np.ldexp(J, k), grid_n=8) == np.ldexp(want, k)


@fixed
@given(couplings, st.data())
def test_verdicts_covariant_under_permutation_and_sign(J, data):
    perm, signs = _moves(data, J.size)
    moved = signs * J[perm]
    assert gap.has_zero(moved) == gap.has_zero(J)
    if _nonzero(J):
        assert gap.polygon_exists(np.abs(moved)) == gap.polygon_exists(np.abs(J))


@fixed
@given(couplings)
def test_polygon_angles_close(J):
    a = np.abs(J[J != 0])
    assume(a.size >= 2 and gap.has_zero(a))
    theta = gap.polygon_angles(a)
    assert abs(np.sum(a * np.exp(1j * theta))) <= 1e-12 * a.sum()


@fixed
@given(couplings)
def test_classifiers_complementary(J):
    assume(np.any(J))
    assert gap.has_zero(J) != gap.gapped_region(J)


@fixed
@given(couplings)
def test_find_zero_is_a_zero(J):
    phi = gap.find_zero(J)
    assert (phi is None) == (not gap.has_zero(J))
    if phi is not None:
        assert abs(spectrum.f_of_q(J, phi)) <= 1e-9 * np.abs(J).sum()


@fixed
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_phase_wrap_lands_in_range_and_is_idempotent(phi):
    wrapped = spectrum.as_phases(phi)
    assert np.all((wrapped >= 0.0) & (wrapped < spectrum.TWO_PI))
    assert np.array_equal(spectrum.as_phases(wrapped), wrapped)


# nonzero magnitudes, pairwise distinct, so the polygon's side order is the same
# for every relabelling
distinct = st.lists(
    st.tuples(st.floats(2.0**-20, 2.0), st.booleans()),
    min_size=2,
    max_size=8,
    unique_by=lambda m: m[0],
).map(lambda ms: np.array([-m if negative else m for m, negative in ms]))


def _angle_distance(a, b):
    return np.abs((a - b + np.pi) % spectrum.TWO_PI - np.pi)


@fixed
@given(distinct, st.data())
def test_find_zero_covariant_under_permutation_and_sign(J, data):
    perm, signs = _moves(data, J.size)
    phi, moved = gap.find_zero(J), gap.find_zero(signs * J[perm])
    assert (phi is None) == (moved is None)
    if phi is not None:
        # side l of the moved polygon is side perm[l], turned by pi if flipped
        full = np.concatenate([[0.0], phi])[perm] + np.pi * (signs < 0)
        assert np.all(_angle_distance(moved, full[1:] - full[0]) <= 1e-12)


@fixed
@given(couplings.filter(lambda J: J.size <= 5), st.data())
def test_min_gap_numeric_invariant_under_permutation_and_sign(J, data):
    perm, signs = _moves(data, J.size)
    want = gap.min_gap_numeric(J)
    got = gap.min_gap_numeric(signs * J[perm])
    assert abs(got - want) <= 1e-6 * np.abs(J).sum()


@fixed
@given(couplings.filter(lambda J: J.size <= 5))
def test_min_gap_numeric_meets_the_closed_form_on_gapped_couplings(J):
    # gapped, the minimum of 2|f| is 2*(2 max|J| - sum|J|), to a few eps
    a = np.abs(J)
    assume(2.0 * a.max() > a.sum())
    closed = 2.0 * (2.0 * a.max() - a.sum())
    excess = gap.min_gap_numeric(J, grid_n=48) - closed
    assert abs(excess) <= 16.0 * np.finfo(float).eps * a.sum()
