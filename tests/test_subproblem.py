import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilgraph.graph import InvalidParameterError
from ilgraph.solver import THRESHOLD_TOP, threshold_subproblem


def subproblem_objective(x, a, c):
    return np.max(x ** 2) + np.sum(a * (x - c) ** 2)


def scan_oracle(a, c, grid=4001, refine=60):
    """Independent 1-D minimization. Every minimizer has the form
    x_i = min(c_i, tau): scan tau densely, then ternary-refine."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)

    def val(tau):
        return subproblem_objective(np.minimum(c, tau), a, c)

    taus = np.linspace(0.0, max(c.max(), 1e-12), grid)
    vals = [val(t) for t in taus]
    j = int(np.argmin(vals))
    lo = taus[max(j - 1, 0)]
    hi = taus[min(j + 1, grid - 1)]
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    tau = 0.5 * (lo + hi)
    return np.minimum(c, tau), val(tau)


def full_sort_reference(a, c):
    """The minimizer by one sort of every entry."""
    order = np.argsort(-c)
    cs, as_ = c[order], a[order]
    m = np.cumsum(as_ * cs) / (1.0 + np.cumsum(as_))
    t = np.count_nonzero(cs > m)
    return np.minimum(c, m[t - 1]) if t else c.copy()


class TestHandCases:
    def test_single_coordinate(self):
        # min x^2 + a (x - c)^2 has closed form x = a c / (a + 1)
        x = threshold_subproblem([3.0], [2.0])
        assert np.isclose(x[0], 6.0 / 4.0)

    def test_below_threshold_untouched(self):
        # small targets stay at c when the max is carried elsewhere
        x = threshold_subproblem([1.0, 1.0], [4.0, 0.5])
        assert np.isclose(x[1], 0.5)
        assert x[0] < 4.0

    def test_tied_targets_share_value(self):
        x = threshold_subproblem([1.0, 5.0], [2.0, 2.0])
        assert np.isclose(x[0], x[1])
        # merged group: x = (a1 + a2) c / (a1 + a2 + 1) = 12/7
        assert np.isclose(x[0], 12.0 / 7.0)

    def test_zero_targets(self):
        x = threshold_subproblem([1.0, 2.0], [0.0, 0.0])
        assert np.allclose(x, 0.0)

    def test_empty(self):
        assert threshold_subproblem([], []).size == 0

    def test_order_independence(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 3.0, size=6)
        c = rng.uniform(0.0, 2.0, size=6)
        x = threshold_subproblem(a, c)
        perm = rng.permutation(6)
        xp = threshold_subproblem(a[perm], c[perm])
        assert np.allclose(xp, x[perm])


class TestValidation:
    def test_rejects_nonpositive_a(self):
        with pytest.raises(InvalidParameterError):
            threshold_subproblem([0.0], [1.0])

    def test_rejects_negative_c(self):
        with pytest.raises(InvalidParameterError):
            threshold_subproblem([1.0], [-0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            threshold_subproblem([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("a", [np.nan, np.inf, [1.0, np.nan],
                                   [1.0, np.inf]])
    def test_rejects_non_finite_a(self, a):
        # a NaN weight used to return c unchanged
        with pytest.raises(InvalidParameterError, match="a_i"):
            threshold_subproblem(a, [1.0, 2.0])

    @pytest.mark.parametrize("c", [[np.nan, 1.0], [np.inf, 1.0],
                                   [1.0, np.inf]])
    def test_rejects_non_finite_c(self, c):
        # [nan, 1.0] used to give [nan, 0.5]; an infinite c_i came back as is
        with pytest.raises(InvalidParameterError, match="c_i"):
            threshold_subproblem(1.0, c)


class TestAgainstOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(1, 7)
            a = rng.uniform(0.05, 5.0, size=n)
            c = rng.uniform(0.0, 3.0, size=n)
            if rng.random() < 0.3 and n > 1:  # inject ties
                c[rng.integers(0, n)] = c[rng.integers(0, n)]
            if rng.random() < 0.2:  # inject zeros
                c[rng.integers(0, n)] = 0.0
            x = threshold_subproblem(a, c)
            _, oracle_val = scan_oracle(a, c)
            assert subproblem_objective(x, a, c) <= oracle_val + 1e-9

    def test_solution_structure(self):
        # optimal x is min(c_i, tau) for a common tau
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = rng.integers(2, 7)
            a = rng.uniform(0.1, 4.0, size=n)
            c = rng.uniform(0.0, 2.0, size=n)
            x = threshold_subproblem(a, c)
            clipped = x < c - 1e-12
            if clipped.any():
                assert np.ptp(x[clipped]) < 1e-10
                assert np.all(x[~clipped] <= x[clipped].max() + 1e-10)

    # targets from a few values, so most instances hold ties and zeros
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                              st.sampled_from([0.05, 0.3, 1.0, 4.0])),
                    min_size=1, max_size=8))
    def test_ties_and_zeros_against_oracle(self, pairs):
        c, a = np.array(pairs).T
        x = threshold_subproblem(a, c)
        assert np.all(x <= c)
        _, oracle_val = scan_oracle(a, c)
        assert subproblem_objective(x, a, c) <= oracle_val + 1e-9
        # tied targets share one value
        for value in np.unique(c):
            assert np.ptp(x[c == value]) == 0.0


class TestPartialSort:
    """Only the largest entries are sorted; with the constant a that the D
    update passes, the result is bitwise that of sorting them all."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4 * THRESHOLD_TOP),
           a=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 4.0, 50.0]),
           seed=st.integers(0, 2 ** 32 - 1),
           distinct=st.sampled_from([0, 3, 50]), tail=st.booleans())
    def test_bitwise_equal_to_full_sort(self, n, a, seed, distinct, tail):
        # a small a clips many entries (more than THRESHOLD_TOP: the
        # candidate path), a large one few; drawn from a few distinct
        # values (none: continuous), the entries tie across the partition's
        # boundary
        rng = np.random.default_rng(seed)
        c = (rng.choice(rng.uniform(0.0, 3.0, size=distinct), size=n)
             if distinct else rng.exponential(size=n))
        if tail:  # a long tail of equal small entries
            c[rng.random(n) < 0.7] = 0.25
        a = np.full(n, a)
        assert np.array_equal(threshold_subproblem(a, c),
                              full_sort_reference(a, c))

    @pytest.mark.parametrize("clipped", [THRESHOLD_TOP // 2, THRESHOLD_TOP,
                                         THRESHOLD_TOP + 1, 5 * THRESHOLD_TOP])
    def test_both_paths(self, clipped):
        # a = 1 and one group of g equal entries 2 over n - g ones: the group
        # is clipped to 2g / (1 + g) > 1 and no other entry is, so g entries
        # are clipped. From THRESHOLD_TOP on, all of the partition's entries
        # are clipped and the candidates are sorted; every g but
        # THRESHOLD_TOP puts the partition's boundary inside a tied group.
        n = 8 * THRESHOLD_TOP
        c = np.ones(n)
        c[np.random.default_rng(clipped).choice(n, clipped, replace=False)] = 2.0
        a = np.ones(n)
        x = threshold_subproblem(a, c)
        assert np.count_nonzero(x < c) == clipped
        assert np.array_equal(x, full_sort_reference(a, c))


class TestScalarWeight:
    """A scalar a weighs every entry alike: bitwise the result for the
    array of that a, validated once."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3 * THRESHOLD_TOP),
           a=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 4.0, 50.0]),
           seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans(),
           zeros=st.booleans())
    def test_bitwise_equal_to_array(self, n, a, seed, ties, zeros):
        rng = np.random.default_rng(seed)
        c = (rng.choice(rng.uniform(0.0, 3.0, size=3), size=n) if ties
             else rng.exponential(size=n))
        if zeros:
            c[rng.random(n) < 0.3] = 0.0
        assert np.array_equal(threshold_subproblem(a, c),
                              threshold_subproblem(np.full(n, a), c))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            threshold_subproblem(0.0, [1.0, 2.0])

    def test_empty(self):
        assert threshold_subproblem(1.0, []).size == 0
