"""Refinement chains, permuted variants, and the sum-form bounds."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import skewbounds.bounds
from conftest import point_arrays, random_density, random_hermitian, random_unitary
from oracles import (
    chain_Ik_step,
    enumerated_product_bound,
    loop_sum_bound,
    pairwise_sum_bound_norm,
    parallelogram_value,
    spq_step_identities,
    tuple_spread,
)
from skewbounds.bounds import (
    SearchStrategy,
    best_permuted_product_bound,
    chain_Ik,
    check_product_chain,
    check_sum_report,
    product_chain,
    spq_order,
    sum_bound_norm,
    sum_bound_report,
    sum_bound_parallelogram,
    table_Spq,
)
from skewbounds.errors import (
    ComplexityRefusal,
    DimensionMismatch,
    LengthMismatch,
    ValidationError,
)
from skewbounds.linalg import DensityMatrix
from skewbounds.loo import expand, gram_matrix, loo_basis, modulus_vector
from skewbounds.metrics import make_metric
from skewbounds.skewinfo import correlation_matrix, skew_information

WY = make_metric("wy")

# entries drawn from a few exact values, one decimal, or anywhere, so that
# equal components, equal vectors and tied candidate values all occur
tie_prone_entries = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(0.0, 3.0).map(lambda v: round(v, 1)),
    st.floats(0.0, 3.0),
)


def tie_prone_vectors(counts, lengths):
    """Lists of equal-length vectors of tie-prone entries; in some, the
    second vector repeats the first."""

    def build(shape):
        N, n = shape
        vec = st.lists(tie_prone_entries, min_size=n, max_size=n)
        family = st.lists(vec, min_size=N, max_size=N)
        return st.tuples(family, st.booleans()).map(
            lambda fb: fb[0][:1] * 2 + fb[0][2:] if fb[1] else fb[0]
        )

    return st.tuples(counts, lengths).flatmap(build)


modulus_vectors = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n),
    )
)


def brute_force_Ik(x, y, k):
    """Direct transcription of the defining sum, for cross-checking."""
    n = len(x)
    val = sum(x[i] ** 2 * y[i] ** 2 for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if j < k:
                val += 2 * x[i] * y[i] * x[j] * y[j]
            else:
                val += x[i] ** 2 * y[j] ** 2 + x[j] ** 2 * y[i] ** 2
    return val


class TestChainIk:
    def test_single_component(self):
        assert np.allclose(chain_Ik([1, 0, 0], [1, 0, 0]), [1, 1, 1])

    def test_two_component_toy(self):
        assert np.allclose(chain_Ik([1, 1], [1, 1]), [4, 4])

    def test_endpoints(self):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 2, size=(2, 5))
        I = chain_Ik(x, y)
        assert I[0] == pytest.approx(np.sum(x**2) * np.sum(y**2), abs=1e-12)
        assert I[-1] == pytest.approx(np.sum(x * y) ** 2, abs=1e-12)

    @given(modulus_vectors)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, xy):
        x, y = (np.array(v) for v in xy)
        I = chain_Ik(x, y)
        for k in range(1, len(x) + 1):
            assert I[k - 1] == pytest.approx(brute_force_Ik(x, y, k), abs=1e-9)

    @given(modulus_vectors)
    @settings(max_examples=60, deadline=None)
    def test_consecutive_difference_identity(self, xy):
        x, y = (np.array(v) for v in xy)
        I = chain_Ik(x, y)
        for k in range(1, len(x)):
            assert I[k] - I[k - 1] == pytest.approx(
                chain_Ik_step(x, y, k), abs=1e-10
            )

    @given(modulus_vectors)
    @settings(max_examples=60, deadline=None)
    def test_non_increasing(self, xy):
        I = chain_Ik(*xy)
        assert np.all(np.diff(I) <= 1e-10)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            chain_Ik([1, 2], [1, 2, 3])


class TestTableSpq:
    def test_proportional_vectors_all_equal(self):
        x = np.array([0.3, 1.1, 0.0, 2.0])
        S = table_Spq(x, 2 * x)
        head = S[0]
        assert all(v == pytest.approx(head, abs=1e-12) for v in S)

    @given(modulus_vectors)
    @settings(max_examples=60, deadline=None)
    def test_s_pp1_equals_Ip(self, xy):
        x, y = (np.array(v) for v in xy)
        I = chain_Ik(x, y)
        S = dict(zip(spq_order(len(x)), table_Spq(x, y)))
        for p in range(2, len(x) + 1):
            assert S[(p, p - 1)] == pytest.approx(I[p - 1], abs=1e-10)
        assert S[(1, 0)] == pytest.approx(I[0], abs=1e-10)

    @given(modulus_vectors)
    @settings(max_examples=60, deadline=None)
    def test_descending_along_order(self, xy):
        vals = table_Spq(*xy)
        assert len(vals) == len(spq_order(len(xy[0])))
        assert np.all(np.diff(vals) <= 1e-10)

    @given(modulus_vectors)
    @settings(max_examples=60, deadline=None)
    def test_difference_identities(self, xy):
        for name, lhs, rhs in spq_step_identities(*xy):
            assert lhs == pytest.approx(rhs, abs=1e-10), name

    def test_order_shape(self):
        assert spq_order(3) == [(1, 0), (2, 1), (3, 1), (3, 2)]


class TestPermutedProductBound:
    def test_equal_vectors_saturate(self):
        x = np.array([1.0, 2.0, 0.5])
        val, (pa, pb), index = best_permuted_product_bound(x, x)
        assert val == pytest.approx(np.sum(x**2) ** 2, abs=1e-12)
        assert index == (2,)

    def test_two_component_brute_force(self):
        x, y = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        val, _, _ = best_permuted_product_bound(x, y)
        # enumerate all 4 permutation pairs by hand
        best = -np.inf
        for pa in itertools.permutations(range(2)):
            for pb in itertools.permutations(range(2)):
                xs, ys = x[list(pa)], y[list(pb)]
                best = max(best, chain_Ik(xs, ys)[1])
        assert val == pytest.approx(best, abs=1e-12)
        assert val == pytest.approx(25.0, abs=1e-12)

    def test_identity_pair_reproduces_chain_head(self):
        rng = np.random.default_rng(1)
        x, y = rng.uniform(0, 2, size=(2, 4))
        val, _, _ = best_permuted_product_bound(x, y)
        assert val >= chain_Ik(x, y)[1] - 1e-12

    def test_never_exceeds_product(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            x, y = rng.uniform(0, 2, size=(2, 4))
            product = float(np.sum(x**2) * np.sum(y**2))
            val, _, _ = best_permuted_product_bound(x, y)
            assert val <= product + 1e-10

    def test_sampled_strategy_bounded_and_deterministic(self):
        # n = 9, (9!)^2 pairs: the optimum is exact, with no sampling to seed
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0, 2, size=(2, 9))
        v1, w1, _ = best_permuted_product_bound(x, y)
        v2, w2, _ = best_permuted_product_bound(x, y)
        assert v1 == v2 and w1 == w2
        assert v1 <= float(np.sum(x**2) * np.sum(y**2)) + 1e-10

    def test_exact_optimum_beyond_enumeration_cap(self):
        # (9!)^2 pairs would exceed the cap; the quadruple optimum needs 9^4
        x = np.ones(9)
        val, (pa, pb), _ = best_permuted_product_bound(x, x)
        assert val == 81.0
        assert pa == pb == (0, 1, 2, 3, 4, 5, 6, 7, 8)
        rng = np.random.default_rng(16)
        x, y = rng.uniform(0, 2, size=(2, 9))
        total = float(np.sum(x * x) * np.sum(y * y))
        best = max(
            total - (x[i] * y[l] - y[k] * x[j]) ** 2
            for i, j, k, l in itertools.product(range(9), repeat=4)
            if i != j and k != l
        )
        val, (pa, pb), _ = best_permuted_product_bound(x, y)
        assert val == best
        assert sorted(pa) == sorted(pb) == list(range(9))
        assert val == total - (x[pa[0]] * y[pb[1]] - y[pb[0]] * x[pa[1]]) ** 2

    @given(tie_prone_vectors(st.just(2), st.integers(2, 4)))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, xy):
        x, y = (np.array(v) for v in xy)
        val, pair, _ = best_permuted_product_bound(x, y)
        assert (val, pair) == enumerated_product_bound(x, y)

    def test_needs_two_components(self):
        with pytest.raises(DimensionMismatch):
            best_permuted_product_bound([1.0], [2.0])


class TestParallelogramSumBound:
    def test_all_equal_saturation(self):
        X = np.array([0.5, 1.5, 0.0, 2.0])
        for N in (2, 3, 4):
            val, witness = sum_bound_parallelogram([X] * N)
            assert val == pytest.approx(N * float(np.sum(X**2)), abs=1e-10)
            assert len(witness) == N

    def test_n2_parallelogram_exact(self):
        rng = np.random.default_rng(4)
        X1, X2 = rng.uniform(0, 2, size=(2, 3))
        identity = tuple(range(3))
        val = parallelogram_value([X1, X2], [identity, identity])
        assert val == pytest.approx(
            0.5 * (np.sum((X1 + X2) ** 2) + np.sum((X1 - X2) ** 2)), abs=1e-12
        )
        assert val == pytest.approx(np.sum(X1**2) + np.sum(X2**2), abs=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_parallelogram_identity(self, N):
        rng = np.random.default_rng(10 + N)
        for _ in range(20):
            vecs = [rng.uniform(-2, 2, size=4) for _ in range(N)]
            plus = sum(
                np.sum((vecs[i] + vecs[j]) ** 2)
                for i in range(N)
                for j in range(i + 1, N)
            )
            minus = sum(
                np.sum((vecs[i] - vecs[j]) ** 2)
                for i in range(N)
                for j in range(i + 1, N)
            )
            lhs = (2 * N - 2) * sum(np.sum(v**2) for v in vecs)
            assert lhs == pytest.approx(plus + minus, abs=1e-10)

    def test_every_candidate_tuple_is_valid(self):
        # the bound must hold for each tuple individually, not just the max
        rng = np.random.default_rng(5)
        vecs = [rng.uniform(0, 2, size=4) for _ in range(3)]
        total = sum(float(np.sum(v**2)) for v in vecs)
        for rest in itertools.product(itertools.permutations(range(4)), repeat=2):
            tup = [tuple(range(4))] + list(rest)
            assert parallelogram_value(vecs, tup) <= total + 1e-9

    def test_common_permutation_invariance(self):
        rng = np.random.default_rng(6)
        vecs = [rng.uniform(0, 2, size=4) for _ in range(3)]
        tup = [tuple(rng.permutation(4)) for _ in range(3)]
        sigma = tuple(rng.permutation(4))
        composed = [tuple(p[s] for s in sigma) for p in tup]
        assert parallelogram_value(vecs, tup) == pytest.approx(
            parallelogram_value(vecs, composed), abs=1e-12
        )

    def test_exhaustive_refusal_beyond_cap(self):
        vecs = [np.ones(9)] * 3  # (9!)^2 tuples
        with pytest.raises(ComplexityRefusal):
            sum_bound_parallelogram(vecs)

    def test_sampled_strategy(self):
        rng = np.random.default_rng(7)
        vecs = [rng.uniform(0, 2, size=9) for _ in range(3)]
        strat = SearchStrategy(kind="sampled", n_samples=30, seed=1)
        val, witness = sum_bound_parallelogram(vecs, strat)
        total = sum(float(np.sum(v**2)) for v in vecs)
        assert val <= total + 1e-9

    def test_needs_two_observables(self):
        with pytest.raises(DimensionMismatch):
            sum_bound_parallelogram([np.ones(4)])

    @pytest.mark.parametrize("kind", ["exhaustive", "sampled"])
    def test_nan_modulus_gives_nan(self, kind):
        # every candidate tuple evaluates to nan: the bound is nan, with the
        # first candidate, the identity, as its witness
        vecs = np.ones((3, 4))
        vecs[1, 2] = np.nan
        val, witness = sum_bound_parallelogram(vecs, SearchStrategy(kind=kind))
        assert np.isnan(val)
        assert witness == [tuple(range(4))] * 3

    def test_invalid_strategy(self):
        with pytest.raises(ValidationError):
            SearchStrategy(kind="annealing")
        with pytest.raises(ValidationError):
            SearchStrategy(kind="sampled", n_samples=-1)
        with pytest.raises(ValidationError):
            SearchStrategy(kind="sampled", seed=-1)


class TestSearchEquivalence:
    """The array searches against the tuple-at-a-time loops in oracles.py."""

    @given(
        tie_prone_vectors(st.integers(3, 4), st.just(4)),
        st.sampled_from(["exhaustive", "sampled"]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    # the paper's form squared a Python float with ** (libm pow, half an ulp
    # off here), and the kernel and the loop differed in the last bit
    @example(
        vecs=[
            [0.0, 0.0, 0.0, 1.0656124282827204],
            [2.4838550680246323, 0.2, 3.0, 2.750625626892967],
            [1.3144926892798487, 1.1, 2.0, 2.0],
        ],
        kind="sampled",
        seed=44905,
    )
    def test_kernel_equals_loop(self, vecs, kind, seed):
        vecs = [np.array(v) for v in vecs]
        if kind == "exhaustive" and len(vecs) == 4:
            kind = "sampled"  # N = 4 exhaustive has its own, shorter test
        strategy = SearchStrategy(kind=kind, n_samples=60, seed=seed)
        assert sum_bound_parallelogram(vecs, strategy) == loop_sum_bound(vecs, strategy)

    @given(tie_prone_vectors(st.just(4), st.just(4)))
    @settings(max_examples=3, deadline=None)
    def test_kernel_equals_loop_n4_exhaustive(self, vecs):
        # 13,824 tuples: about a second per example in the loop
        vecs = [np.array(v) for v in vecs]
        assert sum_bound_parallelogram(vecs) == loop_sum_bound(vecs)

    @given(
        st.integers(3, 5).flatmap(
            lambda N: st.integers(2, 5).flatmap(
                lambda n: st.lists(
                    st.tuples(
                        st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n),
                        st.permutations(range(n)),
                    ),
                    min_size=N,
                    max_size=N,
                )
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_spread_form_is_the_paper_form(self, family):
        # parallelogram law: the paper's value of a tuple is sum_i ||Xi||^2
        # minus the spread of its pair distances
        vecs = [np.array(v) for v, _ in family]
        perms = [p for _, p in family]
        want = parallelogram_value(vecs, perms)
        got = sum(float(np.sum(v * v)) for v in vecs) - tuple_spread(vecs, perms)
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_sampled_draws_in_chunks(self, monkeypatch, chunk):
        # chunk boundaries fall inside the draws, and integer entries make
        # ties across them: the values and witnesses are those of one draw
        # of all the rows, and of the loop's successive rng.permutation calls
        X = np.random.default_rng(12).integers(0, 3, size=(5, 3, 4)).astype(float)
        strategy = SearchStrategy(kind="sampled", n_samples=200, seed=3)
        whole = sum_bound_parallelogram(X, strategy)
        monkeypatch.setattr(skewbounds.bounds, "_CHUNK_ROWS", chunk)
        values, witnesses = sum_bound_parallelogram(X, strategy)
        assert np.array_equal(values, whole[0])
        assert witnesses == whole[1]
        for x, value, witness in zip(X, values.tolist(), witnesses):
            assert (value, witness) == loop_sum_bound(x, strategy)

    def test_sampled_memory_does_not_grow_with_samples(self, monkeypatch):
        # one d = 4, N = 3 family: the candidate rows are drawn a chunk at a
        # time, so twenty times the samples take about the same memory
        monkeypatch.setattr(skewbounds.bounds, "_CHUNK_ROWS", 512)
        X = np.random.default_rng(13).uniform(0, 2, size=(3, 16))
        peaks = []
        for n_samples in (2_000, 40_000):
            tracemalloc.start()
            try:
                sum_bound_parallelogram(X, SearchStrategy("sampled", n_samples, seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @given(tie_prone_vectors(st.just(2), st.integers(2, 5)))
    @settings(max_examples=40, deadline=None)
    def test_n2_closed_form(self, vecs):
        vecs = [np.array(v) for v in vecs]
        loop_val, _ = loop_sum_bound(vecs)
        for kind in ("exhaustive", "sampled"):
            val, witness = sum_bound_parallelogram(vecs, SearchStrategy(kind=kind))
            assert abs(val - loop_val) <= 1e-12 * max(loop_val, 1e-300)
            assert witness == [tuple(range(len(vecs[0])))] * 2


class TestSumBoundNorm:
    def test_all_equal_saturation(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 2)
        A = random_hermitian(rng, 2)
        for N in (2, 3):
            val = sum_bound_norm(correlation_matrix(rho, [A] * N, WY))
            assert val == pytest.approx(N * skew_information(rho, A, WY), abs=1e-10)

    def test_sign_flip_saturation(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 2)
        A = random_hermitian(rng, 2)
        val = sum_bound_norm(correlation_matrix(rho, [A, -A], WY))
        assert val == pytest.approx(2 * skew_information(rho, A, WY), abs=1e-10)

    def test_independent_reimplementation(self):
        # brute-force transcription of the same max-over-signs formula
        rng = np.random.default_rng(10)
        rho = random_density(rng, 2)
        obs = [random_hermitian(rng, 2) for _ in range(3)]
        N = len(obs)
        cands = []
        for xbit in (0, 1):
            root = sum(
                np.sqrt(skew_information(rho, obs[i] + (-1) ** xbit * obs[j], WY))
                for i in range(N)
                for j in range(i + 1, N)
            )
            lin = sum(
                skew_information(rho, obs[i] + (-1) ** (xbit + 1) * obs[j], WY)
                for i in range(N)
                for j in range(i + 1, N)
            )
            cands.append(
                (2 / (N * (N - 1)) * root**2 + lin) / (2 * N - 2)
            )
        assert sum_bound_norm(correlation_matrix(rho, obs, WY)) == pytest.approx(
            max(cands), abs=1e-12
        )

    @pytest.mark.parametrize("scale", [1.0, 1000.0])
    def test_matches_pairwise_oracle(self, scale):
        rng = np.random.default_rng(17)
        metrics = [WY, make_metric("sld"), make_metric("wyd", 0.25)]
        for N in (2, 3, 4):
            for _ in range(15):
                d = int(rng.integers(2, 5))
                rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
                obs = [scale * random_hermitian(rng, d) for _ in range(N)]
                m = metrics[int(rng.integers(len(metrics)))]
                K = correlation_matrix(rho, obs, m)
                want = pairwise_sum_bound_norm(rho, obs, m)
                assert abs(sum_bound_norm(K) - want) <= 1e-12 * max(1.0, want)

    def test_two_observables_give_the_sum(self):
        # I(A + B) + I(A - B) = 2 I(A) + 2 I(B) under either sign choice
        rng = np.random.default_rng(18)
        for _ in range(20):
            rho = random_density(rng, 3)
            K = correlation_matrix(rho, [random_hermitian(rng, 3) for _ in range(2)], WY)
            total = K[0, 0].real + K[1, 1].real
            assert abs(sum_bound_norm(K) - total) <= 1e-12 * total

    def test_bounded_by_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            obs = [random_hermitian(rng, d) for _ in range(3)]
            total = sum(skew_information(rho, A, WY) for A in obs)
            assert sum_bound_norm(correlation_matrix(rho, obs, WY)) <= total + 1e-9


class TestProductChain:
    def test_self_pair_saturates(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 2)
        A = random_hermitian(rng, 2)
        K, (x, y) = point_arrays(rho, [A, A], WY)
        pc = product_chain(K, x, y)
        assert pc.cauchy == pytest.approx(pc.product, abs=1e-10)
        check_product_chain(pc)

    def test_random_instances_pass_all_invariants(self):
        rng = np.random.default_rng(13)
        metrics = [WY, make_metric("sld"), make_metric("wyd", 0.25)]
        for _ in range(40):
            d = int(rng.integers(2, 4))
            rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            A = random_hermitian(rng, d)
            B = random_hermitian(rng, d)
            m = metrics[int(rng.integers(len(metrics)))]
            K, (x, y) = point_arrays(rho, [A, B], m)
            check_product_chain(product_chain(K, x, y))

    def test_endpoints_are_gauge_free(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 2)
        A = random_hermitian(rng, 2)
        B = random_hermitian(rng, 2)
        basis = loo_basis(2)
        C = gram_matrix(rho, basis, WY)
        a, b = expand(A, basis), expand(B, basis)
        f0, g0 = C @ a, C @ b
        K, (x, y) = point_arrays(rho, [A, B], WY)
        pc = product_chain(K, x, y)
        for _ in range(5):
            U = random_unitary(rng, 4)
            x, y = np.abs(U @ f0), np.abs(U @ g0)
            I = chain_Ik(x, y)
            assert I[0] == pytest.approx(pc.I_seq[0], abs=1e-9)
            assert I[-1] >= pc.cauchy - 1e-9


class TestSumBoundReport:
    def test_report_consistent(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng, 2)
        obs = [random_hermitian(rng, 2) for _ in range(3)]
        report = sum_bound_report(*point_arrays(rho, obs, WY))
        check_sum_report(report)
        assert report.sum_value == pytest.approx(
            sum(skew_information(rho, A, WY) for A in obs), abs=1e-12
        )
        assert len(report.witness_perms) == 3

    def test_pair_bound_is_the_sum(self):
        # parallelogram law: every tuple of a pair gives I(A1) + I(A2).  Pure
        # and low-rank states have rank-deficient Gram matrices, whose factor
        # put the searched bound above the sum on some of them.
        rng = np.random.default_rng(16)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d, rank=int(rng.integers(1, d)))
            m = WY if rng.integers(2) else make_metric("wyd", float(rng.uniform(0.05, 0.95)))
            K, moduli = point_arrays(rho, [random_hermitian(rng, d) for _ in range(2)], m)
            report = sum_bound_report(K, moduli)
            assert report.parallelogram == report.sum_value
            assert report.witness_perms == [tuple(range(d * d))] * 2
            check_sum_report(report)
            # only the moduli's shape is read
            stacked = sum_bound_report(K[None], np.full((1, *moduli.shape), np.nan))
            assert stacked.parallelogram.tobytes() == np.array([report.sum_value]).tobytes()
            assert stacked.witness_perms == [report.witness_perms]

    def test_bounds_never_exceed_the_sum(self):
        # moduli one part in 1e8 too long, as a rounded Gram factor can give
        # them, put the bound searched over them above the sum of K
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        A = random_hermitian(rng, 2)
        K, X = point_arrays(rho, [A, A, A], WY)
        report = sum_bound_report(K, X * (1 + 1e-8))
        assert report.parallelogram <= report.sum_value
        assert report.norm_bound <= report.sum_value
        check_sum_report(report)

    @given(
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
        st.floats(1e-3, 1e3),
        st.integers(0, 3),
        st.sampled_from([None, 1e300, -1e300, np.inf, -np.inf, np.nan]),
    )
    @example(3, 0, 1.0, 2, np.nan)
    @example(4, 1, 1.0, 0, np.inf)
    @settings(max_examples=60, deadline=None)
    def test_bounds_at_most_the_trace(self, N, seed, scale, T, special):
        # both bounds are the trace of K minus a spread, whatever K and the
        # moduli are; for a pair both spreads are 0.  So check_sum_report,
        # which the command line does not run, cannot fail: not on stacks
        # (T = 0 is a single point), nor with entries of K that overflow or
        # are not finite, where a bound is NaN or infinite
        rng = np.random.default_rng(seed)
        shape = (N, N) if T == 0 else (T, N, N)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        K = scale * (G @ G.conj().swapaxes(-2, -1))
        if special is not None:
            K.reshape(-1, N * N)[:, rng.integers(N * N, size=2)] = special
        moduli = rng.uniform(0.0, 2.0, size=shape[:-1] + (4,))
        with np.errstate(all="ignore"):
            report = sum_bound_report(K, moduli, SearchStrategy("sampled", n_samples=20))
            total = np.trace(K, axis1=-2, axis2=-1).real
            check_sum_report(report)
        assert np.array_equal(report.sum_value, total, equal_nan=True)
        for bound in (report.norm_bound, report.parallelogram):
            finite = np.isfinite(bound)
            assert np.all(np.asarray(bound)[finite] <= np.asarray(total)[finite])
        if N == 2:
            assert np.array_equal(report.parallelogram, total, equal_nan=True)
            finite = np.isfinite(report.norm_bound)
            assert np.array_equal(
                np.asarray(report.norm_bound)[finite], np.asarray(total)[finite]
            )
