"""Stacked kernels against the point-at-a-time references in oracles.py.

A sweep evaluates its grid as stacks of points.  Each stacked kernel is fed
the same input as its one-point reference, point by point, and must agree
within 1e-10 max(1, |product|), the program's own equality tolerance; the
stacked checks must report the first failing point with the reference's
message.  The stacked permutation search keeps the reference's arithmetic,
so its values must be equal and its witnesses identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density, random_hermitian
from oracles import (
    loop_chain_Ik,
    loop_check_product_chain,
    loop_cholesky_psd,
    loop_state_entries,
    loop_sum_bound,
    loop_table_Spq,
    pairwise_correlation,
)
from skewbounds.bounds import (
    ProductChain,
    SearchStrategy,
    chain_Ik,
    check_product_chain,
    product_chain,
    spq_order,
    sum_bound_parallelogram,
    table_Spq,
)
from skewbounds.errors import InvariantViolation, ValidationError
from skewbounds.linalg import DensityMatrix
from skewbounds.loo import cholesky_psd, expand, loo_basis, modulus_vector
from skewbounds.metrics import make_metric
from skewbounds.scenario import Scenario
from skewbounds.skewinfo import correlation_matrix


def stacked_family(seed, d, kind):
    """A stack of 1-4 seeded states of random rank, two observables and a metric."""
    rng = np.random.default_rng(seed)
    m = make_metric("wyd", 0.3) if kind == "wyd" else make_metric(kind)
    states = [
        random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        for _ in range(int(rng.integers(1, 5)))
    ]
    obs = np.array([random_hermitian(rng, d) for _ in range(2)])
    return states, obs, m


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 5),
    kind=st.sampled_from(["wy", "sld", "wyd"]),
)
@settings(max_examples=60, deadline=None)
def test_stacked_kernels_match_point_references(seed, d, kind):
    states, obs, m = stacked_family(seed, d, kind)
    stack = DensityMatrix.from_matrix(np.array([s.matrix for s in states]))
    basis = loo_basis(d)
    coeffs = expand(obs, basis)
    K = correlation_matrix(stack, obs, m)
    gamma = correlation_matrix(stack, basis, m)
    moduli = modulus_vector(cholesky_psd(gamma), coeffs)
    I = chain_Ik(moduli[:, 0], moduli[:, 1])
    S = table_Spq(moduli[:, 0], moduli[:, 1])
    for t, state in enumerate(states):
        rho = DensityMatrix.from_matrix(state.matrix)
        K_ref = np.array([[pairwise_correlation(rho, a, b, m) for b in obs] for a in obs])
        tol = 1e-10 * max(1.0, abs(K_ref[0, 0].real * K_ref[1, 1].real))
        assert np.all(np.abs(K[t] - K_ref) <= tol)
        assert np.all(np.abs(gamma[t] - correlation_matrix(rho, basis, m)) <= 1e-10)
        x, y = np.abs(loop_cholesky_psd(gamma[t]) @ coeffs.T).T
        assert np.all(np.abs(moduli[t] - [x, y]) <= tol)
        x, y = moduli[t]
        assert np.all(np.abs(I[t] - loop_chain_Ik(x, y)) <= tol)
        S_ref = loop_table_Spq(x, y)
        assert np.all(np.abs(S[t] - [S_ref[key] for key in spq_order(d * d)]) <= tol)


@st.composite
def zero_patterned_stacks(draw):
    """Stacks (T, N, n) of tie-prone modulus vectors, T = 1-12, N = 3-4.

    Their exact zeros are shared by every point, drawn for each point (so a
    stack holds several zero patterns), or absent.  n stays where the
    exhaustive reference loop takes at most 576 tuples a point.
    """
    T = draw(st.integers(1, 12))
    N = draw(st.integers(3, 4))
    n = draw(st.integers(2, 4 if N == 3 else 3))
    entries = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 2.0))
    X = np.array(draw(st.lists(entries, min_size=T * N * n, max_size=T * N * n)))
    X = X.reshape(T, N, n)
    zeros = draw(st.sampled_from(["shared", "per-point", "none"]))
    masks = st.lists(st.booleans(), min_size=N * n, max_size=N * n)
    if zeros == "shared":
        X[:, np.array(draw(masks)).reshape(N, n)] = 0.0
    elif zeros == "per-point":
        X[np.array([draw(masks) for _ in range(T)]).reshape(T, N, n)] = 0.0
    else:
        X[X == 0.0] = 1.5
    return X


@given(
    zero_patterned_stacks(),
    st.sampled_from(["exhaustive", "sampled"]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_stacked_sum_search_matches_loop(X, kind, seed):
    strategy = SearchStrategy(kind=kind, n_samples=20, seed=seed)
    values, witnesses = sum_bound_parallelogram(X, strategy)
    assert len(values) == len(witnesses) == len(X)
    for t, family in enumerate(X):
        value, witness = loop_sum_bound(family, strategy)
        assert values[t] == value
        assert witnesses[t] == witness


def test_block_size_leaves_sum_search_alone():
    # at n >= 8, numpy's sum over the last axis of the gathered families
    # changed its order with the number of points in a pass, so a family's
    # value moved in the last bit with the size of its block
    for seed in range(10):
        rng = np.random.default_rng(seed)
        N, n = 3 + seed % 2, 8 + seed % 3
        X = rng.uniform(0.0, 2.0, size=(3, N, n))
        strategy = SearchStrategy(kind="sampled", n_samples=20, seed=seed)
        values, witnesses = sum_bound_parallelogram(X, strategy)
        for t, family in enumerate(X):
            assert (values[t], witnesses[t]) == sum_bound_parallelogram(family, strategy)
            assert (values[t], witnesses[t]) == loop_sum_bound(family, strategy)


def violation(fn):
    try:
        fn()
    except InvariantViolation as exc:
        return exc
    return None


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_stacked_check_reports_the_first_failing_point(seed, d):
    # chains with one entry of the product, the Cauchy bound or the S table
    # moved, on some points, the I chain following S: the stacked check
    # raises at the first point whose one-point check raises, with its message
    states, obs, m = stacked_family(seed, d, "wy")
    rng = np.random.default_rng(seed)
    stack = DensityMatrix.from_matrix(np.array([s.matrix for s in states]))
    basis = loo_basis(d)
    moduli = modulus_vector(cholesky_psd(correlation_matrix(stack, basis, m)), expand(obs, basis))
    pc = product_chain(correlation_matrix(stack, obs, m), moduli[:, 0], moduli[:, 1])
    values = [pc.product.copy(), pc.cauchy.copy(), pc.S_table.copy()]
    for t in range(len(states)):
        if rng.random() < 0.5:
            which = int(rng.integers(3))
            target = values[which][t : t + 1] if which < 2 else values[which][t]
            target[int(rng.integers(target.size))] += rng.choice([-1.0, 1.0]) * rng.uniform(0, 2)
    product, cauchy, S = values
    size = float(np.linalg.norm(obs[0]) * np.linalg.norm(obs[1])) ** 2
    keys = spq_order(d * d)
    expected = None
    for t in range(len(states)):
        table = dict(zip(keys, S[t].tolist()))
        exc = violation(lambda: loop_check_product_chain(
            float(product[t]), float(cauchy[t]), table, size=size))
        if exc is not None:
            expected = (t, str(exc))
            break
    exc = violation(lambda: check_product_chain(ProductChain(product, cauchy, S), size=size))
    assert (exc and (exc.row, str(exc))) == (expected or None)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_single_point_and_stack_of_one_agree(n):
    rng = np.random.default_rng(n)
    x, y = rng.uniform(0, 2, size=(2, n))
    assert np.array_equal(chain_Ik(x, y), chain_Ik(x[None], y[None])[0])
    assert np.array_equal(table_Spq(x, y), table_Spq(x[None], y[None])[0])


# valid states whose entries include -0.0, which re + 1j*im would turn into 0.0
STATE_SPECS = {
    "bloch": ("from_bloch", ("0.5*cos(theta)", "-0.0*theta", 0.5)),
    "pure": ("from_pure", (("cos(theta)", "-0.0*theta"), ("sin(theta)", 0.0))),
    "density": (
        "from_matrix",
        (
            (("cos(theta)**2", 0.0), ("0.3*sin(theta)*cos(theta)", "-0.0*theta")),
            (("0.3*sin(theta)*cos(theta)", "-0.0"), ("sin(theta)**2", -0.0)),
        ),
    ),
}


@pytest.mark.parametrize("kind", list(STATE_SPECS))
def test_state_entries_match_point_evaluation(monkeypatch, kind):
    # the stack handed to the state's constructor holds, bit for bit, the
    # numbers a point-by-point evaluation gives, signs of zeros included
    builder, spec = STATE_SPECS[kind]
    received = []
    original = getattr(DensityMatrix, builder)
    monkeypatch.setattr(
        DensityMatrix, builder, lambda entries: received.append(entries) or original(entries)
    )
    grid = np.linspace(0.1, 1.4, 7)
    Scenario(kind, spec, {}).build_state(grid)
    expected = np.array([loop_state_entries(kind, spec, t) for t in grid.tolist()])
    assert received[0].dtype == expected.dtype
    assert received[0].shape == expected.shape
    assert received[0].tobytes() == expected.tobytes()


def test_state_error_is_the_first_failing_point():
    # on [0, 3] in 5 steps the first entry fails from row 4 and the second
    # from row 3: the error is the second entry's, at row 3
    spec = ("0.1*sqrt(2.5 - theta)", "0.1*sqrt(1.5 - theta)", 0.0)
    with pytest.raises(ValidationError) as info:
        Scenario("bloch", spec, {}).build_state(np.linspace(0.0, 3.0, 5))
    assert str(info.value) == "bad expression '0.1*sqrt(1.5 - theta)': math domain error"
    assert info.value.row == 3
