import numpy as np
import pytest

from regulus import (
    CycleHider,
    ExperimentParams,
    RestartRequired,
    accept,
    centred,
    collapse,
    dual_candidate,
    make_synthetic,
    qft_spectrum,
    sample_outcome,
    spectrum_probability,
)
from regulus.qsim import TwoStageSampler, state_from_points


@pytest.fixture(scope="module")
def bucket():
    """The planted 8Z instance on Z_64 with width-3 label windows."""
    oracle = make_synthetic([[8.0]], n_param=1, bucket=3, q=64)
    params = ExperimentParams(rank=1, n_param=1, q=64, k=1)
    return oracle, params


def _state_for_label(oracle, params, label):
    pts = oracle.preimage_points(label)
    return state_from_points(label, pts, params, oracle)


def test_bucket_collapse_support(bucket, rng):
    oracle, params = bucket
    state = collapse(oracle, params, rng)
    # whatever label was drawn, the support matches exhaustive evaluation
    from regulus import exhaustive_preimage
    exh = exhaustive_preimage(oracle, params, state.label)
    assert set(map(tuple, state.points)) == set(map(tuple, exh.points))
    zero = _state_for_label(oracle, params, (0,))
    assert zero.cardinality == 24
    assert sorted(np.unique(zero.points % 8)) == [0, 1, 7]


def test_one_to_one_label_support():
    oracle = make_synthetic([[8.0]], n_param=1, bucket=1, q=64)
    params = ExperimentParams(rank=1, n_param=1, q=64, k=1)
    state = _state_for_label(oracle, params, (0,))
    assert state.cardinality == 8
    assert np.array_equal(np.sort(state.points[:, 0]), np.arange(0, 64, 8))


def test_bucket_spectrum_exact_values(bucket):
    oracle, params = bucket
    state = _state_for_label(oracle, params, (0,))
    dist = qft_spectrum(state, params)
    assert dist.prob([0]) == pytest.approx(0.375, abs=1e-12)
    assert dist.prob([8]) == pytest.approx(0.2428511319, abs=1e-8)
    for c in range(64):
        if c % 8:
            assert dist.prob([c]) == pytest.approx(0.0, abs=1e-12)
    assert dist.probs.sum() == pytest.approx(1.0, abs=2.0 ** -30)


def test_full_coset_spectrum():
    oracle = make_synthetic([[8.0]], n_param=1, bucket=1, q=64)
    params = ExperimentParams(rank=1, n_param=1, q=64, k=1)
    state = _state_for_label(oracle, params, (0,))
    dist = qft_spectrum(state, params)
    for c in range(64):
        expected = 0.125 if c % 8 == 0 else 0.0
        assert dist.prob([c]) == pytest.approx(expected, abs=1e-12)


def test_singleton_support_uniform(params13, cycle13):
    hider = CycleHider(cycle13, params13)
    state = state_from_points((0,), np.array([[12345]]), params13, hider)
    small = ExperimentParams(rank=1, n_param=1, q=64, k=2)
    st2 = state_from_points((0,), np.array([[7]]), small,
                            make_synthetic([[8.0]], 1, 1, 64))
    dist = qft_spectrum(st2, small)
    assert np.allclose(dist.probs, 1.0 / small.qk, atol=1e-15)


def test_shift_invariance(bucket):
    oracle, params = bucket
    state = _state_for_label(oracle, params, (0,))
    shifted = state_from_points((0,), (state.points + 5) % params.q,
                                params, oracle)
    a = qft_spectrum(state, params).probs
    b = qft_spectrum(shifted, params).probs
    assert np.abs(a - b).max() <= 2.0 ** -30


def test_sparse_matches_dense(bucket):
    oracle, params = bucket
    state = _state_for_label(oracle, params, (0,))
    dense = qft_spectrum(state, params).probs
    cs = np.arange(params.qk).reshape(-1, 1)
    sparse = spectrum_probability(state, params, cs)
    assert np.abs(sparse - dense).max() <= 2.0 ** -30


def test_sparse_matches_dense_field(cycle13, params13):
    hider = CycleHider(cycle13, params13)
    state = state_from_points((1,), hider.preimage_points((1,)), params13, hider)
    dense = qft_spectrum(state, params13).probs
    rng = np.random.default_rng(0)
    cs = rng.integers(0, params13.qk, size=512).reshape(-1, 1)
    sparse = spectrum_probability(state, params13, cs)
    assert np.abs(sparse - dense[cs[:, 0]]).max() <= 2.0 ** -30


def test_sparse_matches_dense_rank2():
    oracle = make_synthetic(4.0 * np.eye(2), n_param=2, bucket=3, q=32)
    params = ExperimentParams(rank=2, n_param=2, q=32, k=3)
    state = _state_for_label(oracle, params, (0, 0))
    dense = qft_spectrum(state, params).probs
    rng = np.random.default_rng(1)
    cs = rng.integers(0, params.qk, size=(400, 2))
    sparse = spectrum_probability(state, params, cs)
    assert np.abs(sparse - dense[cs[:, 0], cs[:, 1]]).max() <= 2.0 ** -30


def test_sample_outcome_statistics(bucket, rng):
    oracle, params = bucket
    state = _state_for_label(oracle, params, (0,))
    dist = qft_spectrum(state, params)
    n = 10000
    counts = {}
    for _ in range(n):
        c = sample_outcome(dist, rng)
        counts[c] = counts.get(c, 0) + 1
    for c in ((0,), (8,), (16,)):
        p = dist.prob(c)
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(counts.get(c, 0) / n - p) <= 4 * sigma + 1e-9


def test_accept_examples(params13):
    assert accept([0], params13, beta=15.0)
    # exactly at the boundary is rejected (strict inequality)
    q = params13.q
    beta = 15.0
    boundary = q / (5 * (beta + 1))
    assert boundary == pytest.approx(819.2)
    assert not accept([900], params13, beta=beta)
    assert accept([819], params13, beta=beta)
    assert not accept([820], params13, beta=beta)


def test_dual_candidate_examples(params13):
    qk = params13.qk
    assert dual_candidate([0], params13)[0] == 0.0
    assert dual_candidate([qk // 4], params13)[0] == pytest.approx(0.25)
    assert dual_candidate([qk - 1], params13)[0] == pytest.approx(-1.0 / qk)


def test_dual_candidates_round_to_planted_lattice(rng):
    oracle = make_synthetic([[8.0]], n_param=1, bucket=1, q=64)
    params = ExperimentParams(rank=1, n_param=1, q=64, k=1)
    state = _state_for_label(oracle, params, (0,))
    dist = qft_spectrum(state, params)
    g = 1.0 / 8.0
    for _ in range(200):
        c = sample_outcome(dist, rng)
        if accept(c, params, beta=0.0):
            cand = dual_candidate(c, params)[0]
            assert abs(cand - round(cand / g) * g) <= 1.0 / (2 * params.qk)


def test_collapse_translate_count(field13, cycle13, params13, rng):
    hider = CycleHider(cycle13, params13)
    state = collapse(hider, params13, rng)
    expected = params13.q / (params13.n_param * cycle13.regulator_f)
    assert 0.5 * expected <= state.translate_count <= 2.0 * expected
    assert state.cardinality == len(np.unique(state.points[:, 0]))
    # rounding residuals of translate vectors stay within half a unit
    assert np.abs(state.rho).max() <= 0.5 + 1e-12


def test_collapse_restart_on_degenerate_domain():
    # a domain holding fewer than two complete translates must restart
    # (constructed directly: the factory guard rejects such geometry)
    from regulus.oracle import SyntheticOracle
    oracle = SyntheticOracle([[8.0]], n_param=2, bucket=3, q=16)
    params = ExperimentParams(rank=1, n_param=2, q=16, k=1)
    rng = np.random.default_rng(0)
    with pytest.raises(RestartRequired):
        for _ in range(50):
            collapse(oracle, params, rng)


def test_make_synthetic_guards():
    from regulus import IllConditioned
    with pytest.raises(IllConditioned):
        make_synthetic([[8.0]], n_param=2, bucket=3, q=16)   # one translate
    with pytest.raises(IllConditioned):
        make_synthetic([[4.0]], n_param=1, bucket=3, q=64)   # bucket too wide


def test_centred():
    assert list(centred([0, 1, 95, 48], 96)) == [0, 1, -1, -48]


def test_two_stage_sampler_matches_dense_marginals():
    oracle = make_synthetic(4.0 * np.eye(2), n_param=2, bucket=3, q=32)
    params = ExperimentParams(rank=2, n_param=2, q=32, k=3)
    state = _state_for_label(oracle, params, (0, 0))
    dense = qft_spectrum(state, params).probs
    ts = TwoStageSampler(state, params)
    rng = np.random.default_rng(4)
    n = 60000
    counts = np.zeros_like(dense)
    for _ in range(n):
        c1, c2 = ts.sample(rng, ts.draw_row(rng))
        counts[c1, c2] += 1
    # compare the heaviest cells against the exact law
    heavy = np.argwhere(dense > 5e-3)
    for c1, c2 in heavy:
        p = dense[c1, c2]
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(counts[c1, c2] / n - p) <= 5 * sigma
