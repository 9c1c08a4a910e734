import numpy as np
import pytest

from regulus import (
    CycleHider,
    DomainTooLarge,
    ExperimentParams,
    ReducedIdeal,
    RestartRequired,
    accept,
    centred,
    cf_regulator,
    collapse,
    dual_candidate,
    make_field,
    make_synthetic,
    qft_spectrum,
    qsim,
    spectrum_probability,
)
from regulus.pip_solver import PairHider, PairSampler, pip_params_for
from regulus.qsim import PreimageState, TwoStageSampler, state_from_points


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
    assert dist.probs[0] == pytest.approx(0.375, abs=1e-12)
    assert dist.probs[8] == pytest.approx(0.2428511319, abs=1e-8)
    for c in range(64):
        if c % 8:
            assert dist.probs[c] == pytest.approx(0.0, abs=1e-12)
    assert dist.probs.sum() == pytest.approx(1.0, abs=2.0 ** -30)


def test_full_coset_spectrum():
    oracle = make_synthetic([[8.0]], n_param=1, bucket=1, q=64)
    params = ExperimentParams(rank=1, n_param=1, q=64, k=1)
    state = _state_for_label(oracle, params, (0,))
    dist = qft_spectrum(state, params)
    for c in range(64):
        expected = 0.125 if c % 8 == 0 else 0.0
        assert dist.probs[c] == pytest.approx(expected, abs=1e-12)


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


def test_spectrum_sample_statistics(bucket, rng):
    oracle, params = bucket
    state = _state_for_label(oracle, params, (0,))
    dist = qft_spectrum(state, params)
    cum = np.cumsum(dist.probs)
    n = 10000
    counts = {}
    for _ in range(n):
        c = qsim.draw_index(cum, rng)
        counts[c] = counts.get(c, 0) + 1
    for c in (0, 8, 16):
        p = dist.probs[c]
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
    cum = np.cumsum(qft_spectrum(state, params).probs)
    g = 1.0 / 8.0
    for _ in range(200):
        c = (qsim.draw_index(cum, rng),)
        if accept(c, params, beta=0.0):
            cand = dual_candidate(c, params)[0]
            assert abs(cand - round(cand / g) * g) <= 1.0 / (2 * params.qk)


def test_collapse_translate_count(field13, cycle13, params13, rng):
    hider = CycleHider(cycle13, params13)
    state = collapse(hider, params13, rng)
    expected = params13.q / (params13.n_param * cycle13.regulator_f)
    assert 0.5 * expected <= state.translate_count <= 2.0 * expected
    assert state.cardinality == len(np.unique(state.points[:, 0]))


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
    ts = TwoStageSampler(state)
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


def test_rank3_state_is_refused():
    oracle = make_synthetic(16.0 * np.eye(3), n_param=1, bucket=3, q=64)
    params = ExperimentParams(rank=3, n_param=1, q=64, k=1)
    with pytest.raises(DomainTooLarge):
        _state_for_label(oracle, params, (0, 0, 0))


def _complex_power(ind):
    """|sum_w ind(w) e(w.c)|^2 at every c, from the complex transform."""
    amp = np.fft.ifftn(ind) * ind.size
    return amp.real ** 2 + amp.imag ** 2


def _dense_indicator(state, params):
    ind = np.zeros((params.qk,) * params.rank)
    ind[tuple(state.points.T)] = 1.0
    return ind


def _synth_rank2():
    """The criterion-3 planted lattice and its parameters (qk = 1536)."""
    oracle = make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=2 ** 8)
    return oracle, ExperimentParams(rank=2, n_param=4, q=2 ** 8, k=6)


@pytest.mark.parametrize("case", ["cycle13", "synth"])
def test_mirrored_spectrum_matches_complex_transform(case, cycle13, params13):
    """The real-input spectrum, mirrored by P(c) = P(-c), equals the direct
    complex transform at every c within 1e-12 of the peak, and keeps the
    same outcomes above the 2^-40 dust threshold."""
    if case == "cycle13":
        hider, params, label = CycleHider(cycle13, params13), params13, (1,)
    else:
        (hider, params), label = _synth_rank2(), (1, 1)
    state = _state_for_label(hider, params, label)
    dist = qft_spectrum(state, params)
    ref = _complex_power(_dense_indicator(state, params)) / (
        params.qk ** params.rank * state.cardinality)
    assert np.abs(dist.probs - ref).max() <= 1e-12 * ref.max()
    # the outcomes nonzero_items keeps
    assert np.array_equal(dist.probs > 2.0 ** -40, ref > 2.0 ** -40)


def test_stage1_row_law_matches_complex_transform(monkeypatch):
    """The first stage of a D=13 pair-label draw reads the cumulative
    mirrored spectrum of the drawn row, equal to the complex transform of
    its indicator at every c2."""
    params = pip_params_for(float(cf_regulator(13)))
    hider = PairHider(make_field(13), ReducedIdeal(3, 1), params, 96)
    sampler = PairSampler(hider, hider.label_key(np.array([5, 7])))
    row = int(np.argmax(np.count_nonzero(sampler.lengths, axis=1)))
    cums, draw = [], qsim.draw_index

    def recording_draw(cum, rng):
        cums.append(cum)
        return draw(cum, rng)

    monkeypatch.setattr(qsim, "draw_index", recording_draw)
    sampler.sample(np.random.default_rng(0), row)
    law = np.diff(cums[0], prepend=0.0)
    ind = np.zeros(params.qk)
    for s, ln in zip(sampler.starts[row], sampler.lengths[row]):
        ind[s:s + ln] = 1.0
    ref = _complex_power(ind)
    assert len(law) == params.qk == 196608
    assert np.abs(law - ref).max() <= 1e-12 * ref.max()
    assert np.array_equal(law / law.sum() > 2.0 ** -40, ref / ref.sum() > 2.0 ** -40)


class _CoordStub:
    """Point-set hider whose translate coordinates are a given function of
    the point; it records the translate list `state_from_points` asks
    about."""

    def __init__(self, coords_of):
        self.coords_of, self.asked = coords_of, []

    def translate_coords(self, points):
        return self.coords_of(np.asarray(points))

    def translate_clipped(self, coords, label):
        self.asked.append(np.array(coords))
        return np.zeros(len(coords), dtype=bool)


def _assert_grouping_matches_unique(hider, points, label, params):
    """Translate ids and translate order of the state equal those of
    np.unique over coordinate rows (points given in lexicographic order)."""
    state = state_from_points(label, points, params, hider)
    uniq, ids = np.unique(hider.translate_coords(points), axis=0, return_inverse=True)
    assert np.array_equal(state.points, points)
    assert np.array_equal(hider.asked[-1], uniq)
    assert np.array_equal(state.translate_ids, ids.reshape(-1))


@pytest.mark.parametrize("coords_of", [
    lambda p: np.c_[p[:, 0] // 3 - 2, 1 - p[:, 1] // 4],           # mixed sign
    lambda p: np.c_[-(p[:, 0] // 5) - 7, -(p[:, 1] // 3) - 1],     # negative
    lambda p: np.c_[p[:, 0] // 3 - 2, np.full(len(p), -4)],        # constant
    lambda p: np.c_[np.full(len(p), 3), p[:, 1] % 5 - 2],          # constant
])
def test_translate_grouping_matches_row_unique(coords_of):
    params = ExperimentParams(rank=2, n_param=1, q=16, k=1)
    grid = np.argwhere(np.ones((16, 16), dtype=bool))
    _assert_grouping_matches_unique(_CoordStub(coords_of), grid, (0, 0), params)


def test_translate_grouping_matches_row_unique_cycle13(cycle13, params13):
    hider = CycleHider(cycle13, params13)
    recording = _CoordStub(hider.translate_coords)
    for label in range(len(cycle13)):
        points = hider.preimage_points((label,))
        _assert_grouping_matches_unique(recording, points, (label,), params13)


@pytest.mark.parametrize("rank", [1, 2])
def test_spectrum_probability_refuses_empty_support(rank):
    params = ExperimentParams(rank=rank, n_param=1, q=16, k=1)
    empty = np.zeros(0, dtype=np.int64)
    state = PreimageState.from_runs((0,) * rank, params, empty, empty, empty,
                                    empty, np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="empty support"):
        spectrum_probability(state, params, np.zeros((1, rank), dtype=np.int64))
