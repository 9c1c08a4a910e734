import numpy as np
import pytest
from mpmath import mp

from regulus import (
    CycleHider,
    DomainTooLarge,
    EmptySet,
    ExperimentParams,
    NotSquarefree,
    ReducedIdeal,
    centre,
    certified_nonprincipal,
    cf_regulator,
    class_cycles,
    exhaustive_preimage,
    make_field,
    make_synthetic,
    pell_solution,
    principal_cycle,
    reduced_ideals,
)
from regulus.qsim import state_from_points


def test_cf_regulator_examples():
    assert abs(float(cf_regulator(2)) - 0.881373587019543) < 1e-12
    assert abs(float(cf_regulator(13)) - 3.5842896518613267) < 1e-12
    assert abs(float(cf_regulator(3)) - 1.3169578969248166) < 1e-12
    with pytest.raises(NotSquarefree):
        cf_regulator(12)


def test_pell_solutions():
    assert pell_solution(2) == (1, 1)
    assert pell_solution(13) == (18, 5)
    assert pell_solution(3) == (2, 1)
    x, y = pell_solution(19)
    assert (x, y) == (170, 39)
    assert x * x - 19 * y * y == 1


def test_cf_agrees_with_cycle_closure():
    # two independent code paths agree far below the target precision
    p = 96
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 19, 31, 94):
        with mp.workprec(p + 32):
            diff = abs(cf_regulator(d, p) - principal_cycle(make_field(d), p).regulator)
            assert diff <= mp.mpf(2) ** (-92)


def test_reduced_ideals_d10():
    f = make_field(10)
    allr = reduced_ideals(f)
    assert allr == [ReducedIdeal(1, 3), ReducedIdeal(2, 2),
                    ReducedIdeal(2, 3), ReducedIdeal(3, 1)]


def test_class_cycles_d10():
    f = make_field(10)
    cycles = class_cycles(f)
    assert len(cycles) == 2
    assert [i.label() for i in cycles[0].ideals] == [(3, 1)]
    assert set(i.label() for i in cycles[1].ideals) == {(1, 3), (2, 2), (2, 3)}
    # every cycle of an order has the same total length, the regulator
    assert abs(cycles[0].regulator_f - cycles[1].regulator_f) < 1e-12


def test_certified_nonprincipal():
    cert = certified_nonprincipal(make_field(10))
    assert cert.ideal == ReducedIdeal(1, 3)
    assert cert.total_reduced == 4
    assert cert.principal_count == 1
    assert cert.total_reduced > cert.principal_count
    with pytest.raises(EmptySet):
        certified_nonprincipal(make_field(2))
    # the non-maximal order Z[sqrt(13)] carries a one-ideal side cycle
    cert13 = certified_nonprincipal(make_field(13))
    assert cert13.ideal == ReducedIdeal(3, 2)


def test_centre_examples():
    assert centre([1, 2, 3]) == (2,)
    assert centre([0, 1]) == (0,)          # lexicographic tie rule
    assert centre([7]) == (7,)
    assert centre([(0, 0), (2, 0), (0, 2), (2, 2)]) == (0, 0)
    with pytest.raises(EmptySet):
        centre([])


def test_exhaustive_matches_collapse_for_field(field13, cycle13, params13):
    hider = CycleHider(cycle13, params13)
    for label in [(i,) for i in range(len(cycle13))]:
        fast = hider.preimage_points(label)
        exh = exhaustive_preimage(hider, params13, label)
        assert np.array_equal(np.sort(fast[:, 0]), np.sort(exh.points[:, 0]))


def test_exhaustive_domain_guard():
    params = ExperimentParams(rank=2, n_param=4, q=2 ** 11, k=6)
    oracle = make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=2 ** 11)
    with pytest.raises(DomainTooLarge):
        exhaustive_preimage(oracle, params, (0, 0))


def test_synthetic_bucket_counts():
    oracle = make_synthetic([[8.0]], n_param=1, bucket=3, q=64)
    params = ExperimentParams(rank=1, n_param=1, q=64, k=1)
    st = exhaustive_preimage(oracle, params, (0,))
    assert st.cardinality == 24           # bucket size x translate count
    one = make_synthetic([[8.0]], n_param=1, bucket=1, q=64)
    st = exhaustive_preimage(one, params, (0,))
    assert st.cardinality == 8            # q / det of the hidden lattice


def test_synthetic_label_translation_invariance():
    oracle = make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=256)
    rng = np.random.default_rng(2)
    pts = rng.integers(8, 180, size=(200, 2))
    base = oracle.label_of(pts)
    shift = np.rint(oracle.effective @ np.array([1.0, 1.0])).astype(int)
    shifted = oracle.label_of(pts + shift)
    # rounded lattice translations preserve labels up to boundary slack 1
    mism = np.any(base != shifted, axis=1)
    disp = pts - (np.rint(pts @ oracle._inv.T) @ oracle.effective.T)
    b = oracle.bucket
    near_edge = np.any(np.abs(np.abs(disp % b) - b / 2) <= 1.0, axis=1)
    assert np.all(~mism | near_edge)


def test_synthetic_lemma_geometry_bounds():
    oracle = make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=256)
    params = ExperimentParams(rank=2, n_param=4, q=256, k=6)
    st = exhaustive_preimage(oracle, params, (1, 1))
    widths = st.half_widths[~st.clipped]
    assert widths.max() - widths.min() <= 2.0


def _centres_match_oracle(hider, params, labels):
    for label in labels:
        state = state_from_points(label, hider.preimage_points(label), params, hider)
        for t in range(state.translate_count):
            pts = state.points[state.translate_ids == t]
            assert tuple(state.centres[t].astype(int)) == centre(pts), (label, t)


def test_preimage_centres_match_oracle_centre(cycle13, params13):
    """Every translate's measured centre is the oracle's sum-of-distances
    minimiser, lexicographic ties included."""
    synth = make_synthetic(16.0 * np.eye(2), n_param=4, bucket=5, q=256)
    _centres_match_oracle(synth, ExperimentParams(rank=2, n_param=4, q=256, k=6),
                          [(0, 0), (0, 1), (1, 1)])
    bucket = make_synthetic([[8.0]], n_param=1, bucket=3, q=64)
    _centres_match_oracle(bucket, ExperimentParams(rank=1, n_param=1, q=64, k=1),
                          [(-1,), (0,), (1,)])
    _centres_match_oracle(CycleHider(cycle13, params13), params13,
                          [(i,) for i in range(len(cycle13))])
