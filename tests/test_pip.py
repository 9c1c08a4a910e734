import numpy as np
import pytest

from regulus import (
    ExperimentParams,
    NotCoprime,
    ReducedIdeal,
    cf_regulator,
    certified_nonprincipal,
    make_field,
    principal_cycle,
)
from regulus.pip_solver import (
    PairHider,
    PairSampler,
    PipInstance,
    combine_coprime,
    run_pip,
    verify_generator,
)
from regulus.unitgroup import run_unit_group
from regulus.qsim import TwoStageSampler, qft_spectrum, state_from_points


def _unit_result(d, seed=901):
    field = make_field(d)
    params = ExperimentParams(rank=1, n_param=64, q=2 ** 16, k=3)
    return run_unit_group(field, params, trials=200, seed=seed)


def test_combine_coprime_examples():
    one, u = combine_coprime((2, [1.5]), (3, [2.5]))
    assert one == 1
    assert u[0] == pytest.approx(-1.5 + 2.5)     # x=-1, y=1
    one, u = combine_coprime((1, [0.7]), (5, [9.9]))
    assert one == 1 and u[0] == pytest.approx(0.7)
    with pytest.raises(NotCoprime):
        combine_coprime((2, [0.0]), (4, [0.0]))


def test_verify_generator_examples(field13, cycle13):
    d2 = float(cycle13.entries[2][1])
    assert verify_generator(field13, 0.0, ReducedIdeal(3, 1), cycle13)
    assert verify_generator(field13, d2, ReducedIdeal(1, 3), cycle13)
    off = d2 + cycle13.regulator_f / 2
    assert not verify_generator(field13, off, ReducedIdeal(1, 3), cycle13)
    # right ideal, wrong distance
    assert not verify_generator(field13, d2 + 0.1, ReducedIdeal(1, 3), cycle13)


def test_pair_hider_principal_label_structure(field13, cycle13):
    params = ExperimentParams(rank=2, n_param=512, q=2 ** 12, k=6)
    hider = PairHider(field13, ReducedIdeal(1, 3), params, 96)
    assert hider.order == 1
    assert hider.theta == pytest.approx(float(cycle13.entries[2][1]), abs=1e-12)
    key = hider.label_key(np.array([0, 0]))
    assert hider.ideal_of(key) in cycle13.ideals


def test_pair_hider_nonprincipal_class_gating():
    f10 = make_field(10)
    hider = PairHider(f10, ReducedIdeal(1, 3),
                      ExperimentParams(rank=2, n_param=512, q=2 ** 10, k=6), 96)
    assert hider.order == 2
    for a in range(6):
        key = hider.label_key(np.array([a, 17]))
        assert key[0] == a % 2
        ideal = hider.ideal_of(key)
        on_principal = any(i == ideal for i in hider.cycles[0].ideals)
        assert on_principal == (a % 2 == 0)


def test_pair_sampler_matches_dense_small():
    """The two-stage pair sampler reproduces the dense joint spectrum."""
    f = make_field(13)
    params = ExperimentParams(rank=2, n_param=16, q=2 ** 6, k=2)   # qk=128
    hider = PairHider(f, ReducedIdeal(3, 1), params, 96)
    key = (0, 0)
    sampler = PairSampler(hider, key)
    # materialise the same support and compare against the dense transform
    state = state_from_points(key, _pair_points(sampler), params, _GridStub(params))
    dense = qft_spectrum(state, params).probs
    rng = np.random.default_rng(8)
    n = 40000
    counts = np.zeros_like(dense)
    for _ in range(n):
        ridx = sampler.draw_row(rng)
        c1, c2 = sampler.sample(rng, ridx)
        counts[c1, c2] += 1
    heavy = np.argwhere(dense > 4e-3)
    assert len(heavy) > 0
    for c1, c2 in heavy:
        p = dense[c1, c2]
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(counts[c1, c2] / n - p) <= 5 * sigma


def _pair_points(sampler):
    """Every (row, v) point of a pair sampler's run table."""
    pts = []
    for ridx, row in enumerate(sampler.rows):
        for s, ln in zip(sampler.starts[ridx], sampler.lengths[ridx]):
            pts.extend((row, v) for v in range(s, s + ln))
    return np.array(pts)


@pytest.mark.parametrize("c2", [0, 70001, 55555])
def test_pair_run_table_row_transforms(c2):
    """Both run-table constructors of one D=13 pair label give the same row
    transforms at the pip qk = 196608, matching a direct per-point sum of
    exact-residue phases to 1e-12 relative."""
    f = make_field(13)
    params = ExperimentParams(rank=2, n_param=16, q=2 ** 6, k=3072)
    hider = PairHider(f, ReducedIdeal(3, 1), params, 96)
    pair = PairSampler(hider, (0, 0))
    pts = _pair_points(pair)
    points = TwoStageSampler(
        state_from_points((0, 0), pts, params, _GridStub(params)), params)
    qk = params.qk
    assert qk == 196608
    ref = np.zeros(qk, dtype=np.complex128)
    np.add.at(ref, pts[:, 0], np.exp(2j * np.pi * ((pts[:, 1] * c2) % qk) / qk))
    scale = np.abs(ref).max()
    z = np.zeros((2, qk), dtype=np.complex128)
    for i, sampler in enumerate((pair, points)):
        z[i, sampler.rows] = sampler.row_transforms(c2)
        assert np.abs(z[i] - ref).max() <= 1e-12 * scale
    assert np.abs(z[0] - z[1]).max() <= 1e-14 * scale


class _GridStub:
    """Minimal hider protocol for grouping arbitrary 2-D point sets."""

    def __init__(self, params):
        self.params = params

    def translate_coords(self, points):
        return np.zeros((len(points), 2), dtype=np.int64)

    def translate_vector(self, coords):
        return np.zeros((len(np.atleast_2d(coords)), 2))

    def translate_clipped(self, coords, label):
        return np.zeros(len(np.atleast_2d(coords)), dtype=bool)


@pytest.mark.parametrize("d", [3, 13])
def test_pip_principal_completeness(d):
    field = make_field(d)
    cyc = principal_cycle(field)
    unit = _unit_result(d)
    for ideal, delta in cyc.entries:
        inst = PipInstance(field=field, ideal=ideal, theta_oracle=float(delta))
        res = run_pip(inst, trials=48, seed=404, unit_result=unit)
        assert res.verdict == "principal"
        r = cyc.regulator_f
        err = abs((res.theta - float(delta) + r / 2) % r - r / 2)
        assert err <= 1e-3


def test_pip_degenerate_principal():
    # cycle of length one: the pair function is constant, and the trivial
    # first-axis period still certifies the only principal reduced ideal
    field = make_field(2)
    inst = PipInstance(field=field, ideal=ReducedIdeal(1, 1))
    res = run_pip(inst, trials=32, seed=5)
    assert res.verdict == "principal"
    r = float(cf_regulator(2))
    assert min(res.theta % r, r - res.theta % r) <= 1e-3


def test_pip_nonprincipal_d10():
    field = make_field(10)
    cert = certified_nonprincipal(field)
    for seed in (0, 1, 2):
        res = run_pip(PipInstance(field=field, ideal=cert.ideal),
                      trials=24, seed=seed)
        assert res.verdict == "not_principal"
        assert res.theta is None


def test_pip_recovered_vectors_lie_on_pair_lattice(field13, cycle13):
    """Accepted sample indices and phases satisfy n*theta - R*y in R*Z."""
    d = 13
    field = make_field(d)
    unit = _unit_result(d)
    theta = float(cycle13.entries[1][1])
    inst = PipInstance(field=field, ideal=ReducedIdeal(3, 4))
    res = run_pip(inst, trials=48, seed=321, unit_result=unit)
    assert res.verdict == "principal"
    r = cycle13.regulator_f
    err = abs((res.theta - theta + r / 2) % r - r / 2)
    assert err <= 1e-3


def test_pip_soundness_sweep():
    """Principal-cycle ideals are never declared non-principal."""
    for d in (2, 3, 5, 6, 7, 13):
        field = make_field(d)
        cyc = principal_cycle(field)
        try:
            unit = _unit_result(d)
        except Exception:
            unit = None
        for ideal, _ in cyc.entries:
            inst = PipInstance(field=field, ideal=ideal)
            res = run_pip(inst, trials=48, seed=1009, unit_result=unit)
            assert res.verdict == "principal", f"D={d} {ideal}"
