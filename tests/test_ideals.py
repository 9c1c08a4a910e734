import math

import numpy as np
import pytest
from mpmath import mp

from regulus import (
    ExperimentParams,
    NotReduced,
    ReducedIdeal,
    cf_regulator,
    closest_ideal,
    grid_label,
    grid_label_index,
    is_reduced,
    make_field,
    principal_cycle,
    rho_step,
)


def test_rho_step_examples():
    f2 = make_field(2)
    succ, step = rho_step(f2, ReducedIdeal(1, 1))
    assert succ == ReducedIdeal(1, 1)
    assert abs(float(step) - 0.881373587019543) < 1e-12

    f13 = make_field(13)
    succ, _ = rho_step(f13, ReducedIdeal(3, 4))
    assert succ == ReducedIdeal(1, 3)

    with pytest.raises(NotReduced):
        rho_step(f13, ReducedIdeal(0, 1))


def test_principal_cycle_examples():
    c2 = principal_cycle(make_field(2))
    assert len(c2) == 1
    assert abs(c2.regulator_f - 0.881373587019543) < 1e-12

    c13 = principal_cycle(make_field(13))
    assert len(c13) == 5
    assert [i.label() for i in c13.ideals] == [(3, 1), (3, 4), (1, 3), (2, 3), (1, 4)]
    assert abs(c13.regulator_f - 3.5842896518613267) < 1e-12

    c3 = principal_cycle(make_field(3))
    assert len(c3) == 2
    assert abs(c3.regulator_f - 1.3169578969248166) < 1e-12


def test_cycle_structure_invariants(cycle13, field13):
    deltas = [float(d) for _, d in cycle13.entries]
    assert deltas[0] == 0.0
    assert all(b > a for a, b in zip(deltas, deltas[1:]))
    # applying the step to the last entry returns the first
    succ, _ = rho_step(field13, cycle13.entries[-1][0])
    assert succ == cycle13.entries[0][0]
    # closure matches the independent continued-fraction regulator
    p = cycle13.precision
    assert abs(cycle13.regulator - cf_regulator(13, p)) <= mp.mpf(2) ** (4 - p)


def test_cycle_unit_reconstruction(cycle13):
    r = cycle13.regulator
    with mp.workprec(160):
        x = int(mp.nint((mp.exp(r) - mp.exp(-r)) / 2))
        y = int(mp.nint((mp.exp(r) + mp.exp(-r)) / (2 * mp.sqrt(13))))
    assert (x, y) == (18, 5)
    assert x * x - 13 * y * y == -1


def test_closest_ideal_examples(cycle13):
    assert closest_ideal(cycle13, 0) == ReducedIdeal(3, 1)
    assert closest_ideal(cycle13, cycle13.regulator_f) == ReducedIdeal(3, 1)
    d2 = float(cycle13.entries[2][1])
    assert closest_ideal(cycle13, d2 + 0.01) == cycle13.entries[2][0]


def test_closest_ideal_tie_goes_lexicographic():
    # two-entry cycle: the exact midpoint of the two distances is a tie
    cyc = principal_cycle(make_field(3))
    mid = float(cyc.entries[1][1]) / 2
    winner = closest_ideal(cyc, mid)
    assert winner == min(cyc.ideals)


def test_grid_label_examples(cycle13):
    n = 64
    assert grid_label(cycle13, n, 0) == ReducedIdeal(3, 1)
    v = round(n * cycle13.regulator_f)
    assert grid_label(cycle13, n, v) == ReducedIdeal(3, 1)
    d2 = float(cycle13.entries[2][1])
    assert grid_label(cycle13, n, round(64 * d2)) == cycle13.entries[2][0]


def test_grid_label_periodicity(cycle13):
    """Translating by rounded lattice vectors preserves labels away from
    preimage boundaries."""
    n, r = 64, cycle13.regulator_f
    rng = np.random.default_rng(5)
    mids = cycle13._mids_f
    boundary = np.concatenate([mids + j * r for j in range(0, 40)]) * n
    vs = rng.integers(0, 2 ** 12, size=400)
    mismatches = 0
    for v in vs:
        for j in (1, 3, 7):
            shift = round(n * j * r)
            a = grid_label_index(cycle13, n, np.array([v]))[0]
            b = grid_label_index(cycle13, n, np.array([v + shift]))[0]
            if a != b:
                near = min(np.abs(boundary - v).min(),
                           np.abs(boundary - (v + shift)).min())
                assert near <= 2.0, f"label changed away from boundary: v={v} j={j}"
                mismatches += 1
    assert mismatches < 0.2 * len(vs) * 3


def test_minima_spacing_bounds():
    """Consecutive cycle distances are separated by at most half the log
    discriminant, and windows of that size hold a bounded entry count."""
    for d in (3, 7, 13, 19, 31, 94):
        f = make_field(d)
        cyc = principal_cycle(f)
        logdisc = math.log(f.discriminant)
        deltas = [float(x) for _, x in cyc.entries] + [cyc.regulator_f]
        gaps = np.diff(deltas)
        assert gaps.max() <= logdisc / 2 + 1e-12
        window = logdisc / 2
        upper = 4 ** 2 * logdisc ** f.rank       # 4^degree, degree 2
        for start in np.linspace(0, cyc.regulator_f, 50):
            count = sum(1 for x in deltas[:-1]
                        if (x - start) % cyc.regulator_f < window)
            assert 1 <= count <= upper


def test_params_validation():
    with pytest.raises(ValueError):
        ExperimentParams(rank=1, n_param=48, q=2 ** 10)
    with pytest.raises(ValueError):
        ExperimentParams(rank=1, n_param=64, q=1000)
    p = ExperimentParams(rank=2, n_param=4, q=256)
    assert p.k == 6          # default zero-fill is 3r
    assert p.qk == 1536


def test_is_reduced_enumeration_matches_inequalities():
    f = make_field(19)
    sd = math.sqrt(19)
    for p in range(-2, 10):
        for q in range(1, 12):
            expected = (q > 0 and p > 0 and (19 - p * p) % q == 0
                        and 0 < sd - p < q < sd + p)
            assert is_reduced(f, ReducedIdeal(p, q)) == expected


def test_cycle_csv_rows(cycle13):
    rows = list(cycle13.csv_rows())
    assert rows[0][:2] == (3, 1)
    assert rows[0][2] == "0"
    assert len(rows) == 5
    assert float(rows[-1][2]) == pytest.approx(1.6963793, abs=1e-6)
