"""End-to-end recovery of the log-unit lattice by repeated sampling.

Each trial measures one outcome of the period-finding subroutine on the
hiding function; small outcomes are kept and mapped to dual-lattice
candidates; a noise-aware basis recovery runs over the ordered candidate
stream until it stabilises.  Dualising and dividing by N yields the hidden
lattice; at rank one its single entry estimates the regulator, from which
the fundamental unit is reconstructed and verified against the Pell
equation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .errors import DomainTooLarge, Inconclusive, RankDeficient
from .ideals import ExperimentParams, principal_cycle
from .lattice import RealLattice, primal_from_dual, recover_basis
from .numfield import _GUARD_BITS, QuadraticField
from .qsim import (
    _DENSE_CAP,
    _MIN_COMPLETE_TRANSLATES,
    CycleHider,
    Hider,
    TwoStageSampler,
    accept,
    acceptance_bound,
    draw_index,
    dual_candidate,
    qft_spectrum,
    spectrum_probability,
    state_from_points,
)


@dataclass
class UnitGroupResult:
    """Recovered lattice plus run statistics.

    At rank one `fundamental_unit` is the verified Pell pair (x, y) and
    `regulator` its log, R = log(x + y*sqrt(D)), at working precision; the
    lattice's single basis entry is the sampled estimate it was rounded from.
    """

    lattice: RealLattice
    regulator: float | None
    fundamental_unit: tuple[int, int] | None
    stats: dict


def _hider_for(target, params: ExperimentParams) -> Hider:
    if isinstance(target, QuadraticField):
        cycle = principal_cycle(target, params.precision)
        return CycleHider(cycle, params)
    return target    # synthetic oracle: already a hider


def _label(hider: Hider, params: ExperimentParams, key):
    """Preimage state of one label and a draw of one outcome from it.

    Rank one keeps the full cumulative spectrum (few labels, one axis);
    rank two uses the exact two-stage sampler, which needs no dense grid."""
    points = hider.preimage_points(key)
    state = state_from_points(key, points, params, hider)
    if params.rank == 1:
        cum = np.cumsum(qft_spectrum(state, params).probs.reshape(-1))
        return state, lambda rng: (draw_index(cum, rng),)
    sampler = TwoStageSampler(state)
    return state, lambda rng: sampler.sample(rng, sampler.draw_row(rng))


def _reconstruct_unit(d: int, regulator: float, precision: int):
    """Round exp(R) to x + y*sqrt(D) and check x^2 - D y^2 = +-1."""
    with mp.workprec(precision + _GUARD_BITS):
        e, em = mp.exp(regulator), mp.exp(-regulator)
        sd = mp.sqrt(d)
        for sign in (1, -1):
            x = int(mp.nint((e + sign * em) / 2))
            y = int(mp.nint((e - sign * em) / (2 * sd)))
            if y <= 0 or x <= 0:
                continue
            if x * x - d * y * y == sign and abs(mp.log(x + y * sd) - regulator) < 0.1:
                return (x, y)
    return None


def run_unit_group(target, params: ExperimentParams, trials: int, seed: int,
                   workers: int = 1,
                   oracle_lattice: RealLattice | None = None) -> UnitGroupResult:
    """Sample `trials` outcomes and recover the hidden lattice.

    `target` is a quadratic field or a synthetic oracle.  `oracle_lattice`
    (the exact scaled lattice) is used for reporting the per-sample success
    rate only; recovery is driven purely by the samples.  Trials run
    serially, each on a seed derived from its index, and each label's
    preimage and sampler are built once and reused.  `workers` is accepted
    for older callers and has no effect.

    Raises Inconclusive when the candidate stream never stabilises or the
    rank-one unit fails verification."""
    hider = _hider_for(target, params)
    oracle_dual = None
    if oracle_lattice is not None:
        oracle_dual = np.linalg.inv(oracle_lattice.basis).T

    eta = 1.0 / (2 * params.qk)
    r = params.rank
    labels: dict = {}
    restarts = good_n = 0
    betas: list[float] = []
    accepted: list[np.ndarray] = []     # in trial order: the fits read prefixes
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        key = hider.label_key(rng.integers(0, params.q, size=r))
        if key not in labels:
            labels[key] = _label(hider, params, key)
        state, draw = labels[key]
        if state.complete_translates() < _MIN_COMPLETE_TRANSLATES:
            restarts += 1
            continue
        c = np.array(draw(rng), dtype=np.int64)
        beta = state.beta()
        betas.append(beta)
        if not accept(c, params, beta):
            continue
        cand = dual_candidate(c, params)
        accepted.append(cand)
        if oracle_dual is not None:
            coeff = np.linalg.solve(oracle_dual, cand)
            err = np.abs(oracle_dual @ (coeff - np.rint(coeff))).max()
            good_n += bool(err <= eta + 1e-15)

    # Success requires the recovered basis to hold still while candidates
    # keep arriving ("unchanged for 2r consecutive additions"); a short
    # prefix can look self-consistent around a multiple of the true
    # generator, so the streak only starts counting after a floor.  The
    # final basis is then fit over the whole accepted stream: the trial
    # budget is fixed, and every kept outcome sharpens the estimate.
    floor = max(48, 16 * r)
    # outcomes jitter over the spectral peak, whose width is k grid steps
    spread = max(10 * eta, 2.0 * (params.k - 1) / params.qk)
    basis_prev, streak, stabilised_at = None, 0, None
    for i in range(floor - 1, len(accepted)):
        try:
            cand = recover_basis(np.array(accepted[:i + 1]), b1=1.0, rank=r,
                                 noise=eta, spread=spread,
                                 precision=params.precision)
        except RankDeficient:
            basis_prev, streak = None, 0
            continue
        if basis_prev is not None and np.allclose(
                cand.basis, basis_prev, atol=10 * eta):
            streak += 1
        else:
            streak = 0
        basis_prev = cand.basis
        if streak >= 2 * r:
            stabilised_at = i + 1
            break
    if stabilised_at is None:
        raise Inconclusive(
            f"basis never stabilised: {len(accepted)} accepted of {trials} trials "
            f"({restarts} restarts)")
    try:
        lattice_dual = recover_basis(np.array(accepted), b1=1.0, rank=r,
                                     noise=eta, spread=spread,
                                     precision=params.precision)
    except RankDeficient as exc:
        raise Inconclusive(f"final recovery failed: {exc}") from exc

    lattice = primal_from_dual(lattice_dual, params.n_param)
    stats = {
        "trials": trials,
        "restarts": restarts,
        "accepted": len(accepted),
        "stabilised_at": stabilised_at,
        "beta_median": float(np.median(betas)) if betas else None,
        "success_rate": (good_n / trials) if oracle_dual is not None
                        else (len(accepted) / trials),
        "success_rate_basis": "oracle" if oracle_dual is not None else "accepted",
    }

    regulator = None
    unit = None
    if r == 1 and isinstance(target, QuadraticField):
        estimate = float(lattice.basis[0, 0])
        unit = _reconstruct_unit(target.d, estimate, params.precision)
        if unit is None:
            raise Inconclusive(
                f"recovered regulator {estimate!r} fails unit verification")
        with mp.workprec(params.precision + _GUARD_BITS):
            regulator = float(mp.log(unit[0] + unit[1] * mp.sqrt(target.d)))
    return UnitGroupResult(lattice=lattice, regulator=regulator,
                           fundamental_unit=unit, stats=stats)


def _dual_points_in_box(dual_basis_mat: np.ndarray, bound: float) -> list[np.ndarray]:
    """Nonnegative-index-free enumeration of dual points with inf-norm < bound."""
    r = dual_basis_mat.shape[0]
    scale = np.abs(np.linalg.inv(dual_basis_mat)).sum(axis=1) * bound
    ranges = [np.arange(-int(np.ceil(s)) - 1, int(np.ceil(s)) + 2) for s in scale]
    grids = np.meshgrid(*ranges, indexing="ij")
    coeffs = np.stack([g.reshape(-1) for g in grids], axis=1)
    pts = coeffs @ dual_basis_mat.T
    keep = np.abs(pts).max(axis=1) < bound
    return [p for p in pts[keep]]


def empirical_success(target, params: ExperimentParams) -> float:
    """Exact total probability of kept outcomes that round to the dual of the
    target's own scaled hidden lattice (N*R, or a synthetic oracle's planted
    basis), averaged over labels with their collapse weights.

    No sampling: the exact probability is evaluated at each candidate dual
    outcome per label.  Domain capped at (qk)^r <= 2^24."""
    if params.qk ** params.rank > _DENSE_CAP:
        raise DomainTooLarge(f"(qk)^r = {params.qk ** params.rank} > 2^24")
    hider = _hider_for(target, params)
    if isinstance(target, QuadraticField):
        cycle = hider.cycle
        eff = np.array([[params.n_param * cycle.regulator_f]])
    else:
        eff = target.effective
    dual = np.linalg.inv(eff).T

    # enumerate labels with their weights
    if isinstance(target, QuadraticField):
        keys = [(i,) for i in range(len(hider.cycle))]
    else:
        axes = [np.arange(params.q)] * params.rank
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, params.rank)
        keys = sorted({tuple(int(x) for x in lab) for lab in hider.label_of(grid)})

    eta = 1.0 / (2 * params.qk)
    total_weight = 0.0
    total = 0.0
    for key in keys:
        points = hider.preimage_points(key)
        if len(points) == 0:
            continue
        state = state_from_points(key, points, params, hider)
        weight = state.cardinality / params.q ** params.rank
        total_weight += weight
        beta = state.beta()
        bound = acceptance_bound(params, beta)
        c_stars = []
        seen = set()
        for n_star in _dual_points_in_box(dual, bound / params.qk + 2.0 / params.qk):
            c_star = np.rint(params.qk * n_star).astype(np.int64)
            tup = tuple(int(x) for x in c_star)
            if tup in seen:
                continue
            seen.add(tup)
            if np.abs(c_star / params.qk - n_star).max() > eta + 1e-15:
                continue
            if accept(c_star, params, beta):
                c_stars.append(c_star % params.qk)
        if c_stars:
            probs = spectrum_probability(state, params, np.array(c_stars))
            total += weight * float(probs.sum())
    if abs(total_weight - 1.0) > 1e-9:
        raise ArithmeticError(f"label weights sum to {total_weight}, not 1")
    return total
