"""Real-valued lattice utilities at small fixed rank.

Dualisation, modular reduction, and recovery of a generating basis from
noisy near-lattice samples.  Rank one reduces to a noise-aware real gcd;
higher (but tiny) ranks run a consensus search over sample tuples, which is
all that fixed rank needs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, Singular
from .numfield import DEFAULT_PRECISION


@dataclass(frozen=True)
class RealLattice:
    """Full-rank lattice given by an r x r basis matrix (columns generate)."""

    basis: np.ndarray
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=np.float64))
        object.__setattr__(self, "basis", b)
        if b.shape[0] != b.shape[1]:
            raise ValueError("basis must be square")

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def det(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    def canonical(self) -> "RealLattice":
        """Columns sign-normalised (largest-magnitude entry positive) and
        sorted lexicographically; a deterministic representative."""
        b = self.basis.copy()
        for j in range(b.shape[1]):
            i = int(np.argmax(np.abs(b[:, j])))
            if b[i, j] < 0:
                b[:, j] = -b[:, j]
        order = np.lexsort(b[::-1])
        return RealLattice(b[:, order], self.precision)


def dual_basis(lat: RealLattice) -> RealLattice:
    """Inverse-transpose basis: B*^T B = I; dual of the dual is the lattice."""
    if lat.det() < 2.0 ** (-lat.precision // 2):
        raise Singular(f"determinant {lat.det():g} below 2^-p/2")
    return RealLattice(np.linalg.inv(lat.basis).T, lat.precision)


def reduce_mod(lat: RealLattice, u) -> np.ndarray:
    """u minus its nearest lattice vector: all basis coefficients of the
    result lie in [-1/2, 1/2)."""
    if lat.det() < 2.0 ** (-lat.precision // 2):
        raise Singular("reduce_mod of singular lattice")
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    coeff = np.linalg.solve(lat.basis, u)
    return u - lat.basis @ np.floor(coeff + 0.5)


def primal_from_dual(dual_approx: RealLattice, n_param: int) -> RealLattice:
    """Primal lattice from an approximate dual of the N-scaled lattice."""
    return RealLattice(dual_basis(dual_approx).basis / n_param,
                       dual_approx.precision)


def _real_gcd(a: float, b: float, zero: float) -> float:
    a, b = abs(a), abs(b)
    while b > zero:
        a, b = b, abs(a - b * round(a / b))
    return a


_MULTIPLE_CAP = 64


def _recover_rank1(samples: np.ndarray, noise: float) -> float:
    """Consensus real gcd of noisy generator multiples.

    Samples sit on an integer measurement grid, so arbitrarily small exact
    common divisors always exist; the consensus therefore (a) prefers values
    observed more than once (resampled spectral peaks) over one-off leakage,
    (b) only considers generators for which the largest sample is at most
    _MULTIPLE_CAP multiples, and (c) scores candidates by how much sample
    mass they explain to within 10*noise, breaking ties towards the larger
    generator.  A final least-squares pass over the inlier multiples refines
    the generator well below the per-sample noise."""
    zero = 10.0 * noise
    vals = np.abs(samples.reshape(-1))
    vals = vals[vals > zero]
    if len(vals) == 0:
        raise RankDeficient("no sample above the zero threshold")
    values, counts = np.unique(vals, return_counts=True)
    repeated = values[counts >= 2]
    weights = dict(zip(values.tolist(), counts.tolist()))
    pool = repeated if len(repeated) >= 3 else values
    g_min = float(pool.max()) / _MULTIPLE_CAP
    cands = set(float(v) for v in pool if v >= g_min)
    n = len(pool)
    for i in range(n):
        for j in range(i + 1, n):
            g = _real_gcd(float(pool[i]), float(pool[j]), zero)
            if g >= max(zero, g_min):
                cands.add(g)
    if not cands:
        raise RankDeficient("no generator candidate above the noise floor")
    best_g, best_score = None, -1.0
    for g in sorted(cands):
        ratio = pool / g
        mult = np.rint(ratio)
        ok = (np.abs(pool - mult * g) <= zero) & (mult >= 1)
        score = float(sum(weights[float(v)] for v in pool[ok]))
        if score > best_score or (score == best_score and g > best_g):
            best_g, best_score = g, score
    # iterated least squares over inlier multiples; samples spread
    # symmetrically around each spectral peak, so averaging within the
    # 10*noise band cancels the spread instead of biasing the fit
    g = best_g
    for _ in range(3):
        mult = np.rint(vals / g)
        mask = (np.abs(vals - mult * g) <= zero) & (mult >= 1)
        if mask.sum() < max(3, 0.1 * len(vals)):
            break
        m, v = mult[mask], vals[mask]
        g = float((m * v).sum() / (m ** 2).sum())
    if g <= zero:
        raise RankDeficient("refined generator fell below the noise floor")
    return g


def _consensus_tuple(arr: np.ndarray, rank: int, spread: float) -> np.ndarray:
    """Deterministic consensus search: every `rank`-tuple of samples is a
    candidate basis, scored by how many samples it explains to within
    `spread` with bounded integer coefficients; ties prefer the coarser
    lattice (larger determinant), mirroring the rank-one gcd preference for
    the largest consistent generator."""
    n = len(arr)
    cap = 48 if rank >= 3 else 160
    idx = np.arange(n) if n <= cap else np.linspace(0, n - 1, cap).astype(int)
    pool = arr[idx]
    scored = []          # (score, |det|, basis)
    for combo in itertools.combinations(range(len(pool)), rank):
        basis = pool[list(combo)].T
        det = abs(np.linalg.det(basis))
        norms = np.linalg.norm(basis, axis=0)
        if det <= spread * norms.max() * 0.5 or det == 0.0:
            continue
        coeff = np.linalg.solve(basis, arr.T)
        cr = np.rint(coeff)
        ok = (np.abs(basis @ cr - arr.T).max(axis=0) <= spread) & \
             (np.abs(cr).max(axis=0) <= _MULTIPLE_CAP)
        scored.append((int(ok.sum()), det, basis.copy()))
    if not scored:
        raise RankDeficient(f"samples span fewer than {rank} directions")
    # a denser (sub)lattice explains at least as many samples as the true
    # one, so among near-top scores keep the coarsest candidate
    best_score = max(sc for sc, _, _ in scored)
    floor_score = 0.9 * best_score
    _, _, basis = max(((sc, det, b) for sc, det, b in scored
                       if sc >= floor_score), key=lambda t: t[1])
    return basis


def recover_basis(samples, b1: float, rank: int,
                  noise: float = 1e-12,
                  spread: float | None = None,
                  precision: int = DEFAULT_PRECISION) -> RealLattice:
    """Generating basis of the lattice underlying noisy samples.

    samples: vectors within a few multiples of `noise` of an unknown
    rank-`rank` lattice, norms below the sampling bound b1.  Residuals below
    10*noise count as zero.  The returned basis generates the same lattice
    as the exact samples, entries perturbed by at most a small multiple of
    `noise`.

    Rank one runs the consensus real gcd.  Higher ranks search rank-tuples
    of samples for the basis explaining the most sample mass (`spread` sets
    the inlier band; pass the spectral peak width when outcomes jitter
    beyond the rounding bound), refine it by iterated least squares, and
    snap entries to the measurement grid (step 2*noise) on which every
    sample lies; the snap stays within one `noise` of the fit."""
    arr = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if arr.shape[1] != rank:
        arr = arr.reshape(-1, rank)
    arr = arr[np.abs(arr).max(axis=1) <= b1 + 10 * noise]
    if rank == 1:
        return RealLattice(np.array([[_recover_rank1(arr, noise)]]), precision)
    zero = 10.0 * noise
    if spread is None or spread < zero:
        spread = zero
    arr = arr[np.linalg.norm(arr, axis=1) > zero]
    if len(arr) < rank:
        raise RankDeficient(f"only {len(arr)} nonzero samples")
    basis = _consensus_tuple(arr, rank, spread)
    # refine: iterated least squares against rounded coefficients, with the
    # inlier band tightening to half the spread so one-sided sidelobe
    # outcomes (clipped by the acceptance box) stop biasing the fit
    for band in (spread, spread / 2, spread / 2, 3.0 * noise, 3.0 * noise):
        coeff = np.rint(np.linalg.solve(basis, arr.T))
        resid = basis @ coeff - arr.T
        inliers = (np.abs(resid).max(axis=0) <= band) & \
                  (np.abs(coeff).max(axis=0) <= _MULTIPLE_CAP)
        if inliers.sum() < max(rank + 1, 4):
            break
        j = coeff[:, inliers]
        smp = arr[inliers].T
        gram = j @ j.T
        if abs(np.linalg.det(gram)) <= 1e-12:
            break
        basis = smp @ j.T @ np.linalg.inv(gram)
    grid = 2.0 * noise
    basis = np.rint(basis / grid) * grid
    if abs(np.linalg.det(basis)) <= (0.1 * zero) ** rank:
        raise RankDeficient("snapped basis degenerated")
    return RealLattice(basis, precision).canonical()
