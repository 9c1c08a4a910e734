"""Independent ground truth used by tests and reporting, never by recovery.

Contains: the continued-fraction regulator (a code path fully independent of
the rho-walk), exhaustive reduced-ideal enumeration with class cycles and a
non-principality certificate, the Definition-of-centre helper, exhaustive
preimage enumeration, and the synthetic planted-lattice oracle used to
exercise the sampler at rank >= 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import DomainTooLarge, EmptySet, IllConditioned, NotSquarefree
from .ideals import Cycle, ExperimentParams, ReducedIdeal, cycle_from, is_reduced, start_ideal
from .numfield import DEFAULT_PRECISION, QuadraticField, _GUARD_BITS, _squarefree
from .qsim import Hider, PreimageState, state_from_points


def pell_solution(d: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - D y^2 = +-1 via continued fractions.

    Pure integer convergent recurrence; independent of the rho-walk."""
    if not _squarefree(d):
        raise NotSquarefree(f"D must be squarefree, got {d}")
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        m = a * den - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0:
            break
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k


def cf_regulator(d: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Regulator of Z[sqrt(D)] as log of the fundamental Pell unit.

    Self-check: the rounded unit coefficients solve x^2 - D y^2 = +-1."""
    x, y = pell_solution(d)
    if x * x - d * y * y not in (1, -1):
        raise ArithmeticError(f"Pell self-check failed for D={d}")
    with mp.workprec(precision + _GUARD_BITS):
        return mp.log(x + y * mp.sqrt(d))


def reduced_ideals(field: QuadraticField) -> list[ReducedIdeal]:
    """All reduced ideals of the order, lexicographically sorted."""
    d = field.d
    out = []
    for p in range(1, math.isqrt(d) + 1):
        rem = d - p * p
        for q in range(1, 2 * math.isqrt(d) + 2):
            if rem % q == 0:
                ideal = ReducedIdeal(p, q)
                if is_reduced(field, ideal):
                    out.append(ideal)
    return sorted(out)


def class_cycles(field: QuadraticField,
                 precision: int = DEFAULT_PRECISION) -> list[Cycle]:
    """Partition of all reduced ideals into rho cycles; principal first."""
    remaining = set(reduced_ideals(field))
    cycles = [cycle_from(field, start_ideal(field), precision)]
    remaining -= set(cycles[0].ideals)
    while remaining:
        base = min(remaining)
        cyc = cycle_from(field, base, precision)
        cycles.append(cyc)
        remaining -= set(cyc.ideals)
    return cycles


@dataclass(frozen=True)
class NonPrincipalCertificate:
    """Exhaustive certificate: every reduced ideal enumerated, the principal
    cycle removed, the least leftover label returned."""

    ideal: ReducedIdeal
    total_reduced: int
    principal_count: int


def certified_nonprincipal(field: QuadraticField,
                           precision: int = DEFAULT_PRECISION) -> NonPrincipalCertificate:
    """Least reduced ideal outside the principal cycle (exhaustive search)."""
    allr = reduced_ideals(field)
    principal = set(cycle_from(field, start_ideal(field), precision).ideals)
    rest = [i for i in allr if i not in principal]
    if not rest:
        raise EmptySet(f"every reduced ideal of D={field.d} is principal")
    return NonPrincipalCertificate(min(rest), len(allr), len(principal))


def centre(points) -> tuple[int, ...]:
    """Point of the set minimising the sum of Euclidean distances to all
    members; ties broken lexicographically."""
    pts = [tuple(int(x) for x in np.atleast_1d(p)) for p in points]
    if not pts:
        raise EmptySet("centre of empty set")
    arr = np.array(pts, dtype=np.float64)
    best = None
    for cand in sorted(pts):
        s = float(np.sum(np.linalg.norm(arr - np.array(cand, dtype=np.float64), axis=1)))
        if best is None or s < best[0] - 1e-12:
            best = (s, cand)
    return best[1]


class SyntheticOracle:
    """Planted-lattice hiding function on Z_q^r.

    Each point is labelled by the per-axis window index of its displacement
    to the nearest point of the hidden lattice N*Lambda; windows have width
    `bucket` centred on zero, so `bucket` displacement values share a label
    per axis and the function is many-to-one per translate."""

    def __init__(self, lattice_basis, n_param: int, bucket: int, q: int):
        basis = np.atleast_2d(np.asarray(lattice_basis, dtype=np.float64))
        self.rank = basis.shape[0]
        self.lattice_basis = basis
        self.effective = n_param * basis       # hidden lattice N*Lambda
        self.n_param = n_param
        self.bucket = int(bucket)
        self.q = q
        self._inv = np.linalg.inv(self.effective)

    @property
    def planted_det(self) -> float:
        return abs(float(np.linalg.det(self.effective)))

    def label_of(self, points: np.ndarray) -> np.ndarray:
        """Window-index labels, shape (npoints, rank) int64."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        coeff = np.rint(pts @ self._inv.T)
        disp = pts - coeff @ self.effective.T
        return np.floor((disp + self.bucket / 2) / self.bucket).astype(np.int64)

    def label_key(self, point) -> tuple[int, ...]:
        return tuple(int(x) for x in self.label_of(np.atleast_2d(point))[0])

    def translate_coords(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.rint(pts @ self._inv.T).astype(np.int64)

    def _window_box(self, coords, label):
        """Real bounding box of a translate's label window, per axis."""
        lab = np.asarray(label, dtype=np.float64)
        centre = np.atleast_2d(np.asarray(coords, dtype=np.float64)) @ self.effective.T
        lo = centre + lab * self.bucket - self.bucket / 2
        return lo, lo + self.bucket

    def translate_clipped(self, coords, label) -> np.ndarray:
        lo, hi = self._window_box(coords, label)
        return np.any((lo < 0) | (hi > self.q), axis=1)

    def preimage_points(self, label) -> np.ndarray:
        """All domain points with the given label.

        Candidate windows around each lattice translate are enumerated with
        a margin and filtered through label_of, so the result agrees exactly
        with exhaustive evaluation."""
        lab = np.asarray(label, dtype=np.int64)
        r, q, b = self.rank, self.q, self.bucket
        corners = np.array(list(itertools.product([0.0, float(q)], repeat=r)))
        jc = corners @ self._inv.T
        jlo = np.floor(jc.min(axis=0)).astype(int) - 2
        jhi = np.ceil(jc.max(axis=0)).astype(int) + 2
        pts = []
        axis_lo = lab * b - b / 2
        for j in itertools.product(*[range(jlo[i], jhi[i] + 1) for i in range(r)]):
            centre_real = self.effective @ np.array(j, dtype=np.float64)
            ranges = []
            empty = False
            for i in range(r):
                lo = math.ceil(centre_real[i] + axis_lo[i] - 1)
                hi = math.floor(centre_real[i] + axis_lo[i] + b + 1)
                lo, hi = max(lo, 0), min(hi, q - 1)
                if lo > hi:
                    empty = True
                    break
                ranges.append(range(lo, hi + 1))
            if empty:
                continue
            cand = np.array(list(itertools.product(*ranges)), dtype=np.int64)
            keep = np.all(self.label_of(cand) == lab, axis=1)
            if keep.any():
                pts.append(cand[keep])
        if not pts:
            return np.zeros((0, r), dtype=np.int64)
        allpts = np.concatenate(pts)
        return np.unique(allpts, axis=0)


def make_synthetic(lattice_basis, n_param: int, bucket: int, q: int) -> SyntheticOracle:
    """Synthetic oracle with hidden lattice N*Lambda planted on Z_q^r."""
    oracle = SyntheticOracle(lattice_basis, n_param, bucket, q)
    det = oracle.planted_det
    translates = (q ** oracle.rank) / det
    if translates < 8:
        raise IllConditioned(
            f"q^r/det(N*Lambda) = {translates:.2f} < 8: too few translates")
    min_axis = np.min(np.linalg.norm(oracle.effective, axis=0))
    if bucket >= min_axis / 2:
        raise IllConditioned(
            f"bucket {bucket} too wide for lattice spacing {min_axis:.2f}")
    return oracle


def exhaustive_preimage(f: Hider, params: ExperimentParams, label) -> PreimageState:
    """Evaluate the hiding function on every point of Z_q^r (oracle path)."""
    if params.q ** params.rank > 2 ** 20:
        raise DomainTooLarge(f"q^r = {params.q ** params.rank} > 2^20")
    axes = [np.arange(params.q)] * params.rank
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, params.rank)
    labels = f.label_of(grid)
    lab = np.atleast_1d(np.asarray(label))
    keep = np.all(labels == lab, axis=1)
    return state_from_points(label, grid[keep], params, f)
