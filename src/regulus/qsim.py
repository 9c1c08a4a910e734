"""Exact classical simulation of the period-finding measurement pipeline.

The quantum subroutine's state after measuring the function register is
classically determined: it is the uniform superposition over the preimage of
the observed label.  Only that sparse support is ever stored; applying the
zero-filled transform to it gives exact outcome probabilities over Z_{qk}^r,
from which outcomes are drawn, filtered, and mapped to dual-lattice
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Protocol

import numpy as np

from .errors import DomainTooLarge, RestartRequired
from .ideals import Cycle, ExperimentParams

_DENSE_CAP = 2 ** 24
_NORMALISATION_TOL = 2.0 ** -30
_BLOCK = 2 ** 16       # (row, run, c) cells per block of the run-sum kernel
# a label with fewer complete translates inside the domain shows no period
_MIN_COMPLETE_TRANSLATES = 2


class Hider(Protocol):
    """The grid hiding function as the pipeline reads it: labels, the
    preimage of a label, and the lattice translate each preimage point
    belongs to."""

    def label_key(self, point) -> tuple[int, ...]: ...

    def preimage_points(self, label) -> np.ndarray: ...

    def translate_coords(self, points) -> np.ndarray: ...

    def translate_clipped(self, coords, label) -> np.ndarray: ...


def _centre_int(points: np.ndarray) -> np.ndarray:
    """Set member minimising the summed Euclidean distance; ties (sums
    within 1e-12 of the minimum) go to the lexicographically first."""
    pts = np.atleast_2d(points)
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).sum(axis=1)
    return pts[int(np.argmax(dists <= dists.min() + 1e-12))].copy()


@dataclass
class PreimageState:
    """Sparse support of the post-measurement state, grouped by translate.

    `clipped[t]` marks translates whose ideal block was cut by the domain
    edge.  Per-translate centres and half-widths are measured lazily from
    the points."""

    label: tuple
    points: np.ndarray            # (T, r) int64
    translate_ids: np.ndarray     # (T,) int64
    clipped: np.ndarray           # (m,) bool
    params: ExperimentParams

    @property
    def cardinality(self) -> int:
        return len(self.points)

    @property
    def translate_count(self) -> int:
        return len(self.clipped)

    @cached_property
    def _by_translate(self) -> list[np.ndarray]:
        order = np.argsort(self.translate_ids, kind="stable")
        pts = self.points[order]
        ids = self.translate_ids[order]
        bounds = np.searchsorted(ids, np.arange(self.translate_count + 1))
        return [pts[bounds[t]:bounds[t + 1]] for t in range(self.translate_count)]

    @cached_property
    def centres(self) -> np.ndarray:
        """Per-translate centres (sum-of-distances minimiser, lex ties); in
        one dimension that is the lower median."""
        out = np.zeros((self.translate_count, self.params.rank), dtype=np.float64)
        for t, pts in enumerate(self._by_translate):
            if len(pts) == 0:
                continue
            if self.params.rank == 1:
                out[t, 0] = np.sort(pts[:, 0])[(len(pts) - 1) // 2]
            else:
                out[t] = _centre_int(pts)
        return out

    @cached_property
    def half_widths(self) -> np.ndarray:
        """Per-translate, per-axis max deviation of support from its centre."""
        out = np.zeros((self.translate_count, self.params.rank), dtype=np.float64)
        for t, pts in enumerate(self._by_translate):
            if len(pts):
                out[t] = np.abs(pts - self.centres[t]).max(axis=0)
        return out

    @cached_property
    def measured_radius(self) -> float:
        """Largest unclipped half-width, in grid units."""
        mask = ~self.clipped
        if not mask.any():
            mask = np.ones(self.translate_count, dtype=bool)
        widths = self.half_widths[mask]
        return float(widths.max()) if len(widths) else 0.0

    def beta(self) -> float:
        """Measured support radius in units of the 1/N grid (the scale of the
        quarter-log-discriminant bound)."""
        return self.measured_radius / self.params.n_param

    def complete_translates(self) -> int:
        return int((~self.clipped).sum())


def state_from_points(label, points: np.ndarray, params: ExperimentParams,
                      hider: Hider) -> PreimageState:
    """Group a preimage point set by lattice translate."""
    points = np.atleast_2d(np.asarray(points, dtype=np.int64))
    if points.shape[0] and points.shape[1] != params.rank:
        points = points.reshape(-1, params.rank)
    coords = hider.translate_coords(points)
    uniq, ids = np.unique(coords, axis=0, return_inverse=True)
    clipped = hider.translate_clipped(uniq, label)
    return PreimageState(
        label=tuple(np.atleast_1d(label).tolist()),
        points=points,
        translate_ids=ids.astype(np.int64),
        clipped=np.asarray(clipped, dtype=bool),
        params=params,
    )


class CycleHider:
    """Hiding function of a principal cycle on the integer grid: the label of
    v is the cycle entry nearest v/N mod R."""

    def __init__(self, cycle: Cycle, params: ExperimentParams):
        if params.rank != 1:
            raise ValueError("cycle hider is one-dimensional")
        self.cycle = cycle
        self.params = params
        self._r = cycle.regulator_f
        self._deltas = cycle._deltas_f

    def label_of(self, points) -> np.ndarray:
        v = np.atleast_2d(np.asarray(points))[:, 0]
        idx = self.cycle.label_indices(v / self.params.n_param)
        return idx.reshape(-1, 1).astype(np.int64)

    def label_key(self, point) -> tuple[int, ...]:
        return (int(self.label_of(np.atleast_2d(point))[0, 0]),)

    def translate_coords(self, points) -> np.ndarray:
        v = np.atleast_2d(np.asarray(points))[:, 0].astype(np.float64)
        idx = self.label_of(points)[:, 0]
        delta = self._deltas[idx]
        j = np.rint((v / self.params.n_param - delta) / self._r)
        return j.reshape(-1, 1).astype(np.int64)

    def _block_interval(self, j: int, label_idx: int) -> tuple[int, int]:
        """Ideal (unclipped) integer endpoints of translate j's block."""
        lo, hi = self.cycle.cell_bounds(label_idx)
        n = self.params.n_param
        a = math.ceil(n * (j * self._r + lo))
        b = math.ceil(n * (j * self._r + hi)) - 1
        return a, b

    def translate_clipped(self, coords, label) -> np.ndarray:
        li = int(np.atleast_1d(label)[0])
        out = []
        for j in np.atleast_2d(coords)[:, 0]:
            a, b = self._block_interval(int(j), li)
            out.append(a < 0 or b > self.params.q - 1)
        return np.array(out, dtype=bool)

    def preimage_points(self, label) -> np.ndarray:
        """All v in [0, q) with the given label, via translated cell blocks
        filtered through the canonical label map."""
        li = int(np.atleast_1d(label)[0])
        q, n = self.params.q, self.params.n_param
        lo, hi = self.cycle.cell_bounds(li)
        j_lo = math.floor((0 / n - hi) / self._r) - 1
        j_hi = math.ceil((q / n - lo) / self._r) + 1
        chunks = []
        for j in range(j_lo, j_hi + 1):
            a, b = self._block_interval(j, li)
            a, b = max(a - 2, 0), min(b + 2, q - 1)
            if a > b:
                continue
            cand = np.arange(a, b + 1, dtype=np.int64)
            keep = self.label_of(cand.reshape(-1, 1))[:, 0] == li
            if keep.any():
                chunks.append(cand[keep])
        if not chunks:
            return np.zeros((0, 1), dtype=np.int64)
        allv = np.unique(np.concatenate(chunks))
        return allv.reshape(-1, 1)


def collapse(f: Hider, params: ExperimentParams,
             rng: np.random.Generator) -> PreimageState:
    """Measure the function register: draw w uniformly, return the full
    preimage of its label, grouped by translate.

    Raises RestartRequired when fewer than two translates survive inside the
    domain untruncated, i.e. when no periodicity is visible and the run must
    be restarted."""
    w = rng.integers(0, params.q, size=params.rank)
    label = f.label_key(w)
    points = f.preimage_points(label)
    state = state_from_points(label, points, params, f)
    if state.complete_translates() < _MIN_COMPLETE_TRANSLATES:
        raise RestartRequired(
            f"label {label}: {state.complete_translates()} complete translates")
    return state


@dataclass
class SpectrumDistribution:
    """Exact outcome probabilities of the zero-filled transform over Z_{qk}^r."""

    probs: np.ndarray          # shape (qk,)*r
    q: int
    k: int
    rank: int

    def __post_init__(self):
        total = float(self.probs.sum())
        if abs(total - 1.0) > _NORMALISATION_TOL:
            raise ArithmeticError(f"spectrum not normalised: sum={total!r}")

    @property
    def qk(self) -> int:
        return self.q * self.k

    def prob(self, c) -> float:
        idx = tuple(int(x) % self.qk for x in np.atleast_1d(c))
        return float(self.probs[idx])

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        pos = draw_index(np.cumsum(self.probs.reshape(-1)), rng)
        return tuple(int(x) for x in np.unravel_index(pos, self.probs.shape))

    def nonzero_items(self, threshold: float = 2.0 ** -40):
        """(c, probability) pairs with probability above the dust threshold."""
        idx = np.argwhere(self.probs > threshold)
        for ix in idx:
            yield tuple(int(x) for x in ix), float(self.probs[tuple(ix)])


def qft_spectrum(state: PreimageState, params: ExperimentParams) -> SpectrumDistribution:
    """P(c) = |sum_w exp(2*pi*i*(w.c)/(qk))|^2 / ((qk)^r T) for all c.

    Dense zero-padded fast-transform path; domain capped at 2^24 points."""
    qk, r = params.qk, params.rank
    if qk ** r > _DENSE_CAP:
        raise DomainTooLarge(f"(qk)^r = {qk ** r} exceeds dense cap 2^24")
    t = state.cardinality
    if t < 1:
        raise ValueError("empty support")
    shape = (qk,) * r
    ind = np.zeros(shape, dtype=np.float64)
    ind[tuple(state.points.T)] = 1.0
    amp = np.fft.ifftn(ind) * (qk ** r)
    probs = (amp.real ** 2 + amp.imag ** 2) / (qk ** r * t)
    return SpectrumDistribution(probs=probs, q=params.q, k=params.k, rank=r)


def spectrum_probability(state: PreimageState, params: ExperimentParams,
                         c_points: np.ndarray) -> np.ndarray:
    """Direct sparse summation of the same probabilities at selected c.

    Consecutive support runs are summed in closed form, so the cost is
    (number of runs) x (distinct second coordinates of c) plus (rows) x
    (number of c points), regardless of q^r."""
    qk, r = params.qk, params.rank
    if r > 2:
        raise DomainTooLarge("sparse path implemented for rank <= 2")
    cs = np.mod(np.atleast_2d(np.asarray(c_points, dtype=np.int64)), qk)
    points = state.points
    if r == 1:
        # a rank-1 support is the single row 0 of a rank-2 one, read at c1 = 0
        points = np.c_[np.zeros_like(points), points]
        cs = np.c_[np.zeros_like(cs), cs]
    # per-row run sums at each distinct c2, then the row phases e(row*c1)
    rows, starts, lengths = _row_runs(points)
    c2s, inv = np.unique(cs[:, 1], return_inverse=True)
    row_amp = _run_sum(starts, lengths, c2s, qk)
    table = _phase_table(qk)
    amp = np.empty(len(cs), dtype=np.complex128)
    chunk = max(1, _BLOCK // len(rows))
    for lo in range(0, len(cs), chunk):
        sl = slice(lo, lo + chunk)
        phase = table[(rows[:, None] * cs[None, sl, 0]) % qk]
        amp[sl] = (phase * row_amp[:, inv[sl]]).sum(axis=0)
    return (amp.real ** 2 + amp.imag ** 2) / (qk ** r * state.cardinality)


def _row_runs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-2 support as a run table: distinct rows (first coordinate) and
    per-row (start, length) runs along the second, shapes (R,), (R, m) x2,
    padded with length-0 runs."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    new_run = np.r_[True, (np.diff(pts[:, 0]) != 0) | (np.diff(pts[:, 1]) != 1)]
    first = np.flatnonzero(new_run)
    rows, row_of_run, per_row = np.unique(pts[first, 0], return_inverse=True,
                                          return_counts=True)
    slot = np.arange(len(first)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    starts = np.zeros((len(rows), int(per_row.max())), dtype=np.int64)
    lengths = np.zeros_like(starts)
    starts[row_of_run, slot] = pts[first, 1]
    lengths[row_of_run, slot] = np.diff(np.r_[first, len(pts)])
    return rows, starts, lengths


@lru_cache(maxsize=4)
def _phase_table(qk: int) -> np.ndarray:
    """T[k] = e(k) = exp(2*pi*i*k/qk) for k in [0, qk)."""
    table = np.exp(2j * np.pi * np.arange(qk) / qk)
    table.flags.writeable = False
    return table


def _run_sum(starts: np.ndarray, lengths: np.ndarray, cs: np.ndarray,
             qk: int) -> np.ndarray:
    """Per-row sums over runs of e(start*c) * (e(len*c) - 1)/(e(c) - 1), for
    each c in cs: run tables of shape (R, m) and n values of c give (R, n).

    Each run contributes e((start+len)*c) - e(start*c) over the common
    denominator, with every phase read from the table at an exact integer
    residue mod qk; c = 0 mod qk sums the lengths.  A length-0 run adds 0.
    Work proceeds in blocks of about 2^16 (row, run, c) cells, which keeps
    the temporaries in cache."""
    table = _phase_table(qk)
    ends = starts + lengths
    c = np.mod(np.asarray(cs, dtype=np.int64), qk)
    num = np.empty((len(starts), len(c)), dtype=np.complex128)
    m = starts.shape[1]
    nc = max(1, min(len(c), _BLOCK // m))
    nr = max(1, _BLOCK // (m * nc))
    for j in range(0, len(c), nc):
        cc = c[j:j + nc]
        for i in range(0, len(starts), nr):
            s, e = starts[i:i + nr, :, None], ends[i:i + nr, :, None]
            num[i:i + nr, j:j + nc] = (table[(e * cc) % qk]
                                       - table[(s * cc) % qk]).sum(axis=1)
    zero = c == 0
    den = np.where(zero, 1.0, table[c] - 1.0)
    return np.where(zero, lengths.sum(axis=1)[:, None], num / den)


def draw_index(cum: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw from cumulative weights: index of the first entry at
    or above u * total, clamped to the last index."""
    return min(int(np.searchsorted(cum, rng.random() * cum[-1])), cum.size - 1)


class RowRunSampler:
    """Exact two-stage outcome sampling for a rank-2 support held as a run
    table: `rows` (R,), and per-row runs `starts`, `lengths` (R, m) along the
    second axis, padded with length-0 runs.

    The marginal of the second coordinate is the row-mass mixture of per-row
    spectra; conditioned on it, the first coordinate follows the transform
    of the per-row sums.  Together these reproduce the joint law of
    qft_spectrum exactly without the dense grid.  A draw is `draw_row`, then
    `sample` on that row (c2 from the row's spectrum, then c1)."""

    def __init__(self, params: ExperimentParams, rows: np.ndarray,
                 starts: np.ndarray, lengths: np.ndarray):
        if params.rank != 2:
            raise ValueError("two-stage sampling is for rank 2")
        self.params = params
        self.rows, self.starts, self.lengths = rows, starts, lengths
        self._cum_rows = np.cumsum(lengths.sum(axis=1))
        self.total = int(self._cum_rows[-1])

    def draw_row(self, rng: np.random.Generator) -> int:
        return draw_index(self._cum_rows, rng)

    def sample(self, rng: np.random.Generator, row_idx: int) -> tuple[int, int]:
        qk = self.params.qk
        # stage 1: c2 from the drawn row's own spectrum
        ind = np.zeros(qk, dtype=np.float64)
        for s, ln in zip(self.starts[row_idx], self.lengths[row_idx]):
            ind[s:s + ln] = 1.0
        amp = np.fft.ifft(ind) * qk
        c2 = draw_index(np.cumsum(amp.real ** 2 + amp.imag ** 2), rng)
        # stage 2: c1 from the transform of the per-row sums at c2
        z = np.zeros(qk, dtype=np.complex128)
        z[self.rows] = self.row_transforms(c2)
        amp1 = np.fft.ifft(z) * qk
        c1 = draw_index(np.cumsum(amp1.real ** 2 + amp1.imag ** 2), rng)
        return c1, c2

    def row_transforms(self, c2: int) -> np.ndarray:
        """R_a(c2): every row's run sum at c2, shape (R,)."""
        return _run_sum(self.starts, self.lengths, np.array([c2]), self.params.qk)[:, 0]


class TwoStageSampler(RowRunSampler):
    """Two-stage sampler over the points of a rank-2 preimage state."""

    def __init__(self, state: PreimageState, params: ExperimentParams):
        super().__init__(params, *_row_runs(state.points))


def centred(c, qk: int) -> np.ndarray:
    """Residues of c mod qk mapped to [-qk/2, qk/2)."""
    arr = np.mod(np.atleast_1d(np.asarray(c, dtype=np.int64)), qk)
    return np.where(arr >= qk // 2, arr - qk, arr)


def acceptance_bound(params: ExperimentParams, beta: float) -> float:
    """The acceptance cut q/(5(beta+1)) on centred outcomes."""
    return params.q / (5.0 * (beta + 1.0))


def accept(c, params: ExperimentParams, beta: float) -> bool:
    """Keep outcomes with centred infinity norm strictly below
    `acceptance_bound`.

    beta is the measured support radius in grid units (1/N of the raw
    integer half-width); for translate-structured supports the kept
    outcomes satisfy dist(c/qk, dual lattice) <= 1/(2qk) per coordinate."""
    cc = centred(c, params.qk)
    return bool(np.max(np.abs(cc)) < acceptance_bound(params, beta))


def dual_candidate(c, params: ExperimentParams) -> np.ndarray:
    """Map an accepted outcome to the dual-lattice candidate c/(qk)."""
    return centred(c, params.qk).astype(np.float64) / params.qk
