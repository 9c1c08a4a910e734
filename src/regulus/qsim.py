"""Exact classical simulation of the period-finding measurement pipeline.

The quantum subroutine's state after measuring the function register is
classically determined: it is the uniform superposition over the preimage of
the observed label.  Only that sparse support is ever stored, and always in
one form, `PreimageState`: a run table holding, for each row of the leading
coordinate, the runs of consecutive points along the last axis, each tagged
with its lattice translate.  Point-set hiders hand their preimage to
`state_from_points`; the pair hider of `pip_solver` writes its blocks
directly.  Applying the zero-filled transform to the runs gives exact
outcome probabilities over Z_{qk}^r, from which outcomes are drawn,
filtered, and mapped to dual-lattice candidates.
"""

from __future__ import annotations

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
    """The grid hiding function as the pipeline reads it: the labels of an
    (n, r) point array as (n, r) int64, the label key of one point, the
    preimage of a label, and the lattice translate of each preimage point."""

    def label_of(self, points) -> np.ndarray: ...

    def label_key(self, point) -> tuple[int, ...]: ...

    def preimage_points(self, label) -> np.ndarray: ...

    def translate_coords(self, points) -> np.ndarray: ...

    def translate_clipped(self, coords, label) -> np.ndarray: ...


def _centre_int(pts: np.ndarray) -> np.ndarray:
    """Member of a lexicographically sorted point set minimising the summed
    Euclidean distance; ties (sums within 1e-12 of the minimum) go to the
    lexicographically first.  Within one row that is the lower median."""
    if pts[0, 0] == pts[-1, 0]:
        return pts[(len(pts) - 1) // 2].copy()
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).sum(axis=1)
    return pts[int(np.argmax(dists <= dists.min() + 1e-12))].copy()


@dataclass
class PreimageState:
    """Sparse support of the post-measurement state, held as a run table.

    `rows` (R,) are the distinct leading coordinates (a rank-1 support is the
    single row 0); `starts` and `lengths` (R, m) are each row's runs along
    the last axis, in order of increasing start and padded with length-0
    runs; `run_translates` (R, m) is the translate each run belongs to.
    `clipped[t]` marks translates whose ideal block was cut by the domain
    edge.  Points, centres and half-widths are derived from the runs; the
    tables are int32, since a pair label holds about 2^15 rows of them."""

    label: tuple
    rows: np.ndarray              # (R,) int64
    starts: np.ndarray            # (R, m) int32
    lengths: np.ndarray           # (R, m) int32
    run_translates: np.ndarray    # (R, m) int32
    clipped: np.ndarray           # (translates,) bool
    params: ExperimentParams

    def __post_init__(self):
        if self.params.rank > 2:
            raise DomainTooLarge("run tables hold supports of rank <= 2")

    @classmethod
    def from_runs(cls, label, params: ExperimentParams, run_rows, starts,
                  lengths, translates, clipped) -> "PreimageState":
        """State from its nonempty runs listed row by row: `run_rows`
        nondecreasing, and starts increasing within a row."""
        first = np.flatnonzero(np.r_[len(run_rows) > 0, run_rows[1:] != run_rows[:-1]])
        per_row = np.diff(np.r_[first, len(run_rows)])
        # row-major order of the filled cells is the order of the runs
        filled = np.arange(per_row.max(initial=0)) < per_row[:, None]
        tables = np.zeros((3,) + filled.shape, dtype=np.int32)
        for table, values in zip(tables, (starts, lengths, translates)):
            table[filled] = values
        return cls(tuple(np.atleast_1d(label).tolist()), run_rows[first],
                   *tables, clipped, params)

    @property
    def cardinality(self) -> int:
        return int(self.lengths.sum())

    @property
    def translate_count(self) -> int:
        return len(self.clipped)

    def _live(self, *tables) -> list[np.ndarray]:
        """Each table's entries at the nonempty runs, in row-major order."""
        live = self.lengths > 0
        return [np.broadcast_to(t, live.shape)[live] for t in tables]

    @cached_property
    def _row_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Every support point as (row, last coordinate), in lexicographic
        order, and its translate id."""
        rows, starts, lengths, translates = self._live(
            self.rows[:, None], self.starts, self.lengths, self.run_translates)
        run = np.repeat(np.arange(len(lengths)), lengths)
        offset = np.arange(len(run)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return np.c_[rows[run], starts[run] + offset], translates[run]

    @property
    def points(self) -> np.ndarray:
        """(T, r) int64 support points."""
        return self._row_points[0][:, 2 - self.params.rank:]

    @property
    def translate_ids(self) -> np.ndarray:
        """(T,) translate id of each point."""
        return self._row_points[1]

    @cached_property
    def _split_translates(self) -> list[tuple[int, np.ndarray]]:
        """(translate, its points) for each translate held in several runs."""
        if np.count_nonzero(self.lengths) == self.translate_count:
            return []       # as many runs as translates: one run each
        translates, = self._live(self.run_translates)
        split = np.flatnonzero(np.bincount(translates, minlength=self.translate_count) > 1)
        pts, ids = self._row_points
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.r_[split, split + 1])
        return [(t, pts[order[lo:hi]])
                for t, lo, hi in zip(split, bounds[:len(split)], bounds[len(split):])]

    @cached_property
    def centres(self) -> np.ndarray:
        """(translates, r) per-translate centres (sum-of-distances minimiser,
        lexicographic ties); in one dimension that is the lower median, at
        start + (L - 1) // 2 for a translate held in one run of length L."""
        rows, starts, lengths, translates = self._live(
            self.rows[:, None], self.starts, self.lengths, self.run_translates)
        out = np.zeros((self.translate_count, 2), dtype=np.float64)
        out[translates, 0] = rows
        out[translates, 1] = starts + (lengths - 1) // 2
        for t, tp in self._split_translates:
            out[t] = _centre_int(tp)
        return out[:, 2 - self.params.rank:]

    @property
    def half_widths(self) -> np.ndarray:
        """(translates, r) per-axis max deviation of support from its centre:
        L // 2 along the last axis for a translate held in one run of length
        L."""
        lengths, translates = self._live(self.lengths, self.run_translates)
        out = np.zeros((2, self.translate_count), dtype=np.float64)
        out[1, translates] = lengths // 2
        for t, tp in self._split_translates:
            out[:, t] = np.abs(tp - _centre_int(tp)).max(axis=0)
        return out[2 - self.params.rank:].T

    @cached_property
    def measured_radius(self) -> float:
        """Largest unclipped half-width, in grid units; every translate
        counts when all are clipped."""
        widths = self.half_widths.T.max(axis=0)
        unclipped = widths[~self.clipped]
        return float((unclipped if len(unclipped) else widths).max(initial=0.0))

    def beta(self) -> float:
        """Measured support radius in units of the 1/N grid (the scale of the
        quarter-log-discriminant bound)."""
        return self.measured_radius / self.params.n_param

    def complete_translates(self) -> int:
        return self.translate_count - int(np.count_nonzero(self.clipped))


def _group_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (n, d) integer array in lexicographic order, and
    the index of each row among them, as a row-wise `np.unique` gives them,
    through one 1-D sort.  The key is the row-major index of the min-shifted
    row in its bounding box, which orders rows lexicographically."""
    if not len(coords):
        return coords, np.zeros(0, dtype=np.intp)
    shifted = coords - coords.min(axis=0)
    key = np.ravel_multi_index(tuple(shifted.T), tuple(shifted.max(axis=0) + 1))
    _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    return coords[first], ids


def state_from_points(label, points: np.ndarray, params: ExperimentParams,
                      hider: Hider) -> PreimageState:
    """Group a preimage point set by lattice translate into a run table;
    runs split wherever the translate changes."""
    points = np.atleast_2d(np.asarray(points, dtype=np.int64))
    if points.shape[0] and points.shape[1] != params.rank:
        points = points.reshape(-1, params.rank)
    uniq, ids = _group_rows(hider.translate_coords(points))
    clipped = hider.translate_clipped(uniq, label)
    if params.rank == 1:
        points = np.c_[np.zeros_like(points), points]
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts, ids = points[order], ids[order]
    step = (np.diff(pts[:, 0]) != 0) | (np.diff(pts[:, 1]) != 1) | (np.diff(ids) != 0)
    first = np.flatnonzero(np.r_[len(pts) > 0, step])
    return PreimageState.from_runs(label, params, pts[first, 0], pts[first, 1],
                                   np.diff(np.r_[first, len(pts)]), ids[first],
                                   np.asarray(clipped, dtype=bool))


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

    def translate_clipped(self, coords, label) -> np.ndarray:
        """Translates whose ideal block [ceil(N(jR + lo)), ceil(N(jR + hi)) - 1]
        leaves [0, q)."""
        lo, hi = self.cycle.cell_bounds(int(np.atleast_1d(label)[0]))
        n = self.params.n_param
        j = np.atleast_2d(coords)[:, 0]
        first = np.ceil(n * (j * self._r + lo))
        last = np.ceil(n * (j * self._r + hi)) - 1
        return (first < 0) | (last > self.params.q - 1)

    @cached_property
    def _grid_labels(self) -> np.ndarray:
        """Label index of every v in [0, q), from one vectorised pass."""
        return self.label_of(np.arange(self.params.q).reshape(-1, 1))[:, 0]

    def preimage_points(self, label) -> np.ndarray:
        """All v in [0, q) with the given label, in increasing order."""
        li = int(np.atleast_1d(label)[0])
        return np.flatnonzero(self._grid_labels == li).reshape(-1, 1)


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
    """Exact outcome probabilities of the zero-filled transform over Z_{qk}^r;
    outcomes are drawn with `draw_index` on their cumulative sum."""

    probs: np.ndarray          # shape (qk,)*r

    def __post_init__(self):
        total = float(self.probs.sum())
        if abs(total - 1.0) > _NORMALISATION_TOL:
            raise ArithmeticError(f"spectrum not normalised: sum={total!r}")

    def nonzero_items(self):
        """(c, probability) pairs with probability above 2^-40 (dust)."""
        idx = np.argwhere(self.probs > 2.0 ** -40)
        for ix in idx:
            yield tuple(int(x) for x in ix), float(self.probs[tuple(ix)])


def qft_spectrum(state: PreimageState, params: ExperimentParams) -> SpectrumDistribution:
    """P(c) = |sum_w exp(2*pi*i*(w.c)/(qk))|^2 / ((qk)^r T) for all c.

    Dense zero-padded path, domain capped at 2^24 points: the support's
    indicator is real, so one real-input transform gives half of the last
    axis and P(c) = P(-c mod qk) the rest."""
    qk, r = params.qk, params.rank
    if qk ** r > _DENSE_CAP:
        raise DomainTooLarge(f"(qk)^r = {qk ** r} exceeds dense cap 2^24")
    t = state.cardinality
    if t < 1:
        raise ValueError("empty support")
    # flat index of every support point, run by run; a rank-1 grid is the
    # single row 0
    live = state.lengths > 0
    first = (state.rows[:, None] * qk + state.starts)[live]
    ls = state.lengths[live]
    ind = np.zeros((qk,) * r, dtype=np.float64)
    ind.reshape(-1)[np.repeat(first - np.cumsum(ls) + ls, ls) + np.arange(t)] = 1.0
    return SpectrumDistribution(probs=_real_power(ind) / (qk ** r * t))


def _real_power(ind: np.ndarray) -> np.ndarray:
    """|sum_w ind(w) exp(2*pi*i*(w.c)/n)|^2 at every c of a real array of
    rank 1 or 2 with n points per axis.

    The real-input transform gives the half of the last axis at or below
    n/2; the rest follows from P(c) = P(-c mod n), since the input is real."""
    n = ind.shape[-1]
    half = np.fft.rfftn(ind)
    h = half.shape[-1]                  # n // 2 + 1
    out = np.empty(ind.shape, dtype=np.float64)
    out[..., :h] = half.real ** 2 + half.imag ** 2
    low = out[..., n - h:0:-1]          # P at -c for the last-axis c in [h, n)
    if out.ndim == 1:
        out[h:] = low
    else:
        out[0, h:] = low[0]
        out[1:, h:] = low[:0:-1]
    return out


def spectrum_probability(state: PreimageState, params: ExperimentParams,
                         c_points: np.ndarray) -> np.ndarray:
    """Direct sparse summation of the same probabilities at selected c.

    Consecutive support runs are summed in closed form, so the cost is
    (number of runs) x (distinct last coordinates of c) plus (rows) x
    (number of c points), regardless of q^r."""
    qk, r = params.qk, params.rank
    if state.cardinality < 1:
        raise ValueError("empty support")
    cs = np.mod(np.atleast_2d(np.asarray(c_points, dtype=np.int64)), qk)
    # per-row run sums at each distinct last coordinate, then the row phases
    # e(row*c1); a rank-1 support is the single row 0, whose phase is 1
    rows = state.rows
    c2s, inv = np.unique(cs[:, -1], return_inverse=True)
    row_amp = _run_sum(state.starts, state.lengths, c2s, qk)
    table = _phase_table(qk)
    amp = np.empty(len(cs), dtype=np.complex128)
    chunk = max(1, _BLOCK // len(rows))
    for lo in range(0, len(cs), chunk):
        sl = slice(lo, lo + chunk)
        phase = table[(rows[:, None] * cs[None, sl, 0]) % qk]
        amp[sl] = (phase * row_amp[:, inv[sl]]).sum(axis=0)
    return (amp.real ** 2 + amp.imag ** 2) / (qk ** r * state.cardinality)


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
    """Exact two-stage outcome sampling from the run table of a rank-2
    preimage state.

    The marginal of the second coordinate is the row-mass mixture of per-row
    spectra; conditioned on it, the first coordinate follows the transform
    of the per-row sums.  Together these reproduce the joint law of
    qft_spectrum exactly without the dense grid.  A draw is `draw_row`, then
    `sample` on that row: c2 from the row's spectrum, a real-input transform
    of its indicator mirrored as in qft_spectrum, then c1 from the complex
    transform of the per-row sums at c2."""

    def __init__(self, state: PreimageState):
        if state.params.rank != 2:
            raise ValueError("two-stage sampling is for rank 2")
        self.state, self.params = state, state.params
        self.rows, self.starts, self.lengths = state.rows, state.starts, state.lengths
        self._cum_rows = np.cumsum(self.lengths.sum(axis=1))

    def draw_row(self, rng: np.random.Generator) -> int:
        return draw_index(self._cum_rows, rng)

    def sample(self, rng: np.random.Generator, row_idx: int) -> tuple[int, int]:
        qk = self.params.qk
        # stage 1: c2 from the drawn row's own spectrum; a row holds few
        # runs, so a loop fills it faster than qft_spectrum's vectorised fill
        ind = np.zeros(qk, dtype=np.float64)
        for s, ln in zip(self.starts[row_idx], self.lengths[row_idx]):
            ind[s:s + ln] = 1.0
        c2 = draw_index(np.cumsum(_real_power(ind)), rng)
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
    """Two-stage sampler over a rank-2 preimage state of a point-set hider."""


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
