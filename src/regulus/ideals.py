"""Reduced ideals of Z[sqrt(D)], the principal cycle, and grid label maps.

A reduced ideal is stored as the pair (P, Q) for I = Z*Q + Z*(P + sqrt(D)).
Walking the cycle with the rho step enumerates all reduced ideals equivalent
to the starting one; cumulative step distances give each ideal's position,
and one full loop has total length equal to the regulator of the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Iterator

import numpy as np
from mpmath import mp, mpf

from .errors import NotReduced, PrecisionExhausted
from .numfield import DEFAULT_PRECISION, QuadraticField, _GUARD_BITS


@dataclass(frozen=True, order=True)
class ReducedIdeal:
    """I = Z*Q + Z*(P + sqrt(D)); ordered lexicographically by (P, Q)."""

    p: int
    q: int

    def label(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __repr__(self) -> str:
        return f"ReducedIdeal(p={self.p}, q={self.q})"


def is_reduced(field: QuadraticField, ideal: ReducedIdeal) -> bool:
    """Exact check of 0 < sqrt(D) - P < Q < sqrt(D) + P and Q | D - P^2."""
    d, p, q = field.d, ideal.p, ideal.q
    if q <= 0 or p <= 0:
        return False
    if (d - p * p) % q != 0:
        return False
    if p * p >= d:                      # sqrt(D) - P > 0
        return False
    if (p + q) * (p + q) <= d:          # sqrt(D) - P < Q
        return False
    if q >= p and (q - p) * (q - p) >= d:   # Q < sqrt(D) + P
        return False
    return True


def rho_step(field: QuadraticField, ideal: ReducedIdeal,
             precision: int = DEFAULT_PRECISION) -> tuple[ReducedIdeal, mpf]:
    """Cycle successor of a reduced ideal and the log distance of the step.

    a = floor((P + sqrt(D))/Q), P' = a*Q - P, Q' = (D - P'^2)/Q;
    the step distance is log((P' + sqrt(D))/Q').
    """
    if not is_reduced(field, ideal):
        raise NotReduced(f"{ideal} is not reduced for D={field.d}")
    d = field.d
    a0 = math.isqrt(d)
    a = (ideal.p + a0) // ideal.q
    p2 = a * ideal.q - ideal.p
    q2 = (d - p2 * p2) // ideal.q
    succ = ReducedIdeal(p2, q2)
    with mp.workprec(precision + _GUARD_BITS):
        step = mp.log((p2 + mp.sqrt(d)) / q2)
    return succ, step


def start_ideal(field: QuadraticField) -> ReducedIdeal:
    """The reduced representative of the order itself, (floor(sqrt(D)), 1)."""
    return ReducedIdeal(math.isqrt(field.d), 1)


@dataclass
class Cycle:
    """Ordered principal cycle: reduced ideals with cumulative distances.

    entries[i] = (ideal, delta_i) with delta_0 = 0 and strictly increasing
    delta; the total walk length is the regulator.  Float64 copies of the
    distance table and the Voronoi midpoints are cached for bulk lookups.
    """

    field: QuadraticField
    entries: list[tuple[ReducedIdeal, mpf]]
    regulator: mpf
    precision: int
    _deltas_f: np.ndarray = dc_field(init=False, repr=False)
    _mids_f: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        deltas = np.array([float(d) for _, d in self.entries], dtype=np.float64)
        r = float(self.regulator)
        ext = np.append(deltas, r)
        mids = (ext[:-1] + ext[1:]) / 2.0
        self._deltas_f = deltas
        self._mids_f = mids

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ideals(self) -> list[ReducedIdeal]:
        return [i for i, _ in self.entries]

    @property
    def regulator_f(self) -> float:
        return float(self.regulator)

    def delta_of(self, ideal: ReducedIdeal) -> mpf:
        for i, d in self.entries:
            if i == ideal:
                return d
        raise KeyError(f"{ideal} not on cycle")

    def cell_bounds(self, index: int) -> tuple[float, float]:
        """Voronoi cell [lo, hi) of entry `index` in distance coordinates.

        For index 0 the cell straddles 0: lo is negative."""
        mids, r = self._mids_f, self.regulator_f
        if index == 0:
            return (mids[-1] - r, mids[0])
        return (mids[index - 1], mids[index])

    def label_indices(self, x: np.ndarray) -> np.ndarray:
        """Vectorised nearest-entry lookup of distance coordinates x mod R."""
        r = self.regulator_f
        xm = np.mod(np.asarray(x, dtype=np.float64), r)
        idx = np.searchsorted(self._mids_f, xm, side="right")
        return idx % len(self.entries)

    def csv_rows(self) -> Iterator[tuple[int, int, str]]:
        """(P, Q, delta) rows for export; 17 significant digits."""
        for ideal, delta in self.entries:
            yield ideal.p, ideal.q, format(float(delta), ".17g")


def cycle_from(field: QuadraticField, first: ReducedIdeal,
               precision: int = DEFAULT_PRECISION) -> Cycle:
    """Walk the rho step from `first` until the cycle closes."""
    entries: list[tuple[ReducedIdeal, mpf]] = [(first, mpf(0))]
    cur = first
    with mp.workprec(precision + _GUARD_BITS):
        total = mpf(0)
        while True:
            cur, step = rho_step(field, cur, precision)
            total = total + step
            if cur == first:
                break
            entries.append((cur, total))
            # Each step contributes one rounding of order 2^-(prec+guard).
            if len(entries) * mpf(2) ** (-(precision + _GUARD_BITS)) > mpf(2) ** (-precision // 2):
                raise PrecisionExhausted(
                    f"cycle of D={field.d} too long for precision {precision}")
    return Cycle(field, entries, total, precision)


def principal_cycle(field: QuadraticField,
                    precision: int = DEFAULT_PRECISION) -> Cycle:
    """The ordered cycle of principal reduced ideals, based at the order."""
    return cycle_from(field, start_ideal(field), precision)


def closest_ideal(cycle: Cycle, x) -> ReducedIdeal:
    """Entry whose distance minimises |x - delta| mod R.

    Ties within 2^-precision of the exact midpoint between two neighbours
    go to the lexicographically smaller (P, Q) label."""
    with mp.workprec(cycle.precision + _GUARD_BITS):
        r = cycle.regulator
        xm = mp.fmod(mpf(x), r)
        if xm < 0:
            xm += r
        best = None
        for ideal, delta in cycle.entries:
            d = abs(xm - delta)
            d = min(d, r - d)
            if best is None or d < best[0] - mpf(2) ** (-cycle.precision):
                best = (d, ideal)
            elif abs(d - best[0]) <= mpf(2) ** (-cycle.precision):
                best = (best[0], min(best[1], ideal))
        return best[1]


@dataclass(frozen=True)
class ExperimentParams:
    """(r, N, q, k, precision) governing the grid functions and the QFT."""

    rank: int
    n_param: int
    q: int
    k: int = 0
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.k == 0:
            object.__setattr__(self, "k", 3 * self.rank)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.n_param < 1 or self.n_param & (self.n_param - 1):
            raise ValueError(f"N must be a power of 2, got {self.n_param}")
        if self.q < 2 or self.q & (self.q - 1):
            raise ValueError(f"q must be a power of 2, got {self.q}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def qk(self) -> int:
        return self.q * self.k


def grid_label_index(cycle: Cycle, n_param: int, v) -> np.ndarray:
    """Vectorised grid hiding function as entry indices: v -> nearest entry
    to v/N mod R."""
    v = np.asarray(v, dtype=np.float64)
    return cycle.label_indices(v / n_param)


def grid_label(cycle: Cycle, n_param: int, v: int) -> ReducedIdeal:
    """The grid hiding function: v in Z^1 -> reduced ideal nearest v/N."""
    idx = int(grid_label_index(cycle, n_param, np.array([v]))[0])
    return cycle.entries[idx][0]
