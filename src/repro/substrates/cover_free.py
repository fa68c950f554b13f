"""Polynomial set systems over finite fields.

Both Linial's O(Delta^2)-coloring [Lin87] and the defective coloring of
Lemma 3.4 [Kuh09, KS18] rest on the same algebraic gadget: encode each of
``q`` current colors as a polynomial of degree at most ``k`` over a prime
field ``F_m`` (possible whenever ``q <= m**(k+1)``).  Two *distinct*
polynomials agree on at most ``k`` evaluation points, so a node can pick a
point where few (or no) neighbors' polynomials collide with its own --
that point/value pair is its new color from a palette of size ``m**2``.

The module provides the polynomial family, prime search, and the step
parameter selection for both the *proper* (zero collisions with up to
``avoid`` neighbors) and *defective* (collision rate at most
``alpha_step``) recoloring steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from ..sim import arrays

#: Largest full evaluation table (``q * m`` int64 entries) exported for
#: the NumPy kernel backend; larger families are evaluated per round on
#: the colors actually present instead of as one dense table.
VALUE_TABLE_LIMIT = 1 << 22

#: Bound of each scalar memo below (primes, families, schedules): sweeps
#: re-derive the same few field sizes and schedules for every trial.
MEMO_SIZE = 1 << 16

#: Bound of the value-table memo: each entry is a ``(q, m)`` int64
#: ndarray of up to :data:`VALUE_TABLE_LIMIT` entries.
VALUE_TABLE_MEMO_SIZE = 64


@lru_cache(maxsize=MEMO_SIZE)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality (fields here are small).

    Memoized: schedule construction probes the same field sizes for
    every trial of a sweep.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=MEMO_SIZE)
def next_prime(n: int) -> int:
    """The smallest prime >= n (memoized like :func:`is_prime`)."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PolynomialFamily:
    """Degree-``k`` polynomials over ``F_m`` indexed by ``0 .. q-1``.

    Index ``i`` maps to the polynomial whose coefficients are the base-``m``
    digits of ``i``; distinct indices give distinct polynomials, and two
    distinct degree-``<= k`` polynomials agree on at most ``k`` points.
    """

    def __init__(self, q: int, m: int, k: int):
        if not is_prime(m):
            raise ValueError(f"field size {m} is not prime")
        if k < 1:
            raise ValueError("degree bound k must be at least 1")
        if q > m ** (k + 1):
            raise ValueError(
                f"cannot encode {q} indices as degree-{k} polynomials "
                f"over F_{m} (capacity {m ** (k + 1)})"
            )
        self.q = q
        self.m = m
        self.k = k
        # Per-instance memo tables.  A family is immutable apart from
        # these (they only ever grow), so a shared instance (see
        # :func:`shared_family`) keeps its evaluation table warm across
        # nodes and trials.
        self._coeff_memo: dict = {}
        self._eval_memo: dict = {}

    def coefficients(self, index: int) -> Tuple[int, ...]:
        """Base-``m`` digits of ``index`` (constant coefficient first)."""
        cached = self._coeff_memo.get(index)
        if cached is not None:
            return cached
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range [0, {self.q})")
        digits = []
        value = index
        for _ in range(self.k + 1):
            digits.append(value % self.m)
            value //= self.m
        result = tuple(digits)
        self._coeff_memo[index] = result
        return result

    def evaluate(self, index: int, x: int) -> int:
        """Evaluate polynomial ``index`` at point ``x`` (Horner over F_m)."""
        # Horner over F_m only sees x mod m, so normalizing keeps the
        # flat integer key collision-free for out-of-field points.
        key = index * self.m + x % self.m
        cached = self._eval_memo.get(key)
        if cached is not None:
            return cached
        acc = 0
        for coefficient in reversed(self.coefficients(index)):
            acc = (acc * x + coefficient) % self.m
        self._eval_memo[key] = acc
        return acc

    def pair_color(self, index: int, x: int) -> int:
        """The palette-``m**2`` color ``(x, p_index(x))`` flattened."""
        return x * self.m + self.evaluate(index, x)

    # ------------------------------------------------------------------
    # NumPy backend export (repro.sim.arrays)
    # ------------------------------------------------------------------
    def coefficient_matrix(self):
        """All ``q`` coefficient rows as a ``(q, k + 1)`` int64 ndarray.

        Row ``i`` equals :meth:`coefficients` ``(i)``; ``None`` when the
        array backend is disabled or the family exceeds its int64
        overflow bounds (:func:`repro.sim.arrays.field_fits`).
        """
        np = arrays.get_numpy()
        if np is None or not arrays.field_fits(self.m, self.q):
            return None
        return arrays.coefficient_matrix(
            np, np.arange(self.q, dtype=np.int64), self.m, self.k
        )

    def value_table(self):
        """The full ``(q, m)`` evaluation matrix for the NumPy backend.

        ``table[i, x] == evaluate(i, x)`` -- one batched modular Horner
        pass replaces ``q * m`` scalar evaluations.  Returns ``None``
        when the array backend is off, the family exceeds the int64
        overflow bounds, or the table would be larger than
        :data:`VALUE_TABLE_LIMIT` entries.  Memoized on ``(q, m, k)``
        (:func:`value_table`), so repeated trials share one read-only
        table.
        """
        np = arrays.get_numpy()
        if np is None or not arrays.field_fits(self.m, self.q) \
                or self.q * self.m > VALUE_TABLE_LIMIT:
            return None
        return value_table(self.q, self.m, self.k)

    def value_rows(self, colors):
        """Evaluation rows for an int64 ndarray of valid color indices.

        ``value_rows(c)[r, x] == evaluate(c[r], x)``.  Callers (the
        NumPy kernel paths) guarantee ``0 <= c < q`` and that the array
        backend is active; out-of-range indices are undefined here, just
        as they are for a raw table lookup.
        """
        table = self.value_table()
        if table is not None:
            return table[colors]
        return arrays.batched_horner(
            arrays.get_numpy(), colors, self.m, self.k
        )

    @property
    def palette_size(self) -> int:
        return self.m * self.m


@lru_cache(maxsize=VALUE_TABLE_MEMO_SIZE)
def value_table(q: int, m: int, k: int):
    """The read-only ``(q, m)`` table ``table[i, x] == p_i(x)`` over
    ``F_m``.  Callers (:meth:`PolynomialFamily.value_table`) check that
    the array backend is on and the table fits its bounds."""
    np = arrays.get_numpy()
    table = arrays.batched_horner(np, np.arange(q, dtype=np.int64), m, k)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=MEMO_SIZE)
def shared_family(q: int, m: int, k: int) -> PolynomialFamily:
    """The process-wide :class:`PolynomialFamily` for ``(q, m, k)``.

    Families are pure functions of their parameters, so every trial of a
    sweep can share one instance -- and with it the coefficient and
    evaluation memos, which dominate recoloring cost.
    """
    return PolynomialFamily(q, m, k)


@dataclass(frozen=True)
class RecoloringStep:
    """One algebraic recoloring step: ``q`` colors -> ``m**2`` colors."""

    q: int
    m: int
    k: int
    #: Defect budget of this step (0.0 for proper Linial steps).
    alpha_step: float = 0.0

    def family(self) -> PolynomialFamily:
        return shared_family(self.q, self.m, self.k)

    @property
    def palette_size(self) -> int:
        return self.m * self.m


def _min_field_size_for_capacity(q: int, k: int) -> int:
    """Smallest ``m`` with ``m**(k+1) >= q``."""
    if q <= 1:
        return 2
    m = max(2, int(round(q ** (1.0 / (k + 1)))))
    while m ** (k + 1) < q:
        m += 1
    while m > 2 and (m - 1) ** (k + 1) >= q:
        m -= 1
    return m


def choose_proper_step(q: int, avoid: int) -> Optional[RecoloringStep]:
    """Parameters for one *proper* recoloring step from ``q`` colors.

    ``avoid`` is the number of neighbors whose polynomials must be dodged
    (Delta for undirected Linial, beta for the oriented variant).  Requires
    ``m > avoid * k`` so a collision-free point always exists.  Returns the
    step minimizing the new palette ``m**2``, or ``None`` when no step
    makes progress (``m**2 >= q``): the coloring is already as small as
    this technique gets.
    """
    best: Optional[RecoloringStep] = None
    max_k = max(1, int(math.log2(max(2, q))) + 1)
    for k in range(1, max_k + 1):
        m = next_prime(max(avoid * k + 1, _min_field_size_for_capacity(q, k)))
        step = RecoloringStep(q=q, m=m, k=k)
        if best is None or step.palette_size < best.palette_size:
            best = step
        # Larger k only helps while the capacity constraint dominates.
        if m == next_prime(avoid * k + 1) and k > 1:
            break
    if best is None or best.palette_size >= q:
        return None
    return best


def choose_defective_step(q: int, alpha_step: float) -> Optional[RecoloringStep]:
    """Parameters for one *defective* recoloring step from ``q`` colors.

    The step guarantees a point whose collision rate against out-neighbors
    with different current colors is at most ``k / m <= alpha_step``.
    Returns ``None`` when no palette-shrinking step exists.
    """
    if alpha_step <= 0.0:
        raise ValueError("alpha_step must be positive")
    best: Optional[RecoloringStep] = None
    max_k = max(1, int(math.log2(max(2, q))) + 1)
    for k in range(1, max_k + 1):
        min_m_defect = int(math.ceil(k / alpha_step))
        m = next_prime(max(min_m_defect, _min_field_size_for_capacity(q, k), 2))
        if k / m > alpha_step:  # pragma: no cover - next_prime guards this
            continue
        step = RecoloringStep(q=q, m=m, k=k, alpha_step=alpha_step)
        if best is None or step.palette_size < best.palette_size:
            best = step
        if m == next_prime(max(min_m_defect, 2)) and k > 1:
            break
    if best is None or best.palette_size >= q:
        return None
    return best


def proper_schedule(q: int, avoid: int) -> List[RecoloringStep]:
    """The full Linial schedule: steps until the palette stops shrinking.

    Memoized on ``(q, avoid)``; a fresh list of the (immutable) steps is
    returned so callers may slice or mutate it.
    """
    return list(_proper_schedule(q, avoid))


@lru_cache(maxsize=MEMO_SIZE)
def _proper_schedule(q: int, avoid: int) -> Tuple[RecoloringStep, ...]:
    steps: List[RecoloringStep] = []
    current = q
    while True:
        step = choose_proper_step(current, avoid)
        if step is None:
            return tuple(steps)
        steps.append(step)
        current = step.palette_size
        if len(steps) > 64:  # pragma: no cover - schedule always converges
            raise RuntimeError("Linial schedule failed to converge")


def defective_schedule(q: int, alpha: float) -> List[RecoloringStep]:
    """The Lemma 3.4 schedule with total defect budget ``alpha``.

    The *last* step alone determines the final palette, so it should get a
    constant fraction of the budget; the earlier steps only need to pull
    ``q`` down to the last step's capacity and can share the rest.  We run
    equal-budget shrinking steps with budget ``alpha / (2 * T_hat)`` until
    they stop making progress, then append one final step with budget
    ``alpha / 2`` -- giving a palette of O(1/alpha^2) while the budgets sum
    to at most ``alpha``.  ``T_hat`` starts at an O(log* q) estimate and is
    doubled in the (unobserved in practice) case the estimate was short.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return list(_defective_schedule(q, alpha))


@lru_cache(maxsize=MEMO_SIZE)
def _defective_schedule(q: int, alpha: float) -> Tuple[RecoloringStep, ...]:
    t_hat = max(2, _count_equal_split_steps(q, alpha / 2.0))
    for _ in range(8):
        steps: List[RecoloringStep] = []
        current = q
        early_budget = alpha / (2.0 * t_hat)
        while len(steps) < t_hat:
            step = choose_defective_step(current, early_budget)
            if step is None:
                break
            steps.append(step)
            current = step.palette_size
        if len(steps) == t_hat and choose_defective_step(
                current, early_budget) is not None:
            # The estimate was short: more shrinking steps were available.
            t_hat *= 2
            continue
        final = choose_defective_step(current, alpha / 2.0)
        if final is not None:
            steps.append(final)
        return tuple(steps)
    raise RuntimeError(
        "defective schedule failed to converge")  # pragma: no cover


def _count_equal_split_steps(q: int, budget: float) -> int:
    """Steps an equal-split schedule with the given budget would take."""
    count = 0
    current = q
    while True:
        step = choose_defective_step(current, budget)
        if step is None:
            return count
        count += 1
        current = step.palette_size
        if count > 64:  # pragma: no cover - schedules always converge
            raise RuntimeError("defective schedule failed to converge")
