"""Optional NumPy backend for the vectorized round kernels.

The vectorized engine's :class:`~repro.sim.kernels.RoundKernel` columns
are plain Python lists by default -- portable, dependency-free, and fast
enough for the broadcast/sweep kernels whose per-round work is O(active
nodes).  The algebraic recoloring kernel is different: every node
evaluates a degree-``k`` polynomial over ``F_m`` at all ``m`` points and
scans its rivals' evaluation rows, so each round is a dense ``(n, m)``
numeric workload -- exactly what an ndarray backend batches well.

This module is the single switch point for that backend:

* **selection** -- NumPy importable *and* ``REPRO_SIM_ARRAYS`` unset or
  not ``"0"`` means kernels may take the array path; otherwise they keep
  their pure-Python columns.  The choice is transparent: results,
  ledgers, exception order, and trace streams are bit-identical either
  way (the equivalence suite runs the full matrix under both backends);
* **overflow safety** -- the batched Horner accumulator holds values
  below ``m**2`` and colors below ``q``, so the array path is only taken
  when both fit comfortably in ``int64`` (:data:`MAX_FIELD`,
  :data:`MAX_COLOR`); fields beyond that fall back to pure Python, whose
  integers never overflow;
* **helpers** -- batched modular Horner evaluation of a
  :class:`~repro.substrates.cover_free.PolynomialFamily`, the color
  reduction's whole-class mex, the first-fit row mex shared by the
  reduction's narrow classes and the greedy seed, and the exact bulk
  Mersenne Twister draws that replay a seeded ``random.Random``
  (:func:`mt_words`, :func:`mt_doubles`).

Process-pool workers inherit the parent's *resolved* decision via
:func:`set_arrays_override` (shipped through ``_init_worker`` initargs),
mirroring how the engine choice is frozen at pool creation.
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: Environment switch: ``REPRO_SIM_ARRAYS=0`` disables the NumPy backend
#: even when NumPy is importable.  Re-read on every decision (like
#: ``REPRO_SIM_ENGINE``) so tests and operators can flip it mid-process.
ARRAYS_ENV = "REPRO_SIM_ARRAYS"

#: Environment knob: ``REPRO_SIM_CHUNK=<nodes>`` bounds how many nodes a
#: vectorized kernel round materializes at once.  The dense per-round
#: temporaries (an ``(n, m)`` evaluation matrix for the algebraic
#: kernel) become ``(chunk, m)``, keeping peak RSS flat as n grows.
#: Chunked execution is bit-identical to unchunked -- the chunks are
#: pure index slices of the same gathers and reductions -- so this is a
#: memory knob, never a semantics knob.  Unset, ``0``, or unparsable
#: means "off" (whole-population rounds, the historical behavior).
CHUNK_ENV = "REPRO_SIM_CHUNK"

#: Largest field size ``m`` the int64 Horner path accepts.  The
#: accumulator peaks at ``(m - 1) * (m - 1) + (m - 1) < m**2``, and the
#: flattened pair color is ``x * m + value < m**2``, so ``m <= 2**31``
#: keeps every intermediate below ``2**62``.
MAX_FIELD = 1 << 31

#: Largest color index the int64 column path accepts.
MAX_COLOR = (1 << 62) - 1

#: Kernels skip the array path for populations smaller than this: a
#: handful of ndarray round-trips costs more than a short Python loop.
#: Tests monkeypatch this to 0 to force the array path on tiny graphs.
MIN_BATCH = 32

#: Cap on ``edges * m`` for the dense conflict matrix; populations whose
#: worst-case match matrix would exceed this many int64 elements decline
#: the array path rather than risk an allocation blow-up.
MAX_MATCH_ELEMENTS = 1 << 25

_UNSET = object()
_numpy_module: Any = _UNSET
_override: Optional[bool] = None


def _import_numpy() -> Optional[Any]:
    """Import NumPy once per process; ``None`` when unavailable."""
    global _numpy_module
    if _numpy_module is _UNSET:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
    return _numpy_module


def get_numpy() -> Optional[Any]:
    """The NumPy module when the array backend is enabled, else ``None``.

    ``None`` means "use the pure-Python columns": NumPy is not
    importable, ``REPRO_SIM_ARRAYS=0`` is set, or a worker-side override
    (:func:`set_arrays_override`) disables it.
    """
    if _override is False:
        return None
    if _override is None and os.environ.get(ARRAYS_ENV, "1") == "0":
        return None
    return _import_numpy()


def arrays_enabled() -> bool:
    """Whether kernels may take the NumPy array path right now."""
    return get_numpy() is not None


def set_arrays_override(enabled: Optional[bool]) -> Optional[bool]:
    """Force the backend decision (``None`` restores env-based selection).

    Process-pool workers receive the parent's resolved decision through
    this hook so a mid-sweep environment change cannot split a sweep
    across backends; tests use it to pin one backend.  Returns the
    previous override.
    """
    global _override
    previous = _override
    _override = None if enabled is None else bool(enabled)
    return previous


def numpy_version() -> Optional[str]:
    """The active NumPy version string, or ``None`` when falling back."""
    np = get_numpy()
    return getattr(np, "__version__", None) if np is not None else None


def backend_name() -> str:
    """``"numpy"`` or ``"python"`` -- the backend new kernels would pick."""
    return "numpy" if arrays_enabled() else "python"


def _reset_import_cache() -> None:
    """Forget the import probe (tests simulate NumPy absence)."""
    global _numpy_module
    _numpy_module = _UNSET


def chunk_size() -> int:
    """The configured node-chunk bound; ``0`` disables chunking.

    Re-read from ``REPRO_SIM_CHUNK`` on every call (kernels freeze the
    value at ``prepare`` time so one run never mixes granularities).
    """
    raw = os.environ.get(CHUNK_ENV, "").strip()
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 0
    return value if value > 0 else 0


def iter_chunks(total: int, chunk: int):
    """Yield ``(lo, hi)`` node ranges covering ``0..total``.

    One whole-range pair when ``chunk`` is 0 (chunking off) or already
    covers the population.
    """
    if total <= 0:
        return
    if chunk <= 0 or chunk >= total:
        yield (0, total)
        return
    for lo in range(0, total, chunk):
        yield (lo, min(lo + chunk, total))


# ----------------------------------------------------------------------
# Bulk Mersenne Twister draws
# ----------------------------------------------------------------------
def mt_words(np, rng, count: int):
    """The next ``count`` Mersenne Twister words of the
    ``random.Random`` ``rng``, in order: ``getrandbits(32 * count)``
    packs them little-endian.  (``numpy.random.MT19937`` would draw them
    faster, but importing ``numpy.random`` costs more per process than
    it saves here.)"""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
        dtype="<u4")


#: :func:`mt_doubles` draws this many values per ``getrandbits`` call, so
#: the words and their bytes stay small and reused between calls.
_MT_PIECE = 1 << 15


def mt_doubles(np, rng, count: int):
    """The next ``count`` values of ``rng.random()``, exactly, as a
    float64 array: each takes two words ``w0, w1`` and is
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53``, every step exact in
    float64."""
    values = np.empty(count, dtype=np.float64)
    for lo, hi in iter_chunks(count, _MT_PIECE):
        words = mt_words(np, rng, 2 * (hi - lo)).reshape(-1, 2)
        piece = values[lo:hi]
        np.right_shift(words[:, 0], 5, out=piece, casting="unsafe")
        piece *= 67108864.0
        piece += words[:, 1] >> 6
    values *= 1.0 / 9007199254740992.0
    return values


# ----------------------------------------------------------------------
# Dense-id columns
# ----------------------------------------------------------------------
def int64_column(np, column):
    """``column`` as an int64 ndarray, or ``None`` unless every entry is
    a plain ``int`` that fits; an int64 ndarray is returned as is (not
    copied)."""
    if isinstance(column, np.ndarray):
        return column if column.dtype == np.int64 else None
    if set(map(type, column)) != {int}:
        return None
    try:
        return np.array(column, dtype=np.int64)
    except OverflowError:
        return None


def as_list(column) -> list:
    """A dense-id column (list, ``array('q')`` or ndarray) as a list of
    Python scalars."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


# ----------------------------------------------------------------------
# Batched modular Horner over F_m
# ----------------------------------------------------------------------
def field_fits(m: int, q: int) -> bool:
    """Whether ``(q, m)`` is safe for the int64 Horner path."""
    return 2 <= m <= MAX_FIELD and 0 < q <= MAX_COLOR


def coefficient_matrix(np, indices, m: int, k: int):
    """Base-``m`` digit rows of ``indices`` -- shape ``(len, k + 1)``.

    Row ``r`` holds the coefficients of polynomial ``indices[r]`` with
    the constant coefficient first, exactly matching
    ``PolynomialFamily.coefficients``.
    """
    value = np.asarray(indices, dtype=np.int64)
    coefficients = np.empty((value.shape[0], k + 1), dtype=np.int64)
    for j in range(k + 1):
        coefficients[:, j] = value % m
        value = value // m
    return coefficients


def batched_horner(np, indices, m: int, k: int):
    """Evaluation rows ``P_index(x)`` for ``x = 0..m-1``.

    Returns an ``(len(indices), m)`` int64 matrix; row ``r`` equals
    ``tuple(family.evaluate(indices[r], x) for x in range(m))`` for the
    ``(q, m, k)`` family.  Callers guarantee ``0 <= index < q`` and
    :func:`field_fits` -- every intermediate then stays below ``2**62``.
    """
    coefficients = coefficient_matrix(np, indices, m, k)
    points = np.arange(m, dtype=np.int64)
    acc = np.zeros((coefficients.shape[0], m), dtype=np.int64)
    for j in range(k, -1, -1):
        acc *= points
        acc += coefficients[:, j:j + 1]
        acc %= m
    return acc


# ----------------------------------------------------------------------
# Color reduction
# ----------------------------------------------------------------------
def mex_below_rows(np, indptr, indices, colors, rows, limit: int):
    """Each row's minimum excluded neighbor color, saturated at ``limit``.

    ``indptr``/``indices`` are int64 CSR views, ``colors`` the int64
    color column and ``rows`` an int64 array of dense ids.  One gather
    of every row's neighbor colors fills a ``(len(rows), limit + 1)``
    presence table; colors outside ``[0, limit)`` cannot be a mex
    candidate and fold into the last column, which is then cleared, so
    one ``argmin`` per row yields the smallest absent color below
    ``limit``, else ``limit`` (callers treat saturation as "no free
    color below the target").  Callers keep the table under
    :data:`MAX_MATCH_ELEMENTS` by passing row chunks.
    """
    width = limit + 1
    count = rows.shape[0]
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    table = np.zeros(count * width, dtype=bool)
    total = int(ends[-1]) if count else 0
    if total:
        # Gather position k of row r reads indices[starts[r] + k - first[r]],
        # where first[r] = ends[r] - lengths[r] is the row's gather offset.
        shift = np.repeat(starts - (ends - lengths), lengths)
        values = colors[indices[np.arange(total) + shift]]
        values[(values < 0) | (values > limit)] = limit
        values += np.repeat(np.arange(0, count * width, width), lengths)
        table[values] = True
    table = table.reshape(count, width)
    table[:, limit] = False
    return table.argmin(axis=1)


def first_fit_rows(np, indptr, indices, colors, rows, out, seen) -> None:
    """``out[k]``: the smallest non-negative color absent from the
    neighbor colors of ``rows[k]``, one row at a time.

    ``indptr`` is indexed with Python ints (an ``array('q')`` or list),
    ``indices`` is the int64 CSR view and ``colors`` a column of
    non-negative values (pass a uint64 view of a signed column: a
    negative color becomes too large to be a mex).  A row of ``d``
    entries has a mex of at most ``d``, so values are clipped to ``d``
    and marked in the first ``d + 1`` slots of ``seen``, a bool buffer
    of at least ``max degree + 1`` reused for every row; a clipped value
    can only land above the mex.  ``out`` may be ``colors`` itself with
    ``rows`` = ``range(n)``: each row then reads the rows before it.
    """
    take = colors.take
    minimum = np.minimum
    for k, i in enumerate(rows):
        lo = indptr[i]
        hi = indptr[i + 1]
        d = hi - lo
        present = seen[:d + 1]
        present.fill(False)
        present[minimum(take(indices[lo:hi]), d)] = True
        out[k] = present.argmin()
