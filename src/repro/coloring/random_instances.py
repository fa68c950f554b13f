"""Random feasible instances for tests and benchmarks.

The generators produce instances that provably satisfy the preconditions
of the algorithm under test (Eq. (2)/(7) for the Two-Sweep family, a slack
bound for the Section 4 recursions), with enough randomness in lists and
defects to exercise the general list-defective case rather than only the
uniform one.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, List, Optional, Tuple

from ..graphs.oriented import OrientedGraph
from ..sim import arrays
from ..sim.network import Network
from .instance import (
    ArbdefectiveInstance,
    ListDefectiveInstance,
    OLDCInstance,
)

Node = Hashable
Color = int


def random_oldc_instance(graph: OrientedGraph, p: int, seed: int,
                         color_space_size: Optional[int] = None,
                         epsilon: float = 0.0,
                         jitter: bool = True) -> OLDCInstance:
    """A random OLDC instance satisfying Eq. (2) (or Eq. (7)) for ``p``.

    Each node receives a list of ``p**2`` colors (the paper's headline list
    size) sampled from the color space, with uniform base defects
    ``floor((1+eps) * beta_v / p)`` -- which makes
    ``weight(v) = p^2 * (d+1) > (1+eps) * p * beta_v`` -- plus optional
    random defect jitter (jitter only *adds* slack, never removes it).
    """
    rng = random.Random(seed)
    list_size = p * p
    if color_space_size is None:
        color_space_size = max(2 * list_size, list_size + 1)
    if color_space_size < list_size:
        raise ValueError("color space smaller than the required list size")
    degrees = graph.out_degrees
    np = arrays.get_numpy()
    drawn = (None if np is None or len(degrees) < arrays.MIN_BATCH
             else _bulk_columns(np, rng, degrees, p, list_size,
                                color_space_size, epsilon, jitter))
    if drawn is not None:
        colors, defects = drawn
    else:
        # Dense-id columns, drawn node by node in graph order: the same
        # ``random.Random`` calls in the same order as a per-node dict
        # build.  This loop is the spec :func:`_bulk_columns` replays.
        population = range(color_space_size)
        sample = rng.sample
        randint = rng.randint
        colors = []
        defects = []
        for outdegree in degrees:
            base = int((1.0 + epsilon) * max(1, outdegree) / p)  # floor
            colors.extend(sorted(sample(population, list_size)))
            if jitter:
                top = max(1, base)
                defects.extend([base + randint(0, top)
                                for _ in range(list_size)])
            else:
                defects.extend([base] * list_size)
    indptr = list(range(0, len(colors) + 1, list_size))
    instance = OLDCInstance.from_columns(graph, indptr, colors, defects,
                                         color_space_size)
    failed = instance.first_unsatisfied(p, epsilon, exempt_sinks=False)
    assert failed is None, (
        "generator bug: instance misses Eq.(7) at node %r"
        % (graph.compiled.order[failed],)
    )
    return instance


#: :func:`_bulk_columns` keeps int32 position tables of one entry per
#: drawn word: one per ``sample`` bound, two per distinct jitter bound
#: and a few transients.  It draws the nodes in blocks whose tables stay
#: within this many entries (16 MiB).
_TABLE_ENTRIES = 1 << 22

#: Each table costs a few passes over the words, so the bulk draw pays
#: only while there are few of them per word; beyond this many the
#: per-node loop is faster.  On G(2000, 4/1999) with epsilon 0.25,
#: p = 4 needs 28 tables and draws 1.2x faster in bulk, p = 5 (35)
#: ties and p = 6 (46) is 1.4x slower.
_MAX_TABLES = 32


def _sample_setsize(k: int) -> int:
    """``Random.sample``'s switch: a population of at most this many
    items takes its pool branch when drawing ``k``."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _word_chunk(expected: float) -> int:
    """Words to draw for a block expected to use ``expected`` of them:
    each call's word count is geometric with variance below 2, so a
    margin of six standard deviations makes a refill rare."""
    return int(expected + 6.0 * math.sqrt(2.0 * expected)) + 32


def _mt_words(np, rng: random.Random, count: int):
    """The next ``count`` Mersenne Twister words of ``rng``, in order:
    ``getrandbits(32 * count)`` packs them little-endian."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
        dtype="<u4")


def _call_tables(np, words, bound: int, calls: int):
    """``(one, many)``: where one ``_randbelow(bound)`` call, and where
    ``calls`` successive ones, that start at word ``i`` leave the
    stream, for ``i`` in ``0..M``.

    A call takes the first word whose top ``bound.bit_length()`` bits
    fall below ``bound`` and leaves just past it.  Entry ``M + 1`` is
    the sentinel for "the words ran out" and maps to itself.  Two int32
    columns of ``M + 2`` entries.
    """
    size = len(words)
    accepted = (words >> (32 - bound.bit_length())) < bound
    hits = np.flatnonzero(accepted)
    # after[r]: just past the r-th accepted word; sentinels beyond.
    after = np.full(len(hits) + calls, size + 1, dtype=np.int32)
    np.add(hits, 1, out=after[:len(hits)], casting="unsafe")
    # rank[i]: the accepted words before word i.
    rank = np.empty(size + 2, dtype=np.int32)
    rank[0] = 0
    np.cumsum(accepted, dtype=np.int32, out=rank[1:size + 1])
    rank[size + 1] = len(hits)
    one = np.take(after, rank)
    if calls == 1:
        return one, one
    rank += calls - 1
    return one, np.take(after, rank)


def _draw_block(np, words, k: int, sample_bounds, jitter_bounds,
                count: int):
    """``(colors, draws, end)`` of ``count`` nodes drawn from ``words``:
    an ``(n, k)`` block of sorted list colors, one of jitter draws
    (``None`` without jitter) and the first word left unused; ``None``
    when the words run out first.

    Every node's ``sample`` calls take the same bounds, so their tables
    compose once; each distinct jitter bound appends its ``k`` calls,
    which gives one start-to-end table per node pattern.  The walk over
    the nodes is then one lookup each, and each call's accepted words
    are gathered for all nodes at once.
    """
    size = len(words)
    steps = []
    end = None
    for bound in sample_bounds:
        step, _ = _call_tables(np, words, bound, 1)
        steps.append(step)
        end = step if end is None else np.take(step, end)
    if jitter_bounds is None:
        ends = [memoryview(end)]
        pattern = [0] * count
    else:
        distinct = sorted(set(jitter_bounds.tolist()))
        nodes_pattern = np.searchsorted(distinct, jitter_bounds)
        jitter_steps = np.empty((len(distinct), size + 2), dtype=np.int32)
        ends = []
        for which, bound in enumerate(distinct):
            jitter_steps[which], many = _call_tables(np, words, bound, k)
            ends.append(memoryview(np.take(many, end)))
        pattern = nodes_pattern.tolist()
    starts = []
    pos = 0
    for which in pattern:
        starts.append(pos)
        pos = ends[which][pos]
    if pos > size:
        return None

    at = np.array(starts, dtype=np.int32)
    rows = np.arange(count)
    space = sample_bounds[0]
    # ``sample``'s pool branch: result[i] = pool[j], then the pool's
    # last live item fills slot j.
    pool = np.tile(np.arange(space, dtype=np.int32), (count, 1))
    picks = np.empty((count, k), dtype=np.int32)
    for i, (bound, step) in enumerate(zip(sample_bounds, steps)):
        at = np.take(step, at)
        j = np.take(words, at - 1) >> (32 - bound.bit_length())
        picks[:, i] = pool[rows, j]
        pool[rows, j] = pool[:, space - i - 1]
    picks.sort(axis=1)
    if jitter_bounds is None:
        return picks, None, pos
    # The k jitter calls of a node step through its bound's table.
    flat = jitter_steps.ravel()
    offset = nodes_pattern * (size + 2)
    shifts = np.array([32 - bound.bit_length() for bound in distinct],
                      dtype=np.uint32)[nodes_pattern]
    draws = np.empty((count, k), dtype=np.int64)
    for r in range(k):
        at = np.take(flat, offset + at)
        draws[:, r] = np.take(words, at - 1) >> shifts
    return picks, draws, pos


def _bulk_columns(np, rng: random.Random, degrees, p: int, k: int,
                  space: int, epsilon: float, jitter: bool
                  ) -> Optional[Tuple[List[Color], List[int]]]:
    """:func:`random_oldc_instance`'s color and defect columns from bulk
    Mersenne Twister words, byte-identical to its per-node loop; ``None``
    (with ``rng`` untouched) where the loop must run.

    ``sample(range(space), k)`` with ``space`` at most its ``setsize``
    is ``k`` calls of ``_randbelow`` with bounds ``space, space - 1,
    ...``, and ``randint(0, top)`` is ``_randbelow(top + 1)``.  Words
    past the last one used are discarded: the generator is local to the
    caller.  The set branch of ``sample``, bounds wider than 32 bits and
    draws that would need more than :data:`_MAX_TABLES` tables keep the
    loop.
    """
    if space > _sample_setsize(k):
        return None
    # int((1.0 + epsilon) * max(1, outdegree) / p), the same float64
    # operations; astype truncates toward zero as int() does.
    scaled = (1.0 + epsilon) * np.maximum(
        np.asarray(degrees, dtype=np.int64), 1) / p
    if not (scaled.min(initial=0.0) > -(1 << 31)
            and scaled.max(initial=0.0) < (1 << 32) - 1):
        return None
    base = scaled.astype(np.int64)
    count = len(base)
    bounds = np.maximum(base, 1) + 1 if jitter else None
    tables = k + 6 + (2 * len(set(bounds.tolist())) if jitter else 0)
    if tables > _MAX_TABLES:
        return None
    sample_bounds = list(range(space, space - k, -1))
    # _randbelow(b) takes 2**b.bit_length() / b words on average.
    per_node = np.full(count, sum((1 << bound.bit_length()) / bound
                                  for bound in sample_bounds))
    if jitter:
        # frexp's exponent of a positive int below 2**53 is its
        # bit_length.
        per_node += k * np.ldexp(1.0, np.frexp(bounds)[1]) / bounds
    blocks = max(1, math.ceil(float(per_node.sum()) * tables
                              / _TABLE_ENTRIES))
    colors: List[Color] = [0] * (count * k)
    defects: List[int] = [0] * (count * k)
    words = np.empty(0, dtype=np.uint32)
    for lo, hi in arrays.iter_chunks(count, -(-count // blocks)):
        block_bounds = None if bounds is None else bounds[lo:hi]
        need = _word_chunk(float(per_node[lo:hi].sum()))
        while True:
            if len(words) < need:
                words = np.concatenate(
                    [words, _mt_words(np, rng, need - len(words))])
            drawn = _draw_block(np, words, k, sample_bounds, block_bounds,
                                hi - lo)
            if drawn is not None:
                break
            need = 2 * len(words) + 1  # ran short: draw more words
        picks, draws, end = drawn
        colors[lo * k:hi * k] = picks.ravel().tolist()
        if draws is None:
            defects[lo * k:hi * k] = np.repeat(base[lo:hi], k).tolist()
        else:
            draws += base[lo:hi, None]
            defects[lo * k:hi * k] = draws.ravel().tolist()
        words = words[end:]
    return colors, defects


def random_nonuniform_oldc_instance(graph: OrientedGraph, p: int, seed: int,
                                    color_space_size: Optional[int] = None
                                    ) -> OLDCInstance:
    """An OLDC instance with *heterogeneous* list sizes satisfying Eq. (2).

    Node ``v`` gets a list size drawn from ``[p, p**2]``; the defect mass is
    then topped up so that ``weight(v) > max(p, |L_v|/p) * beta_v`` holds
    with equality plus one.  Exercises the non-square-list branches of
    Lemma 3.1.
    """
    rng = random.Random(seed)
    if color_space_size is None:
        color_space_size = max(2 * p * p, 4)
    lists: Dict[Node, Tuple[Color, ...]] = {}
    defects: Dict[Node, Dict[Color, int]] = {}
    for node in graph.nodes:
        beta = graph.beta(node)
        size = rng.randint(max(1, p // 2), min(p * p, color_space_size))
        colors = tuple(sorted(rng.sample(range(color_space_size), size)))
        required = int(max(p, size / p) * beta) + 1  # weight must exceed this - 1
        # Distribute `required` units of (d+1) mass over the list randomly.
        mass = [1] * size
        remaining = max(0, required - size)
        for _ in range(remaining):
            mass[rng.randrange(size)] += 1
        defect_fn = {
            color: mass[index] - 1 for index, color in enumerate(colors)
        }
        lists[node] = colors
        defects[node] = defect_fn
    instance = OLDCInstance(graph, lists, defects, color_space_size)
    failed = instance.first_unsatisfied(p, exempt_sinks=False)
    assert failed is None, (
        "generator bug: instance misses Eq.(2) at node %r"
        % (graph.compiled.order[failed],)
    )
    return instance


def minimal_slack_oldc_instance(graph: OrientedGraph, p: int,
                                epsilon: float = 0.0) -> OLDCInstance:
    """The *tightest* uniform instance satisfying Eq. (2)/(7) for ``p``.

    Every node gets ``p**2`` colors whose defect mass is the minimal
    integer strictly above ``(1+eps) * max{p, p} * beta_v`` (never below
    one unit per color).  These instances sit exactly on the theorem's
    boundary -- the right workload for tightness tests and the rounding
    ablation (E14).
    """
    lists: Dict[Node, Tuple[Color, ...]] = {}
    defects: Dict[Node, Dict[Color, int]] = {}
    size = p * p
    for node in graph.nodes:
        beta = graph.beta(node)
        threshold = (1.0 + epsilon) * max(p, size / p) * beta
        need = max(size, int(math.floor(threshold)) + 1)
        base, extra = divmod(need, size)
        colors = tuple(range(size))
        lists[node] = colors
        defects[node] = {
            color: base - 1 + (1 if index < extra else 0)
            for index, color in enumerate(colors)
        }
    instance = OLDCInstance(graph, lists, defects, size)
    assert instance.first_unsatisfied(p, epsilon, exempt_sinks=False) is None
    return instance


def _random_slack_lists(network: Network, slack: float, seed: int,
                        color_space_size: int,
                        list_size_cap: Optional[int] = None
                        ) -> Tuple[Dict[Node, Tuple[Color, ...]],
                                   Dict[Node, Dict[Color, int]]]:
    rng = random.Random(seed)
    lists: Dict[Node, Tuple[Color, ...]] = {}
    defects: Dict[Node, Dict[Color, int]] = {}
    for node in network.nodes:
        degree = network.degree(node)
        cap = list_size_cap or color_space_size
        size = rng.randint(1, min(cap, color_space_size))
        colors = tuple(sorted(rng.sample(range(color_space_size), size)))
        required = int(slack * degree) + 1
        mass = [1] * size
        remaining = max(0, required - size)
        for _ in range(remaining):
            mass[rng.randrange(size)] += 1
        lists[node] = colors
        defects[node] = {
            color: mass[index] - 1 for index, color in enumerate(colors)
        }
    return lists, defects


def random_defective_instance(network: Network, slack: float, seed: int,
                              color_space_size: int,
                              list_size_cap: Optional[int] = None
                              ) -> ListDefectiveInstance:
    """A random ``P_D`` instance with slack strictly greater than ``slack``."""
    lists, defects = _random_slack_lists(
        network, slack, seed, color_space_size, list_size_cap
    )
    instance = ListDefectiveInstance(network, lists, defects, color_space_size)
    assert instance.has_slack(slack), "generator bug: slack too small"
    return instance


def random_arbdefective_instance(network: Network, slack: float, seed: int,
                                 color_space_size: int,
                                 list_size_cap: Optional[int] = None
                                 ) -> ArbdefectiveInstance:
    """A random ``P_A`` instance with slack strictly greater than ``slack``."""
    lists, defects = _random_slack_lists(
        network, slack, seed, color_space_size, list_size_cap
    )
    instance = ArbdefectiveInstance(network, lists, defects, color_space_size)
    assert instance.has_slack(slack), "generator bug: slack too small"
    return instance
