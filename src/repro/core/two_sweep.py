"""Algorithm 1: the Two-Sweep list defective coloring algorithm.

This is the paper's base algorithm (Theorem 1.1 with ``epsilon = 0``).
Given an oriented graph with a proper ``q``-coloring and an OLDC instance
satisfying Eq. (2),

    ``sum_{x in L_v} (d_v(x) + 1) > max{p, |L_v| / p} * beta_v``,

two sweeps over the color classes solve the instance in O(q) rounds:

* **Phase I** (colors ascending): node ``v`` picks a sub-list
  ``S_v subseteq L_v`` of at most ``p`` colors maximizing
  ``d_v(x) - k_v(x)``, where ``k_v(x)`` counts out-neighbors *earlier* in
  the sweep whose sub-list contains ``x`` (Lemma 3.1 shows the best such
  sub-list satisfies Eq. (4)).
* **Phase II** (colors descending): ``v`` picks a final color
  ``x in S_v`` with ``k_v(x) + r_v(x) <= d_v(x)``, where ``r_v(x)`` counts
  *later*-sweep out-neighbors already committed to ``x`` (Lemma 3.2 shows
  one exists).

Round layout (1 round per sweep step, plus one initial round in which
nodes forward their initial color, exactly as Theorem 1.1 states):

* round 1: everyone broadcasts its initial color;
* round ``2 + c``: color class ``c`` broadcasts its sub-list ``S_v``;
* round ``q + 2 + (q - 1 - c)``: color class ``c`` announces its final
  color to the neighbors that still need it.

Messages: an initial color (``log q`` bits), a sub-list of at most ``p``
colors (``p log C`` bits), and a final color (``log C`` bits).
"""

from __future__ import annotations

import operator
from contextlib import nullcontext
from itertools import accumulate, repeat
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..coloring.defects import first_fit, rank_sublist
from ..coloring.instance import OLDCInstance
from ..obs.tracer import current_tracer
from ..coloring.result import ColoringResult
from ..sim import arrays
from ..sim.congest import BandwidthModel, LocalModel
from ..sim.errors import (
    AlgorithmFailure,
    InfeasibleInstanceError,
    InstanceError,
)
from ..sim.kernels import (
    ColumnInputs,
    KernelRound,
    RoundKernel,
    check_broadcasts,
    fanout_totals,
    register_kernel,
)
from ..sim.message import Message, color_bits, intern_broadcast
from ..sim.metrics import CostLedger, ensure_ledger
from ..sim.node import NodeProgram, RoundContext
from ..sim.scheduler import run_columns

Node = Hashable
Color = int

_TAG_INITIAL = "initial-color"
_TAG_SUBLIST = "sublist"
_TAG_FINAL = "final-color"


class TwoSweepProgram(NodeProgram):
    """One node's side of Algorithm 1."""

    def __init__(self, node: Node, initial_color: Color, q: int, p: int,
                 color_list: Tuple[Color, ...],
                 defect_fn: Mapping[Color, int],
                 out_neighbors: frozenset,
                 color_space_size: int,
                 trace: Optional[List[dict]] = None):
        self.node = node
        self.initial_color = initial_color
        self.q = q
        self.p = p
        self.color_list = color_list
        self.defect_fn = dict(defect_fn)
        self.out_neighbors = out_neighbors
        self.color_space_size = color_space_size
        self.trace = trace
        # Learned during the run:
        self.neighbor_initial: Dict[Node, Color] = {}
        self.k: Dict[Color, int] = {color: 0 for color in color_list}
        self.r: Dict[Color, int] = {color: 0 for color in color_list}
        self.sublist: Tuple[Color, ...] = ()
        self.final_color: Optional[Color] = None
        #: Elementary color operations performed by this node: one per
        #: received sub-list/final-color entry processed, ``|L| log |L|``
        #: for the Phase I sort, one per Phase II feasibility probe.
        #: Measures the "near-linear in Delta times list size" claim of
        #: Section 1.1 (cf. the exponential local work of [FK23a]).
        self.local_work = 0

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------
    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round_number == 1:
            ctx.broadcast(
                _TAG_INITIAL, self.initial_color, bits=color_bits(self.q)
            )
            return
        self._collect(ctx)
        phase1_turn = 2 + self.initial_color
        phase2_turn = self.q + 2 + (self.q - 1 - self.initial_color)
        if ctx.round_number == phase1_turn:
            self._act_phase1(ctx)
        if ctx.round_number == phase2_turn:
            self._act_phase2(ctx)
            ctx.halt()

    def _collect(self, ctx: RoundContext) -> None:
        for sender, payload in ctx.received(_TAG_INITIAL).items():
            self.neighbor_initial[sender] = payload
        for sender, payload in ctx.received(_TAG_SUBLIST).items():
            if sender not in self.out_neighbors:
                continue
            # Only sub-lists of *earlier* out-neighbors feed k_v.
            if self.neighbor_initial[sender] < self.initial_color:
                for color in payload:
                    self.local_work += 1
                    if color in self.k:
                        self.k[color] += 1
        for sender, payload in ctx.received(_TAG_FINAL).items():
            if sender not in self.out_neighbors:
                continue
            if self.neighbor_initial[sender] > self.initial_color:
                self.local_work += 1
                if payload in self.r:
                    self.r[payload] += 1

    # ------------------------------------------------------------------
    # Phase I: pick the sub-list S_v
    # ------------------------------------------------------------------
    def _act_phase1(self, ctx: RoundContext) -> None:
        size = len(self.color_list)
        self.local_work += size * max(1, (size - 1).bit_length())
        self.sublist = rank_sublist(self.color_list, self.k, self.defect_fn,
                                    self.p)
        if self.trace is not None:
            self.trace.append({
                "node": self.node,
                "phase": 1,
                "round": ctx.round_number,
                "sublist": self.sublist,
                "k": dict(self.k),
            })
        ctx.broadcast(
            _TAG_SUBLIST,
            self.sublist,
            bits=len(self.sublist) * color_bits(self.color_space_size),
        )

    # ------------------------------------------------------------------
    # Phase II: commit to a color satisfying Eq. (5)
    # ------------------------------------------------------------------
    def _act_phase2(self, ctx: RoundContext) -> None:
        chosen, probes = first_fit(
            self.sublist,
            {color: self.k[color] + self.r[color] for color in self.sublist},
            self.defect_fn,
        )
        self.local_work += probes
        if chosen is None:
            raise AlgorithmFailure(
                f"node {self.node!r}: no color in S_v = {self.sublist} "
                f"satisfies Eq. (5); k={self.k} r={self.r} -- Eq. (2) must "
                f"have been violated"
            )
        self.final_color = chosen
        if self.trace is not None:
            self.trace.append({
                "node": self.node,
                "phase": 2,
                "round": ctx.round_number,
                "color": chosen,
                "k": dict(self.k),
                "r": dict(self.r),
            })
        # Only in-neighbors earlier in the sweep still need the color.
        for neighbor in ctx.neighbors:
            if self.neighbor_initial[neighbor] < self.initial_color:
                ctx.send(
                    neighbor,
                    _TAG_FINAL,
                    chosen,
                    bits=color_bits(self.color_space_size),
                )

    def output(self) -> Optional[Color]:
        return self.final_color


def _initial_column(initial_colors, order) -> list:
    """A ``{node: color}`` mapping or a dense-id column, as a list."""
    if isinstance(initial_colors, Mapping):
        return [initial_colors[node] for node in order]
    return arrays.as_list(initial_colors)


def check_two_sweep_preconditions(instance: OLDCInstance,
                                  initial_colors: Mapping[Node, Color],
                                  q: int, p: int) -> None:
    """Raise unless the inputs satisfy Algorithm 1's requirements.

    ``initial_colors`` is a ``{node: color}`` mapping or a dense-id
    column; the checks run on the instance's columns, in node order.
    """
    if p < 1:
        raise InstanceError("p must be at least 1")
    graph = instance.graph
    order = graph.compiled.order
    if isinstance(initial_colors, Mapping):
        column = [initial_colors.get(node) for node in order]
    else:
        column = arrays.as_list(initial_colors)
    for node, color in zip(order, column):
        if color is None or not 0 <= color < q:
            raise InstanceError(
                f"node {node!r}: initial color {color!r} outside 0..{q - 1}"
            )
    ptr = graph.out_indptr
    outs = graph.out_indices
    for i, own in enumerate(column):
        for j in outs[ptr[i]:ptr[i + 1]]:
            if column[j] == own:
                raise InstanceError(
                    f"initial coloring is not proper: edge "
                    f"{order[i]!r}-{order[j]!r}"
                )
    failed = instance.first_unsatisfied(p)
    if failed is not None:
        node = order[failed]
        raise InfeasibleInstanceError(
            node,
            f"Eq. (2) fails: weight {instance.weight(node)} <= "
            f"max({p}, {instance.list_size(node)}/{p}) * "
            f"beta {instance.beta(node)}",
        )


def two_sweep(instance: OLDCInstance,
              initial_colors: Mapping[Node, Color],
              q: int,
              p: int,
              ledger: Optional[CostLedger] = None,
              bandwidth: Optional[BandwidthModel] = None,
              check: bool = True,
              trace: Optional[List[dict]] = None) -> ColoringResult:
    """Run Algorithm 1 and return the computed OLDC solution.

    Parameters
    ----------
    instance:
        The oriented list defective coloring instance.
    initial_colors:
        A proper coloring with colors ``0..q-1``: a ``{node: color}``
        mapping or a dense-id column (``instance.graph.compiled.order``).
    p:
        The sub-list size parameter of Theorem 1.1.
    check:
        When true (default), validate Eq. (2) and the initial coloring up
        front and raise :class:`InfeasibleInstanceError` /
        :class:`InstanceError` on violations.  With ``check=False`` the
        algorithm runs anyway and raises :class:`AlgorithmFailure` only if
        a node actually gets stuck.
    trace:
        Optional list collecting per-node phase events (used by the
        Figure 1 sweep-mechanics benchmark).

    Columns first: on the vectorized engine :class:`TwoSweepKernel` runs
    from the instance's columns and no program object is built; every
    other engine, and any fallback (a ``trace`` among them), builds the
    programs.
    """
    ledger = ensure_ledger(ledger)
    if check:
        check_two_sweep_preconditions(instance, initial_colors, q, p)
    graph = instance.graph
    order = graph.compiled.order
    initial = _initial_column(initial_colors, order)
    color_space_size = instance.color_space_size
    lists = (instance.list_indptr, instance.list_colors,
             instance.list_defects)
    outs = (graph.out_indptr, graph.out_indices)
    built: List[Dict[Node, TwoSweepProgram]] = []

    def build_programs() -> Dict[Node, TwoSweepProgram]:
        ptr, colors, defects = lists
        out_ptr, out_ids = outs
        programs = {
            node: TwoSweepProgram(
                node=node,
                initial_color=initial[i],
                q=q,
                p=p,
                color_list=tuple(colors[ptr[i]:ptr[i + 1]]),
                defect_fn=dict(zip(colors[ptr[i]:ptr[i + 1]],
                                   defects[ptr[i]:ptr[i + 1]])),
                out_neighbors=frozenset(
                    order[j] for j in out_ids[out_ptr[i]:out_ptr[i + 1]]
                ),
                color_space_size=color_space_size,
                trace=trace,
            )
            for i, node in enumerate(order)
        }
        built.append(programs)
        return programs

    inputs = ColumnInputs(
        TwoSweepProgram,
        {"initial": initial, "q": q, "p": p,
         "color_space_size": color_space_size, "lists": lists,
         "outs": outs, "trace": trace},
        build_programs,
    )
    # Algorithm-level span: instance parameters are logical attributes
    # (identical whichever engine runs the sweep), so traced runs can be
    # grouped by workload; the nested phase span carries the charges.
    tracer = current_tracer()
    scope = (
        tracer.span("algorithm", "two-sweep",
                    nodes=len(order), q=q, p=p)
        if tracer is not None else nullcontext()
    )
    with scope, ledger.phase("two-sweep"):
        outputs, _ = run_columns(
            graph.network, inputs, bandwidth=bandwidth, ledger=ledger
        )
    work = ([program.local_work for program in built[0].values()]
            if built else inputs.extras["local_work"])
    return ColoringResult(
        colors=dict(zip(order, arrays.as_list(outputs))),
        orientation=None,
        ledger=ledger,
        stats={
            "max_local_work": max(work, default=0),
            "total_local_work": sum(work),
        },
    )


def _split_arrays(np, indptr, indices, column):
    """Each node's CSR entries of smaller / larger initial color.

    ``column`` is the int64 initial-color column.  Returns
    ``(smaller_ptr, smaller_ids, larger_ptr, larger_ids)`` as int64
    ndarrays, entries in row order: two masks over the rows.
    """
    ptr = np.asarray(indptr, dtype=np.int64)
    ids = np.asarray(indices, dtype=np.int64)
    own = np.repeat(column, np.diff(ptr))
    other = column[ids]
    result = []
    for keep in (other < own, other > own):
        kept = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
        result.append(kept[ptr])
        result.append(ids[keep])
    return tuple(result)


def _split_rows(indptr, indices, initial):
    """:func:`_split_arrays` as lists, for any initial column."""
    np = arrays.get_numpy()
    if np is not None:
        column = arrays.int64_column(np, initial)
        if column is not None:
            return tuple(part.tolist() for part in
                         _split_arrays(np, indptr, indices, column))
    smaller_ptr, smaller, larger_ptr, larger = [0], [], [0], []
    for i, own in enumerate(initial):
        for j in indices[indptr[i]:indptr[i + 1]]:
            other = initial[j]
            if other < own:
                smaller.append(j)
            elif other > own:
                larger.append(j)
        smaller_ptr.append(len(smaller))
        larger_ptr.append(len(larger))
    return smaller_ptr, smaller, larger_ptr, larger


def _gather(np, ptr, rows):
    """``(positions, lengths)``: where the CSR entries of ``rows`` sit,
    row after row, and each row's length."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - ends + lengths, lengths)), lengths


def _waves(np, ptr, ids, width):
    """The dependency waves of "row ``v`` waits for ``ids`` of its row".

    Wave 0 holds the nodes with empty rows, wave ``w`` those whose
    latest dependency is in wave ``w - 1`` (``wave(v) = 1 + max
    wave(u)``), peeled one frontier at a time, O(entries) in all.
    Returns ``(order, bounds)``: the dense ids by wave, ascending within
    a wave, and the list of wave boundaries in ``order`` -- or ``None``
    when the waves average fewer than ``width`` nodes, judged at the
    end and after every wave from the ``width``-th on (a chain is
    recognized after ``width`` waves, not ``n / width``).
    """
    n = ptr.shape[0] - 1
    waiting = np.diff(ptr)
    dependents = np.repeat(np.arange(n, dtype=np.int64),
                           waiting)[np.argsort(ids, kind="stable")]
    dependents_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(ids, minlength=n))))
    frontier = np.flatnonzero(waiting == 0)
    waves = []
    peeled = 0
    while frontier.size:
        waves.append(frontier)
        peeled += frontier.size
        if len(waves) >= width and peeled < len(waves) * width:
            return None
        positions, _ = _gather(np, dependents_ptr, frontier)
        ready, hits = np.unique(dependents[positions], return_counts=True)
        waiting[ready] -= hits
        frontier = ready[waiting[ready] == 0]
    if n < len(waves) * width:
        return None
    return (np.concatenate(waves),
            [0] + np.cumsum([wave.size for wave in waves]).tolist())


def _bounds(np, lengths, node_bounds):
    """Where each wave's run of per-node ``lengths`` starts and ends."""
    return np.concatenate(([0], np.cumsum(lengths)))[node_bounds].tolist()


class _Decisions:
    """Every node's Algorithm 1 decisions, made before round 1.

    Subclasses fill ``work`` (the local-work column), ``failed`` (the
    dense id of the first node whose Phase II probe finds no color --
    first by round, then by dense id -- or ``None``), the earlier /
    later out-neighbor rows, the receiver rows of Phase II finals and
    the per-class charge columns ``classes`` (ascending), ``counts``,
    ``phase1`` (``(messages, bits, max_bits, broadcasts)`` lists) and
    ``finals_sent``; and they answer :meth:`deciders`, :meth:`sublist`
    and :meth:`final` for one class or node.
    """

    def k(self, i) -> Dict[Color, int]:
        """``k_v`` as the program holds it: list order, every color."""
        ptr, ids = self.earlier
        k = dict.fromkeys(
            self.list_colors[self.list_indptr[i]:self.list_indptr[i + 1]], 0)
        for j in ids[ptr[i]:ptr[i + 1]]:
            for color in self.sublist(j):
                if color in k:
                    k[color] += 1
        return k

    def r(self, i, k) -> Dict[Color, int]:
        """``r_v`` as the program holds it, keyed like ``k``."""
        ptr, ids = self.later
        r = dict.fromkeys(k, 0)
        for j in ids[ptr[i]:ptr[i + 1]]:
            color = self.final(j)
            if color in r:
                r[color] += 1
        return r


class _PythonDecisions(_Decisions):
    """The per-node rules (:func:`rank_sublist`, :func:`first_fit`), Phase
    I in ascending and Phase II in descending class order; Phase II
    stops at the first failure."""

    def __init__(self, compiled, initial, p, lists, outs, bits_color):
        n = compiled.n
        by_class: Dict[int, List[int]] = {}
        for i, own in enumerate(initial):
            by_class.setdefault(own, []).append(i)
        earlier_ptr, earlier, later_ptr, later = _split_rows(
            outs[0], outs[1], initial)
        # Phase II finals go to the neighbors earlier in the sweep, in
        # CSR row order (the CONGEST check order).
        receivers_ptr, receivers, _, _ = _split_rows(
            compiled.indptr, compiled.indices, initial)
        list_indptr = arrays.as_list(lists[0])
        list_colors = arrays.as_list(lists[1])
        list_defects = arrays.as_list(lists[2])
        sublists = [()] * n
        kdicts = [None] * n
        defect_fns = [None] * n
        finals = [None] * n
        work = [0] * n
        degrees = compiled.degrees
        classes = sorted(by_class)
        # Per-class charges, filled alongside the decisions (Phase II
        # rounds past a failure are never run and keep zeros).
        phase1 = ([], [], [], [])
        finals_sent = [0] * len(classes)
        for own in classes:
            messages = bits = max_bits = envelopes = 0
            for i in by_class[own]:
                lo = list_indptr[i]
                hi = list_indptr[i + 1]
                clist = list_colors[lo:hi]
                k = dict.fromkeys(clist, 0)
                lw = 0
                for j in earlier[earlier_ptr[i]:earlier_ptr[i + 1]]:
                    for color in sublists[j]:
                        lw += 1
                        if color in k:
                            k[color] += 1
                defect = dict(zip(clist, list_defects[lo:hi]))
                size = hi - lo
                lw += size * max(1, (size - 1).bit_length())
                sub = sublists[i] = rank_sublist(clist, k, defect, p)
                kdicts[i] = k
                defect_fns[i] = defect
                work[i] = lw
                degree = degrees[i]
                if degree:
                    payload_bits = len(sub) * bits_color
                    messages += degree
                    bits += degree * payload_bits
                    if payload_bits > max_bits:
                        max_bits = payload_bits
                    envelopes += 1
            for column, value in zip(phase1,
                                     (messages, bits, max_bits, envelopes)):
                column.append(value)
        failed = None
        for t in range(len(classes) - 1, -1, -1):
            sent = 0
            for i in by_class[classes[t]]:
                k = kdicts[i]
                defect = defect_fns[i]
                row = later[later_ptr[i]:later_ptr[i + 1]]
                rc: Dict[Color, int] = {}
                lw = len(row)
                for j in row:
                    neighbor_final = finals[j]
                    if neighbor_final in k:
                        rc[neighbor_final] = rc.get(neighbor_final, 0) + 1
                sub = sublists[i]
                final, probes = first_fit(
                    sub, {color: k[color] + rc.get(color, 0) for color in sub},
                    defect)
                if final is None:
                    failed = i
                    break
                finals[i] = final
                work[i] += lw + probes
                sent += receivers_ptr[i + 1] - receivers_ptr[i]
            finals_sent[t] = sent
            if failed is not None:
                break
        self.by_class = by_class
        self.earlier = (earlier_ptr, earlier)
        self.later = (later_ptr, later)
        self.receivers = (receivers_ptr, receivers)
        self.list_indptr = list_indptr
        self.list_colors = list_colors
        self.sublists = sublists
        self.finals = finals
        self.work = work
        self.failed = failed
        self.classes = classes
        self.counts = [len(by_class[own]) for own in classes]
        self.phase1 = phase1
        self.finals_sent = finals_sent

    def deciders(self, own):
        return self.by_class.get(own, ())

    def sublist(self, i):
        return self.sublists[i]

    def final(self, i):
        return self.finals[i]

    def finals_column(self):
        return self.finals


class _ArrayDecisions(_Decisions):
    """One NumPy pass per dependency wave.

    Colors become ranks in the sorted palette, so ``v * width + rank``
    keys a (node, color) pair and one ``searchsorted`` matches a whole
    wave's gathered colors against its lists.  Phase I: the fold is a
    segment count of the earlier out-neighbors' sub-lists against the
    list, the ranking one ``lexsort`` by (node, k - d, color), the first
    ``p`` of each node its sub-list.  Phase II: the later out-neighbors'
    finals are counted against the sub-list, and the final is the first
    sub-list color in color order with ``k + r <= d``: the same rules
    as :func:`rank_sublist` and :func:`first_fit`, a wave at a time.
    """

    @classmethod
    def build(cls, np, compiled, initial, p, lists, outs, bits_color):
        """The decisions, or ``None`` where the array form does not
        apply: ``p`` not a non-negative int, a column that is not plain
        ints within ``MAX_COLOR``, a list repeating a color, or waves
        averaging fewer than ``arrays.MIN_BATCH`` nodes.  The last is
        the per-wave NumPy overhead: n = 2000 in disjoint both-ways
        oriented paths, the class-order loop takes 10-15 ms at any
        depth, the wave form 4.5 ms at 10 waves, 7.6 ms at 62 (32
        nodes a wave), 11.6 ms at 125 and 21 ms at 250."""
        bound = arrays.MAX_COLOR
        n = compiled.n
        if type(p) is not int or p < 0:
            return None
        column = arrays.int64_column(np, initial)
        if column is None:
            return None
        earlier_ptr, earlier, later_ptr, later = _split_arrays(
            np, outs[0], outs[1], column)
        waves1 = _waves(np, earlier_ptr, earlier, arrays.MIN_BATCH)
        waves2 = (_waves(np, later_ptr, later, arrays.MIN_BATCH)
                  if waves1 is not None else None)
        if waves2 is None:
            return None
        colors = arrays.int64_column(np, lists[1])
        defects = arrays.int64_column(np, lists[2])
        if colors is None or defects is None:
            return None
        if colors.size and not (-bound <= colors.min()
                                and colors.max() <= bound
                                and -bound <= defects.min()
                                and defects.max() <= bound):
            return None
        palette, rank = np.unique(colors, return_inverse=True)
        width = max(1, palette.size)
        if n * width > bound:
            return None
        list_ptr = np.asarray(lists[0], dtype=np.int64)
        sizes = np.diff(list_ptr)
        key = np.repeat(np.arange(n, dtype=np.int64) * width, sizes) + rank
        # Each row's entries in color order (rows stay in place).
        by_color = np.argsort(key, kind="stable")
        ordered = key[by_color]
        if np.any(ordered[1:] == ordered[:-1]):
            return None

        self = cls()
        sub_sizes = np.minimum(sizes, p)
        sub_ptr = np.concatenate(([0], np.cumsum(sub_sizes)))
        sub_entry = np.empty(int(sub_ptr[-1]), dtype=np.int64)
        k = np.zeros(colors.size, dtype=np.int64)
        # Phase I.  Everything but the earlier sub-lists' colors is
        # gathered once, in wave order, and sliced per wave.
        order, waves = waves1
        positions, lengths = _gather(np, list_ptr, order)
        entries = by_color[positions]
        keys = key[entries]
        spans = _bounds(np, lengths, waves)
        local = np.repeat(np.arange(n, dtype=np.int64), lengths)
        within = (np.arange(entries.size, dtype=np.int64)
                  - np.repeat(np.cumsum(lengths) - lengths, lengths))
        take = within < p
        targets = np.repeat(sub_ptr[order], lengths) + within
        slack = -defects[entries]
        edges, fanin = _gather(np, earlier_ptr, order)
        slots, sub_lengths = _gather(np, sub_ptr, earlier[edges])
        owners = np.repeat(np.repeat(order * width, fanin), sub_lengths)
        probe_spans = np.concatenate(([0], np.cumsum(sub_lengths)))[
            _bounds(np, fanin, waves)].tolist()
        for w in range(len(waves) - 1):
            lo, hi = spans[w], spans[w + 1]
            first, last = probe_spans[w], probe_spans[w + 1]
            score = slack[lo:hi]
            if last > first and hi > lo:
                probe = (owners[first:last]
                         + rank[sub_entry[slots[first:last]]])
                wave_keys = keys[lo:hi]
                at = np.searchsorted(wave_keys, probe)
                np.minimum(at, hi - lo - 1, out=at)
                counts = np.bincount(at[wave_keys[at] == probe],
                                     minlength=hi - lo)
                k[entries[lo:hi]] = counts
                score = score + counts
            # Stable: ties in (node, k - d) stay in color order.
            ranked = entries[lo:hi][np.lexsort((score, local[lo:hi]))]
            chosen = take[lo:hi]
            sub_entry[targets[lo:hi][chosen]] = ranked[chosen]

        # Phase II, gathered the same way once the sub-lists are known.
        final = np.full(n, -1, dtype=np.int64)
        final_rank = np.full(n, -1, dtype=np.int64)
        probes = np.zeros(n, dtype=np.int64)
        failed = []
        order, waves = waves2
        positions, lengths = _gather(np, sub_ptr, order)
        entries = sub_entry[positions]
        local = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys = local * width + rank[entries]
        in_color_order = np.argsort(keys)
        entries = entries[in_color_order]
        keys = np.repeat(order * width, lengths) + rank[entries]
        slack = k[entries] - defects[entries]
        starts = np.cumsum(lengths) - lengths
        spans = _bounds(np, lengths, waves)
        edges, fanin = _gather(np, later_ptr, order)
        targets = later[edges]
        owners = np.repeat(order * width, fanin)
        probe_spans = _bounds(np, fanin, waves)
        for w in range(len(waves) - 1):
            lo, hi = spans[w], spans[w + 1]
            first, last = probe_spans[w], probe_spans[w + 1]
            score = slack[lo:hi]
            if last > first and hi > lo:
                committed = final_rank[targets[first:last]]
                placed = committed >= 0
                probe = owners[first:last][placed] + committed[placed]
                wave_keys = keys[lo:hi]
                at = np.searchsorted(wave_keys, probe)
                np.minimum(at, hi - lo - 1, out=at)
                score = score + np.bincount(at[wave_keys[at] == probe],
                                            minlength=hi - lo)
            hits = np.flatnonzero(score <= 0) + lo
            placed_rows, first_hit = np.unique(local[hits],
                                               return_index=True)
            picked = hits[first_hit]
            nodes = order[placed_rows]
            final[nodes] = entries[picked]
            final_rank[nodes] = rank[entries[picked]]
            probes[nodes] = picked - starts[placed_rows] + 1
            if placed_rows.size < waves[w + 1] - waves[w]:
                stuck = np.ones(n, dtype=bool)
                stuck[placed_rows] = False
                failed.append(order[np.flatnonzero(
                    stuck[waves[w]:waves[w + 1]]) + waves[w]])

        later_sizes = np.diff(later_ptr)
        fold = np.concatenate(([0], np.cumsum(sub_sizes[earlier])))
        self.work = (fold[earlier_ptr[1:]] - fold[earlier_ptr[:-1]]
                     + sizes * np.maximum(1, np.frexp(sizes - 1)[1])
                     + later_sizes + probes).tolist()
        self.failed = None
        if failed:
            stuck = np.concatenate(failed)
            # First by round (largest class first in Phase II), then id.
            self.failed = int(stuck[np.lexsort((stuck,
                                                -column[stuck]))[0]])

        views = compiled.numpy_views()
        receivers_ptr, receivers, _, _ = _split_arrays(
            np, views[0], views[1], column)
        by_class = np.argsort(column, kind="stable")
        classes, counts = np.unique(column, return_counts=True)
        starts = np.cumsum(counts) - counts
        degrees = views[2][by_class]
        payload_bits = sub_sizes[by_class] * bits_color
        sent = degrees > 0
        self.phase1 = tuple(part.tolist() for part in (
            np.add.reduceat(degrees, starts),
            np.add.reduceat(degrees * payload_bits, starts),
            np.maximum.reduceat(np.where(sent, payload_bits, 0), starts),
            np.add.reduceat(sent.astype(np.int64), starts),
        ))
        self.finals_sent = np.add.reduceat(
            np.diff(receivers_ptr)[by_class], starts).tolist()
        self.classes = classes.tolist()
        self.counts = counts.tolist()
        self._class_rows = (by_class, starts)
        self._by_class = None
        self.earlier = (earlier_ptr, earlier)
        self.later = (later_ptr, later)
        self.receivers = (receivers_ptr, receivers)
        self.list_indptr = list_ptr
        self.list_colors = arrays.as_list(lists[1])
        self.colors = colors
        self.sub_ptr = sub_ptr.tolist()
        self.sub_entry = sub_entry
        self.final_entry = final
        return self

    def deciders(self, own):
        if self._by_class is None:
            by_class, starts = self._class_rows
            ids = by_class.tolist()
            bounds = starts.tolist() + [len(ids)]
            self._by_class = {
                klass: ids[bounds[t]:bounds[t + 1]]
                for t, klass in enumerate(self.classes)
            }
        return self._by_class.get(own, ())

    def sublist(self, i):
        colors = self.list_colors
        return tuple(colors[entry] for entry in
                     self.sub_entry[self.sub_ptr[i]:self.sub_ptr[i + 1]]
                     .tolist())

    def final(self, i):
        entry = self.final_entry[i]
        return None if entry < 0 else self.list_colors[entry]

    def finals_column(self):
        return self.colors[self.final_entry]


def _plan(decided, n, q, bits_color):
    """The sweep rounds' charges: ``({round: KernelRound}, after)``.

    ``after`` maps each Phase II round that an idle round follows to
    the charge of those idle rounds (empty when the classes are
    consecutive).  Phase I rounds with equal charges share one
    :class:`KernelRound`.
    """
    classes = decided.classes
    shared: Dict[tuple, KernelRound] = {}
    opening = [shared.get(charges)
               or shared.setdefault(charges, KernelRound(n, *charges))
               for charges in zip(*decided.phase1)]
    plan = dict(zip([2 + own for own in classes], opening))
    down = classes[::-1]
    rounds = [2 * q + 1 - own for own in down]
    sent = decided.finals_sent[::-1]
    active = list(accumulate(decided.counts[::-1], operator.sub,
                             initial=n))[1:]
    closing = list(map(KernelRound, active, sent,
                       [messages * bits_color for messages in sent],
                       [bits_color if messages else 0 for messages in sent]))
    plan.update(zip(rounds, closing))
    after = {}
    if classes and classes[-1] - classes[0] != len(classes) - 1:
        for at, own, below, remaining, messages, result in zip(
                rounds, down, down[1:] + [-1], active, sent, closing):
            if below != own - 1:
                after[at] = KernelRound(remaining) if messages else result
    return plan, after


class TwoSweepKernel(RoundKernel):
    """Two-Sweep that decides eagerly, then replays its ``2q + 1`` rounds.

    In Algorithm 1 a node's Phase I sub-list depends only on the
    sub-lists of its *earlier* out-neighbors, and its Phase II color
    only on the finals of its *later* out-neighbors, so the whole run is
    fixed by two dependency DAGs that are usually far shallower than
    ``q`` rounds (a G(n, p) trial with ``q = n`` ids: 4001 rounds, about
    a dozen Phase I waves and one Phase II wave).  :meth:`from_columns`
    therefore computes every node's sub-list, ``k``, final, ``r`` and
    ``local_work`` up front, in one of two forms chosen by the input
    alone:

    * with the array backend on, ``n >= arrays.MIN_BATCH``, plain-int
      colors and defects within ``MAX_COLOR``, distinct colors per list
      and dependency waves averaging at least ``MIN_BATCH`` nodes: one
      NumPy pass per wave (:class:`_ArrayDecisions`; Phase I wave
      ``w(v) = 1 + max w`` over earlier out-neighbors, Phase II the same
      over later ones);
    * otherwise the per-node program code, run in class order
      (:class:`_PythonDecisions`).

    Every round's ledger charges are known before the run (sub-list
    sizes are ``min(p, |L_v|)`` and each final goes to the neighbors
    earlier in the sweep), so :meth:`step` only looks its round up;
    idle rounds and rounds with equal Phase I charges share one
    :class:`KernelRound`.  With a bandwidth model other than LOCAL a
    round replays its CONGEST checks in the reference order (round 1:
    every node's initial color; Phase I: each decider's sub-list
    broadcast; Phase II: each decider's final to each receiver, in CSR
    row order).  The first :class:`AlgorithmFailure` (first by round,
    then by dense id) is raised at its own round, after the checks of
    the deciders before it, so the ledger at failure, exception order
    and message text match the reference engine; rounds past
    ``max_rounds`` never run, so the scheduler's RoundLimitExceeded
    comes at the same round and ``finalize`` is never called.

    ``local_work`` accrues identically in total (per sub-list entry and
    final received, plus the sort and probe costs), just attributed to
    the owner's turns.  The last Phase II round sends nothing (no
    neighbor of the minimum present class has a smaller initial color),
    giving the same clean quiescence round as the reference engine.

    ``two_sweep`` reaches :meth:`from_columns` through the scheduler's
    columns entry with the instance's list and out-neighbor CSR columns.
    Declines traces (per-round events cannot be replayed from a bucketed
    pass) and initial colors outside ``[0, q)``.  ``finalize`` fills
    ``ColumnInputs.outputs`` and its ``local_work`` extra.
    """

    def prepare(self, compiled, inputs, bandwidth):
        data = inputs.data
        if data["trace"] is not None:
            return None
        return self.from_columns(
            compiled, data["initial"], data["q"], data["p"],
            data["color_space_size"], data["lists"], data["outs"],
            bandwidth,
        )

    def from_columns(self, compiled, initial, q, p, color_space_size,
                     lists, outs, bandwidth):
        """Decisions and per-round plan for a sweep over dense-id columns.

        ``initial`` is the initial-color column, ``lists`` the list
        columns ``(indptr, colors, defects)`` and ``outs`` the
        out-neighbor CSR ``(indptr, indices)``, all in
        ``compiled.order``.  Returns ``None`` (decline) unless every
        initial color lies in ``[0, q)``.
        """
        if not all(0 <= color < q for color in initial):
            return None
        n = compiled.n
        bits_color = color_bits(color_space_size)
        decided = None
        np = arrays.get_numpy()
        if np is not None and n >= arrays.MIN_BATCH:
            decided = _ArrayDecisions.build(np, compiled, initial, p, lists,
                                            outs, bits_color)
        if decided is None:
            decided = _PythonDecisions(compiled, initial, p, lists, outs,
                                       bits_color)
        else:
            self.backend = "numpy"
        checked = type(bandwidth) is not LocalModel
        bits_initial = color_bits(q)
        copies, envelopes = fanout_totals(compiled)
        plan, after = _plan(decided, n, q, bits_color)
        plan[1] = KernelRound(n, copies, copies * bits_initial,
                              bits_initial if copies else 0, envelopes)
        failing = (None if decided.failed is None
                   else 2 * q + 1 - initial[decided.failed])
        return {
            "order": compiled.order,
            "initial": initial,
            "q": q,
            "decided": decided,
            "plan": plan,
            "idle": KernelRound(n),
            # Rounds that do more than charge: CONGEST checks to replay,
            # the failing round, idle charges that change.
            "watch": checked or failing is not None or bool(after),
            "checked": checked,
            "failing": failing,
            "after": after,
            "degrees": compiled.degrees,
            "bits_initial": bits_initial,
            "bits_color": bits_color,
            "bandwidth": bandwidth,
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        result = columns["plan"].get(round_number)
        if result is None:
            return columns["idle"]
        if columns["watch"]:
            idle = columns["after"].get(round_number)
            if idle is not None:
                columns["idle"] = idle
            if columns["checked"] or round_number == columns["failing"]:
                self._replay(round_number, columns)
        return result

    @staticmethod
    def _replay(round_number, columns) -> None:
        """Round ``round_number``'s CONGEST checks in reference order,
        and its :class:`AlgorithmFailure` if it is the failing round."""
        bandwidth = columns["bandwidth"]
        check = None if type(bandwidth) is LocalModel else bandwidth
        decided = columns["decided"]
        order = columns["order"]
        degrees = columns["degrees"]
        q = columns["q"]
        if round_number == 1:
            check_broadcasts(check.check_fanout, order, degrees, _TAG_INITIAL,
                             columns["initial"], columns["bits_initial"])
            return
        bits_color = columns["bits_color"]
        if round_number <= q + 1:
            for i in decided.deciders(round_number - 2):
                degree = degrees[i]
                if degree:
                    sub = decided.sublist(i)
                    check.check_fanout(
                        intern_broadcast(order[i], _TAG_SUBLIST, sub,
                                         len(sub) * bits_color),
                        degree,
                    )
            return
        ptr, ids = decided.receivers
        for i in decided.deciders(2 * q + 1 - round_number):
            if i == decided.failed:
                k = decided.k(i)
                raise AlgorithmFailure(
                    f"node {order[i]!r}: no color in S_v = "
                    f"{decided.sublist(i)} satisfies Eq. (5); k={k} "
                    f"r={decided.r(i, k)} -- Eq. (2) must have been "
                    f"violated"
                )
            if check is not None:
                sender = order[i]
                chosen = decided.final(i)
                for j in ids[ptr[i]:ptr[i + 1]]:
                    check.check(Message(
                        sender, order[j], _TAG_FINAL, chosen, bits_color
                    ))

    def finalize(self, columns, inputs) -> None:
        decided = columns["decided"]
        inputs.outputs = decided.finals_column()
        inputs.extras["local_work"] = decided.work


register_kernel(TwoSweepProgram, TwoSweepKernel)
