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

from contextlib import nullcontext
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

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
        ranked = sorted(
            self.color_list,
            key=lambda color: (-(self.defect_fn[color] - self.k[color]), color),
        )
        size = len(self.color_list)
        self.local_work += size * max(1, (size - 1).bit_length())
        self.sublist = tuple(ranked[: self.p])
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
        chosen = None
        for color in sorted(self.sublist):
            self.local_work += 1
            if self.k[color] + self.r[color] <= self.defect_fn[color]:
                chosen = color
                break
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


def _sweep_columns(compiled, programs):
    """The one programs -> columns extractor of the sweep.

    Returns the :meth:`TwoSweepKernel.from_columns` arguments after
    ``compiled``, or ``None`` unless the population is a fresh uniform
    run: shared ``q``/``p``/``color_space_size``, no trace, no mid-run
    state, and a defect for every listed color.
    """
    first = programs[0]
    q = first.q
    p = first.p
    color_space_size = first.color_space_size
    order = compiled.order
    indptr = compiled.indptr
    indices = compiled.indices
    list_indptr = [0]
    colors: List[Color] = []
    defects: List[int] = []
    out_indptr = [0]
    out_indices: List[int] = []
    for i, program in enumerate(programs):
        defect_fn = program.defect_fn
        if (program.q != q or program.p != p
                or program.color_space_size != color_space_size
                or program.trace is not None
                or program.final_color is not None
                or program.sublist or program.neighbor_initial
                or program.local_work
                or any(program.k.values()) or any(program.r.values())
                or not all(color in defect_fn
                           for color in program.color_list)):
            return None
        colors.extend(program.color_list)
        defects.extend([defect_fn[color] for color in program.color_list])
        list_indptr.append(len(colors))
        outs = program.out_neighbors
        out_indices.extend(j for j in indices[indptr[i]:indptr[i + 1]]
                           if order[j] in outs)
        out_indptr.append(len(out_indices))
    initial = [program.initial_color for program in programs]
    return (initial, q, p, color_space_size,
            (list_indptr, colors, defects), (out_indptr, out_indices))


def _split_rows(indptr, indices, initial):
    """Each node's CSR entries of smaller / larger initial color.

    Returns ``(smaller_ptr, smaller_ids, larger_ptr, larger_ids)`` as
    lists, entries in row order: two masks over the rows.
    """
    np = arrays.get_numpy()
    if np is not None:
        column = arrays.int64_column(np, initial)
        if column is not None:
            ptr = np.asarray(indptr, dtype=np.int64)
            ids = np.asarray(indices, dtype=np.int64)
            rows = np.repeat(np.arange(len(ptr) - 1, dtype=np.int64),
                             np.diff(ptr))
            other = column[ids]
            own = column[rows]
            result = []
            for keep in (other < own, other > own):
                kept = np.concatenate(([0], np.cumsum(keep,
                                                      dtype=np.int64)))
                result.append(kept[ptr].tolist())
                result.append(ids[keep].tolist())
            return tuple(result)
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


class TwoSweepKernel(RoundKernel):
    """Array-at-a-time Two-Sweep: one column pass per sweep step.

    The round layout makes the population embarrassingly bucketable: at
    most one color class acts per round (Phase I windows ``[2, q + 1]``
    and Phase II windows ``[q + 2, 2q + 1]`` are disjoint), so each step
    touches only that round's deciders while the reference engine still
    dispatches an ``on_round`` no-op for every waiting node.  Two facts
    make the event-driven rewrite exact:

    * ``k_v`` is *final* at ``v``'s Phase I turn -- an earlier
      out-neighbor of class ``c' < c`` broadcasts its sub-list in round
      ``2 + c'`` and it is ingested no later than round ``2 + c``, so
      the kernel can fold all earlier sub-lists at decision time instead
      of at delivery time;
    * ``r_v`` is final at ``v``'s Phase II turn -- every later
      out-neighbor decided in a strictly earlier round -- so it is
      derived from the finals column on the spot.

    ``local_work`` accrues identically in total (per sub-list entry and
    final received, plus the sort and probe costs), just attributed to
    the owner's turn instead of the delivery rounds.  The last Phase II
    round sends nothing (no neighbor of the minimum present class has a
    smaller initial color), giving the same clean quiescence round as
    the reference engine.

    :meth:`from_columns` is the one columns constructor: ``two_sweep``
    reaches it through the scheduler's columns entry with the
    instance's list and out-neighbor CSR columns, and the program-list
    ``prepare`` is an adapter over the same columns
    (:func:`_sweep_columns`).  Everything a step reads is fixed up
    front: the per-class decider lists from the initial-color column,
    and the earlier/later out-neighbor and earlier-receiver lists as
    masks over the CSR rows.

    Declines traces (per-round events cannot be replayed from a bucketed
    pass), mid-run state, non-uniform ``q``/``p``/``color_space_size``,
    and initial colors outside ``[0, q)``.  ``finalize`` restores
    ``final_color``, ``sublist``, ``k``, ``r`` and ``local_work`` (or
    fills ``ColumnInputs.outputs`` and its ``local_work`` extra); the
    ``neighbor_initial`` ingest dict is not reconstructed (same
    convention as the greedy-sweep kernel), and on a ``max_rounds``-
    truncated run nodes that never reached a turn keep zeroed ``k`` /
    ``r`` / ``local_work`` rather than partially-delivered counts.
    """

    def prepare(self, compiled, programs, bandwidth):
        if isinstance(programs, ColumnInputs):
            data = programs.data
            if data["trace"] is not None:
                return None
            return self.from_columns(
                compiled, data["initial"], data["q"], data["p"],
                data["color_space_size"], data["lists"], data["outs"],
                bandwidth,
            )
        extracted = _sweep_columns(compiled, programs)
        if extracted is None:
            return None
        columns = self.from_columns(compiled, *extracted, bandwidth)
        if columns is not None:
            columns["names"] = [program.node for program in programs]
        return columns

    def from_columns(self, compiled, initial, q, p, color_space_size,
                     lists, outs, bandwidth):
        """Column state for a sweep over dense-id columns.

        ``initial`` is the initial-color column, ``lists`` the list
        columns ``(indptr, colors, defects)`` and ``outs`` the
        out-neighbor CSR ``(indptr, indices)``, all in
        ``compiled.order``.  Returns ``None`` (decline) unless every
        initial color lies in ``[0, q)``.
        """
        if not all(0 <= color < q for color in initial):
            return None
        n = compiled.n
        by_class: Dict[int, List[int]] = {}
        for i, own in enumerate(initial):
            by_class.setdefault(own, []).append(i)
        # Out-neighbors earlier / later in the sweep, and the earlier
        # neighbors a Phase II final goes to -- the latter in CSR row
        # order, which fixes the CONGEST per-message check order.
        earlier_ptr, earlier, later_ptr, later = _split_rows(
            outs[0], outs[1], initial
        )
        receivers_ptr, receivers, _, _ = _split_rows(
            compiled.indptr, compiled.indices, initial
        )
        list_indptr = arrays.as_list(lists[0])
        list_colors = arrays.as_list(lists[1])
        list_defects = arrays.as_list(lists[2])
        state = self._prepare_arrays(n, p, list_colors, earlier_ptr,
                                     later_ptr)
        sublists = [()] * n
        kdicts = [None] * n
        # Each decider's {color: d_v(color)}, from its Phase I turn on.
        defect_fns = [None] * n
        finals = [None] * n
        work = [0] * n
        order = compiled.order
        degrees = compiled.degrees
        bits_color = color_bits(color_space_size)
        local = type(bandwidth) is LocalModel
        total_copies, envelopes = fanout_totals(compiled)
        return {
            # Failure messages name the node; the program adapter puts
            # each program's ``node`` here.
            "names": order,
            "order": order,
            "initial": initial,
            "q": q,
            "arrays": state,
            "by_class": by_class,
            "sublists": sublists,
            "kdicts": kdicts,
            "rcounts": [None] * n,
            "finals": finals,
            "work": work,
            "remaining": n,
            "idle": KernelRound(n),
            "total_copies": total_copies,
            "envelopes": envelopes,
            "bits_initial": color_bits(q),
            "check_fanout": None if local else bandwidth.check_fanout,
            "degrees": degrees,
            # What each phase's step reads, unpacked once per round.
            "phase1": (p, order, earlier_ptr, earlier, list_indptr,
                       list_colors, list_defects, sublists, kdicts,
                       defect_fns, work, degrees, bits_color,
                       None if local else bandwidth.check_fanout, state),
            "phase2": (order, later_ptr, later, receivers_ptr, receivers,
                       sublists, kdicts, defect_fns, finals, work,
                       bits_color, None if local else bandwidth.check,
                       state),
        }

    def _prepare_arrays(self, n, p, list_colors, earlier_ptr, later_ptr):
        """NumPy column state for the tally paths, or ``None`` to decline.

        The array path adds two columns next to the Python ones: a lazy
        int64 pool of committed sub-lists (each sub-list is converted at
        most once, the first time a batched Phase I fold consumes it) and
        an int64 mirror of the finals column (``-1`` = undecided) for the
        batched Phase II ``r_v`` tally.  Small populations, color values
        beyond int64, and topologies where no node could ever reach a
        tally of ``MIN_TALLY`` elements (so the mirror bookkeeping would
        be pure overhead) keep the pure-Python columns.
        """
        np = arrays.get_numpy()
        if np is None or n < arrays.MIN_BATCH:
            return None
        if not any(
            (earlier_ptr[i + 1] - earlier_ptr[i]) * p >= arrays.MIN_TALLY
            or later_ptr[i + 1] - later_ptr[i] >= arrays.MIN_TALLY
            for i in range(n)
        ):
            return None
        if list_colors and not (-arrays.MAX_COLOR <= min(list_colors)
                                and max(list_colors) <= arrays.MAX_COLOR):
            return None
        self.backend = "numpy"
        return {
            "np": np,
            "pool": [None] * n,
            "finals": np.full(n, -1, dtype=np.int64),
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        q = columns["q"]
        if round_number == 1:
            bits = columns["bits_initial"]
            check_fanout = columns["check_fanout"]
            if check_fanout is not None:
                order = columns["order"]
                initial = columns["initial"]
                for i, degree in enumerate(columns["degrees"]):
                    if degree:
                        check_fanout(
                            intern_broadcast(
                                order[i], _TAG_INITIAL, initial[i], bits
                            ),
                            degree,
                        )
            copies = columns["total_copies"]
            return KernelRound(
                active=columns["remaining"],
                messages=copies,
                bits=copies * bits,
                max_message_bits=bits if copies else 0,
                broadcasts=columns["envelopes"],
            )
        if round_number <= q + 1:
            deciders = columns["by_class"].get(round_number - 2)
            if deciders is None:
                return columns["idle"]
            return self._step_phase1(deciders, columns)
        deciders = columns["by_class"].get(2 * q + 1 - round_number)
        if deciders is None:
            return KernelRound(columns["remaining"])
        return self._step_phase2(deciders, columns)

    def _step_phase1(self, deciders, columns) -> KernelRound:
        messages = 0
        bits = 0
        max_bits = 0
        envelopes = 0
        (p, order, earlier_ptr, earlier, list_indptr, list_colors,
         list_defects, sublists, kdicts, defect_fns, work, degrees,
         bits_color, check_fanout, state) = columns["phase1"]
        for i in deciders:
            lo = list_indptr[i]
            hi = list_indptr[i + 1]
            clist = list_colors[lo:hi]
            row = earlier[earlier_ptr[i]:earlier_ptr[i + 1]]
            # Each earlier sub-list holds at most p colors, so
            # len(row) * p bounds the fold size; only pay for the
            # exact sum once that cheap bound clears the threshold.
            total = 0
            if state is not None and row \
                    and len(row) * p >= arrays.MIN_TALLY:
                total = sum(len(sublists[j]) for j in row)
            if total >= arrays.MIN_TALLY and row and state is not None:
                k = self._fold_batched(state, sublists, row, clist)
                lw = total
            else:
                k = dict.fromkeys(clist, 0)
                lw = 0
                for j in row:
                    for color in sublists[j]:
                        lw += 1
                        if color in k:
                            k[color] += 1
            defect = dict(zip(clist, list_defects[lo:hi]))
            ranked = sorted(
                clist, key=lambda color: (k[color] - defect[color], color)
            )
            size = hi - lo
            lw += size * max(1, (size - 1).bit_length())
            sub = tuple(ranked[:p])
            sublists[i] = sub
            kdicts[i] = k
            defect_fns[i] = defect
            work[i] += lw
            degree = degrees[i]
            if degree:
                payload_bits = len(sub) * bits_color
                if check_fanout is not None:
                    check_fanout(
                        intern_broadcast(
                            order[i], _TAG_SUBLIST, sub, payload_bits
                        ),
                        degree,
                    )
                messages += degree
                bits += degree * payload_bits
                if payload_bits > max_bits:
                    max_bits = payload_bits
                envelopes += 1
        return KernelRound(columns["remaining"], messages, bits, max_bits,
                           envelopes)

    @staticmethod
    def _fold_batched(state, sublists, row, clist):
        """Batched ``k_v`` fold: concatenate the earlier sub-lists from
        the int64 pool (each converted at most once) and tally them
        against the node's color list in C."""
        np = state["np"]
        pool = state["pool"]
        rows = []
        for j in row:
            converted = pool[j]
            if converted is None:
                sub_j = sublists[j]
                converted = pool[j] = np.fromiter(sub_j, np.int64,
                                                  len(sub_j))
            rows.append(converted)
        vals = np.concatenate(rows)
        list_np = np.fromiter(clist, np.int64, len(clist))
        candidates, inverse = np.unique(list_np, return_inverse=True)
        counts = arrays.membership_counts(np, vals, candidates)
        return dict(zip(clist, counts[inverse].tolist()))

    def _step_phase2(self, deciders, columns) -> KernelRound:
        messages = 0
        (order, later_ptr, later, receivers_ptr, receivers, sublists,
         kdicts, defect_fns, finals, work, bits_color, check,
         state) = columns["phase2"]
        rcounts = columns["rcounts"]
        for i in deciders:
            # k and the defect dict are keyed by the list, in list order.
            k = kdicts[i]
            defect = defect_fns[i]
            row = later[later_ptr[i]:later_ptr[i + 1]]
            if state is not None and len(row) >= arrays.MIN_TALLY:
                rc = self._tally_batched(state, row, list(k))
                lw = len(row)
            else:
                rc = {}
                lw = 0
                for j in row:
                    lw += 1
                    neighbor_final = finals[j]
                    if neighbor_final in k:
                        rc[neighbor_final] = rc.get(neighbor_final, 0) + 1
            chosen = None
            for color in sorted(sublists[i]):
                lw += 1
                if k[color] + rc.get(color, 0) <= defect[color]:
                    chosen = color
                    break
            if chosen is None:
                r = dict.fromkeys(k, 0)
                r.update(rc)
                raise AlgorithmFailure(
                    f"node {columns['names'][i]!r}: no color in S_v = "
                    f"{sublists[i]} satisfies Eq. (5); k={k} r={r} -- "
                    f"Eq. (2) must have been violated"
                )
            finals[i] = chosen
            if state is not None:
                state["finals"][i] = chosen
            rcounts[i] = rc
            work[i] += lw
            targets = receivers[receivers_ptr[i]:receivers_ptr[i + 1]]
            if targets:
                if check is not None:
                    sender = order[i]
                    for j in targets:
                        check(Message(
                            sender, order[j], _TAG_FINAL, chosen, bits_color
                        ))
                messages += len(targets)
        remaining = columns["remaining"] - len(deciders)
        columns["remaining"] = remaining
        return KernelRound(remaining, messages, messages * bits_color,
                           bits_color if messages else 0)

    @staticmethod
    def _tally_batched(state, row, clist):
        """Batched ``r_v`` tally: gather the later out-neighbors'
        committed finals from the int64 mirror and count them against
        the color list; only seen colors enter the result, matching the
        Python dict's contents exactly."""
        np = state["np"]
        committed = state["finals"][np.fromiter(row, np.int64, len(row))]
        candidates = np.unique(np.fromiter(clist, np.int64, len(clist)))
        tallies = arrays.membership_counts(np, committed, candidates)
        return {
            color: count
            for color, count in zip(candidates.tolist(), tallies.tolist())
            if count
        }

    def finalize(self, columns, programs) -> None:
        finals = columns["finals"]
        work = columns["work"]
        if isinstance(programs, ColumnInputs):
            programs.outputs = finals
            programs.extras["local_work"] = work
            return
        sublists = columns["sublists"]
        kdicts = columns["kdicts"]
        rcounts = columns["rcounts"]
        for i, program in enumerate(programs):
            program.sublist = sublists[i]
            program.final_color = finals[i]
            program.local_work = work[i]
            k = kdicts[i]
            if k is not None:
                program.k = k
            r = {color: 0 for color in program.color_list}
            rc = rcounts[i]
            if rc:
                r.update(rc)
            program.r = r


register_kernel(TwoSweepProgram, TwoSweepKernel)
