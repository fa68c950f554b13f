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
    KernelRound,
    RoundKernel,
    fanout_totals,
    register_kernel,
)
from ..sim.message import Message, color_bits, intern_broadcast
from ..sim.metrics import CostLedger, ensure_ledger
from ..sim.node import NodeProgram, RoundContext
from ..sim.scheduler import run_protocol

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


def check_two_sweep_preconditions(instance: OLDCInstance,
                                  initial_colors: Mapping[Node, Color],
                                  q: int, p: int) -> None:
    """Raise unless the inputs satisfy Algorithm 1's requirements."""
    if p < 1:
        raise InstanceError("p must be at least 1")
    for node in instance.graph.nodes:
        color = initial_colors.get(node)
        if color is None or not 0 <= color < q:
            raise InstanceError(
                f"node {node!r}: initial color {color!r} outside 0..{q - 1}"
            )
    for u in instance.graph.nodes:
        for v in instance.graph.out_neighbors(u):
            if initial_colors[u] == initial_colors[v]:
                raise InstanceError(
                    f"initial coloring is not proper: edge {u!r}-{v!r}"
                )
    for node in instance.graph.nodes:
        # Nodes without out-neighbors can never see a conflict; any
        # non-empty list suffices for them (beta_v is floored at 1 in the
        # paper's convention, which would otherwise reject tiny lists).
        if (instance.graph.outdegree(node) == 0
                and instance.list_size(node) > 0):
            continue
        if not instance.satisfies_eq2(p, node):
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
        A proper coloring with colors ``0..q-1``.
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
    """
    ledger = ensure_ledger(ledger)
    if check:
        check_two_sweep_preconditions(instance, initial_colors, q, p)
    graph = instance.graph
    programs = {
        node: TwoSweepProgram(
            node=node,
            initial_color=initial_colors[node],
            q=q,
            p=p,
            color_list=instance.lists[node],
            defect_fn=instance.defects[node],
            out_neighbors=frozenset(graph.out_neighbors(node)),
            color_space_size=instance.color_space_size,
            trace=trace,
        )
        for node in graph.nodes
    }
    # Algorithm-level span: instance parameters are logical attributes
    # (identical whichever engine runs the sweep), so traced runs can be
    # grouped by workload; the nested phase span carries the charges.
    tracer = current_tracer()
    scope = (
        tracer.span("algorithm", "two-sweep",
                    nodes=len(programs), q=q, p=p)
        if tracer is not None else nullcontext()
    )
    with scope, ledger.phase("two-sweep"):
        outputs, _ = run_protocol(
            graph.network, programs, bandwidth=bandwidth, ledger=ledger
        )
    work = [program.local_work for program in programs.values()]
    return ColoringResult(
        colors=dict(outputs),
        orientation=None,
        ledger=ledger,
        stats={
            "max_local_work": max(work, default=0),
            "total_local_work": sum(work),
        },
    )


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

    Declines traces (per-round events cannot be replayed from a bucketed
    pass), mid-run state, non-uniform ``q``/``color_space_size``, and
    initial colors outside ``[0, q)``.  ``finalize`` restores
    ``final_color``, ``sublist``, ``k``, ``r`` and ``local_work``; the
    ``neighbor_initial`` ingest dict is not reconstructed (same
    convention as the greedy-sweep kernel), and on a ``max_rounds``-
    truncated run nodes that never reached a turn keep zeroed ``k`` /
    ``r`` / ``local_work`` rather than partially-delivered counts.
    """

    def prepare(self, compiled, programs, bandwidth):
        first = programs[0]
        q = first.q
        color_space_size = first.color_space_size
        for program in programs:
            if (program.q != q
                    or program.color_space_size != color_space_size
                    or program.trace is not None
                    or program.final_color is not None
                    or program.sublist or program.neighbor_initial
                    or program.local_work
                    or any(program.k.values()) or any(program.r.values())
                    or not 0 <= program.initial_color < q):
                return None
        order = compiled.order
        indptr = compiled.indptr
        indices = compiled.indices
        initial = [program.initial_color for program in programs]
        out_earlier: List[list] = []
        out_later: List[list] = []
        recv_earlier: List[list] = []
        by_class: Dict[int, list] = {}
        for i, own in enumerate(initial):
            outs = programs[i].out_neighbors
            earlier: List[int] = []
            later: List[int] = []
            receivers: List[int] = []
            # Row order is ``ctx.neighbors`` order, which fixes the
            # CONGEST per-message check order for the Phase II sends.
            for j in indices[indptr[i]:indptr[i + 1]]:
                other = initial[j]
                if other < own:
                    receivers.append(j)
                    if order[j] in outs:
                        earlier.append(j)
                elif other > own and order[j] in outs:
                    later.append(j)
            out_earlier.append(earlier)
            out_later.append(later)
            recv_earlier.append(receivers)
            by_class.setdefault(own, []).append(i)
        total_copies, envelopes = fanout_totals(compiled)
        n = len(programs)
        state = self._prepare_arrays(programs, out_earlier, out_later)
        return {
            "programs": programs,
            "order": order,
            "initial": initial,
            "arrays": state,
            "out_earlier": out_earlier,
            "out_later": out_later,
            "recv_earlier": recv_earlier,
            "by_class": by_class,
            "sublists": [()] * n,
            "kdicts": [None] * n,
            "rcounts": [None] * n,
            "finals": [None] * n,
            "work": [0] * n,
            "remaining": n,
            "q": q,
            "total_copies": total_copies,
            "envelopes": envelopes,
            "bits_initial": color_bits(q),
            "bits_color": color_bits(color_space_size),
            "check": (None if type(bandwidth) is LocalModel
                      else bandwidth.check),
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
            "degrees": compiled.degrees,
        }

    def _prepare_arrays(self, programs, out_earlier, out_later):
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
        if np is None or len(programs) < arrays.MIN_BATCH:
            return None
        if not any(
            len(out_earlier[i]) * programs[i].p >= arrays.MIN_TALLY
            or len(out_later[i]) >= arrays.MIN_TALLY
            for i in range(len(programs))
        ):
            return None
        for program in programs:
            colors = program.color_list
            if colors and not (-arrays.MAX_COLOR <= min(colors)
                               and max(colors) <= arrays.MAX_COLOR):
                return None
        self.backend = "numpy"
        return {
            "np": np,
            "pool": [None] * len(programs),
            "finals": np.full(len(programs), -1, dtype=np.int64),
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
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
        q = columns["q"]
        if round_number <= q + 1:
            return self._step_phase1(round_number - 2, columns)
        return self._step_phase2(2 * q + 1 - round_number, columns)

    def _step_phase1(self, color_class: int, columns) -> KernelRound:
        deciders = columns["by_class"].get(color_class, ())
        messages = 0
        bits = 0
        max_bits = 0
        envelopes = 0
        if deciders:
            programs = columns["programs"]
            order = columns["order"]
            out_earlier = columns["out_earlier"]
            sublists = columns["sublists"]
            kdicts = columns["kdicts"]
            work = columns["work"]
            degrees = columns["degrees"]
            bits_color = columns["bits_color"]
            check_fanout = columns["check_fanout"]
            state = columns["arrays"]
        for i in deciders:
            program = programs[i]
            defect = program.defect_fn
            earlier = out_earlier[i]
            # Each earlier sub-list holds at most p colors, so
            # len(earlier) * p bounds the fold size; only pay for the
            # exact sum once that cheap bound clears the threshold.
            total = 0
            if state is not None and earlier \
                    and len(earlier) * program.p >= arrays.MIN_TALLY:
                total = sum(len(sublists[j]) for j in earlier)
            if total >= arrays.MIN_TALLY and earlier \
                    and state is not None:
                # Batched k_v fold: concatenate the earlier sub-lists
                # from the int64 pool (each converted at most once) and
                # tally them against the node's color list in C.
                np = state["np"]
                pool = state["pool"]
                rows = []
                for j in earlier:
                    row = pool[j]
                    if row is None:
                        sub_j = sublists[j]
                        row = pool[j] = np.fromiter(
                            sub_j, np.int64, len(sub_j)
                        )
                    rows.append(row)
                vals = np.concatenate(rows)
                clist = program.color_list
                list_np = np.fromiter(clist, np.int64, len(clist))
                candidates, inverse = np.unique(
                    list_np, return_inverse=True
                )
                counts = arrays.membership_counts(np, vals, candidates)
                k = dict(zip(clist, counts[inverse].tolist()))
                lw = total
            else:
                k = {color: 0 for color in program.color_list}
                lw = 0
                for j in earlier:
                    for color in sublists[j]:
                        lw += 1
                        if color in k:
                            k[color] += 1
            ranked = sorted(
                program.color_list,
                key=lambda color: (-(defect[color] - k[color]), color),
            )
            size = len(program.color_list)
            lw += size * max(1, (size - 1).bit_length())
            sub = tuple(ranked[:program.p])
            sublists[i] = sub
            kdicts[i] = k
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
        return KernelRound(
            active=columns["remaining"],
            messages=messages,
            bits=bits,
            max_message_bits=max_bits,
            broadcasts=envelopes,
        )

    def _step_phase2(self, color_class: int, columns) -> KernelRound:
        deciders = columns["by_class"].get(color_class, ())
        messages = 0
        if deciders:
            programs = columns["programs"]
            order = columns["order"]
            out_later = columns["out_later"]
            recv_earlier = columns["recv_earlier"]
            sublists = columns["sublists"]
            kdicts = columns["kdicts"]
            rcounts = columns["rcounts"]
            finals = columns["finals"]
            work = columns["work"]
            bits_color = columns["bits_color"]
            check = columns["check"]
            state = columns["arrays"]
        for i in deciders:
            program = programs[i]
            k = kdicts[i]
            defect = program.defect_fn
            later = out_later[i]
            if state is not None and len(later) >= arrays.MIN_TALLY:
                # Batched r_v tally: gather the later out-neighbors'
                # committed finals from the int64 mirror and count them
                # against the color list; only seen colors enter rc,
                # matching the Python dict's contents exactly.
                np = state["np"]
                row_np = np.fromiter(later, np.int64, len(later))
                committed = state["finals"][row_np]
                clist = program.color_list
                candidates = np.unique(
                    np.fromiter(clist, np.int64, len(clist))
                )
                tallies = arrays.membership_counts(
                    np, committed, candidates
                )
                rc = {
                    color: count
                    for color, count in zip(candidates.tolist(),
                                            tallies.tolist())
                    if count
                }
                lw = len(later)
            else:
                rc = {}
                lw = 0
                for j in later:
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
                r = {color: 0 for color in program.color_list}
                r.update(rc)
                raise AlgorithmFailure(
                    f"node {program.node!r}: no color in S_v = "
                    f"{sublists[i]} satisfies Eq. (5); k={k} r={r} -- "
                    f"Eq. (2) must have been violated"
                )
            finals[i] = chosen
            if state is not None:
                state["finals"][i] = chosen
            rcounts[i] = rc
            work[i] += lw
            receivers = recv_earlier[i]
            if receivers:
                if check is not None:
                    sender = order[i]
                    for j in receivers:
                        check(Message(
                            sender, order[j], _TAG_FINAL, chosen, bits_color
                        ))
                messages += len(receivers)
        remaining = columns["remaining"] - len(deciders)
        columns["remaining"] = remaining
        bits_color = columns["bits_color"]
        return KernelRound(
            active=remaining,
            messages=messages,
            bits=messages * bits_color,
            max_message_bits=bits_color if messages else 0,
        )

    def finalize(self, columns, programs) -> None:
        sublists = columns["sublists"]
        kdicts = columns["kdicts"]
        rcounts = columns["rcounts"]
        finals = columns["finals"]
        work = columns["work"]
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
