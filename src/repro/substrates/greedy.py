"""Greedy coloring algorithms: sequential baselines and distributed sweeps.

Three roles in the reproduction:

* sequential greedy algorithms are the textbook baselines the paper's
  introduction cites (greedy ``(Delta+1)``-coloring, the d-defective
  ``O(theta * Delta / d)``-coloring of the bounded-neighborhood-
  independence discussion, arbdefective greedy);
* :func:`greedy_arbdefective_sweep` is the distributed "process color
  classes in order" solver -- by weighted pigeonhole it solves *any* list
  arbdefective instance with slack above 1 in O(q) rounds, and serves as
  the universal correct fallback at the base of the Section 4 recursion;
* :func:`greedy_color_reduction` is the standard one-color-per-round
  reduction that turns Linial's O(Delta^2) colors into ``Delta + 1``.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

from ..coloring.defects import first_fit
from ..coloring.instance import ArbdefectiveInstance
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
    broadcast_round,
    check_broadcasts,
    fanout_totals,
    register_kernel,
)
from ..sim.message import Message, color_bits, intern_broadcast
from ..sim.metrics import CostLedger, ensure_ledger
from ..sim.network import Network
from ..sim.node import NodeProgram, RoundContext
from ..sim.scheduler import run_columns

Node = Hashable
Color = int


# ----------------------------------------------------------------------
# Sequential baselines
# ----------------------------------------------------------------------
def sequential_greedy_coloring(network: Network,
                               order: Optional[Sequence[Node]] = None
                               ) -> Dict[Node, Color]:
    """The sequential greedy ``(Delta + 1)``-coloring."""
    order = list(order) if order is not None else list(network.nodes)
    colors: Dict[Node, Color] = {}
    for node in order:
        used = {
            colors[neighbor]
            for neighbor in network.neighbors(node)
            if neighbor in colors
        }
        color = 0
        while color in used:
            color += 1
        colors[node] = color
    return colors


def sequential_greedy_defective(network: Network, num_colors: int,
                                order: Optional[Sequence[Node]] = None
                                ) -> Dict[Node, Color]:
    """Greedy defective coloring: pick the color minimizing conflicts so far.

    On a graph of neighborhood independence ``theta`` this is the greedy
    algorithm of the paper's introduction: each node has at most
    ``floor(Delta / num_colors)`` *earlier* same-colored neighbors, and by
    Claim 4.1 at most ``(2 * floor(Delta/num_colors) + 1) * theta``
    same-colored neighbors overall.
    """
    if num_colors < 1:
        raise InstanceError("need at least one color")
    order = list(order) if order is not None else list(network.nodes)
    colors: Dict[Node, Color] = {}
    for node in order:
        counts = [0] * num_colors
        for neighbor in network.neighbors(node):
            if neighbor in colors:
                counts[colors[neighbor]] += 1
        colors[node] = min(range(num_colors), key=lambda c: (counts[c], c))
    return colors


def sequential_greedy_arbdefective(network: Network, num_colors: int,
                                   order: Optional[Sequence[Node]] = None
                                   ) -> Tuple[Dict[Node, Color],
                                              Dict[Node, Tuple[Node, ...]]]:
    """Greedy arbdefective coloring with the towards-earlier orientation.

    Returns ``(colors, orientation)`` where each node's monochromatic
    out-neighbors are the *earlier* same-colored neighbors; their count is
    at most ``floor(deg(v) / num_colors)``, matching the classic
    ``ceil((Delta+1)/(d+1))``-color greedy arbdefective bound.
    """
    colors = sequential_greedy_defective(network, num_colors, order)
    position = {
        node: index
        for index, node in enumerate(
            order if order is not None else list(network.nodes)
        )
    }
    orientation = {
        node: tuple(
            neighbor
            for neighbor in network.neighbors(node)
            if colors[neighbor] == colors[node]
            and position[neighbor] < position[node]
        )
        for node in network
    }
    return colors, orientation


def lovasz_defective_partition(network: Network, num_classes: int,
                               seed: int = 0,
                               max_moves: Optional[int] = None
                               ) -> Dict[Node, Color]:
    """The [Lov66] local-search defective partition.

    Every graph has a partition into ``k`` classes in which each node has
    at most ``floor(deg(v) / k)`` same-class neighbors: start from any
    partition and repeatedly move a violating node to its least-conflicted
    class -- each move strictly decreases the number of monochromatic
    edges, so the search terminates.  This is the ``d``-defective
    ``ceil((Delta+1)/(d+1))``-coloring existence result the paper cites,
    and doubles as a ground-truth partition source for experiments.
    """
    if num_classes < 1:
        raise InstanceError("need at least one class")
    rng = _random.Random(seed)
    colors: Dict[Node, Color] = {
        node: rng.randrange(num_classes) for node in network
    }
    budget = max_moves if max_moves is not None else (
        10 * network.edge_count() * num_classes + 10 * len(network) + 10
    )
    moves = 0
    while moves <= budget:
        moved = False
        for node in network:
            counts = [0] * num_classes
            for neighbor in network.neighbors(node):
                counts[colors[neighbor]] += 1
            best = min(range(num_classes), key=lambda c: (counts[c], c))
            threshold = network.degree(node) // num_classes
            if counts[colors[node]] > threshold and (
                    counts[best] < counts[colors[node]]):
                colors[node] = best
                moved = True
                moves += 1
        if not moved:
            break
    return colors


# ----------------------------------------------------------------------
# Distributed greedy sweep for list arbdefective instances
# ----------------------------------------------------------------------
class _GreedySweepProgram(NodeProgram):
    """Color class ``c`` decides in round ``c + 2`` (after the ID round)."""

    _TAG_INITIAL = "sweep-initial"
    _TAG_FINAL = "sweep-final"

    def __init__(self, node: Node, initial_color: Color, q: int,
                 color_list: Tuple[Color, ...],
                 defect_fn: Mapping[Color, int],
                 color_space_size: int):
        self.node = node
        self.initial_color = initial_color
        self.q = q
        self.color_list = color_list
        self.defect_fn = dict(defect_fn)
        self.color_space_size = color_space_size
        self.neighbor_initial: Dict[Node, Color] = {}
        self.decided: Dict[Node, Color] = {}
        self.final_color: Optional[Color] = None
        self.mono_out: Tuple[Node, ...] = ()

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round_number == 1:
            ctx.broadcast(
                self._TAG_INITIAL, self.initial_color, bits=color_bits(self.q)
            )
            return
        for sender, payload in ctx.received(self._TAG_INITIAL).items():
            self.neighbor_initial[sender] = payload
        for sender, payload in ctx.received(self._TAG_FINAL).items():
            self.decided[sender] = payload
        if ctx.round_number != self.initial_color + 2:
            return
        counts = {color: 0 for color in self.color_list}
        for neighbor_color in self.decided.values():
            if neighbor_color in counts:
                counts[neighbor_color] += 1
        chosen, _ = first_fit(self.color_list, counts, self.defect_fn)
        if chosen is None:
            raise AlgorithmFailure(
                f"node {self.node!r}: greedy sweep found no feasible color; "
                f"the instance's slack must be at most 1"
            )
        self.final_color = chosen
        self.mono_out = tuple(
            neighbor
            for neighbor, neighbor_color in self.decided.items()
            if neighbor_color == chosen
        )
        for neighbor in ctx.neighbors:
            if self.neighbor_initial[neighbor] > self.initial_color:
                ctx.send(
                    neighbor,
                    self._TAG_FINAL,
                    chosen,
                    bits=color_bits(self.color_space_size),
                )
        ctx.halt()

    def output(self):
        return (self.final_color, self.mono_out)


class _GreedySweepKernel(RoundKernel):
    """Array-at-a-time greedy sweep: one column pass per color class.

    The sweep is homogeneous in everything but each node's list/defect
    data: round 1 is one uniform broadcast, and in round ``c + 2``
    exactly the class-``c`` nodes decide from their lower-class
    neighbors' finals.  The kernel buckets nodes by class once, sorts
    each node's lower neighbors into the order the per-node ``decided``
    dict would acquire them (class ascending, then sender processing
    order), and then each round touches only that round's deciders --
    idle "waiting" classes cost nothing, where the reference engine
    still dispatches an ``on_round`` no-op for every active node.

    ``greedy_arbdefective_sweep`` reaches :meth:`from_columns` through
    the scheduler's columns entry.  Declines negative classes (which
    never decide; the reference engine keeps its run-forever
    semantics).  ``finalize`` fills ``ColumnInputs.outputs`` with each
    node's ``(final_color, mono_out)`` output.
    """

    def prepare(self, compiled, inputs, bandwidth):
        data = inputs.data
        return self.from_columns(compiled, data["initial"], data["q"],
                                 data["color_space_size"], data["lists"],
                                 bandwidth)

    def from_columns(self, compiled, initial, q, color_space_size, lists,
                     bandwidth):
        """Column state for a sweep from the dense-id ``initial`` classes.

        ``lists`` holds the instance's list columns ``(indptr, colors,
        defects)`` in ``compiled.order``.  Returns ``None`` (decline)
        when a class is negative.
        """
        if any(own < 0 for own in initial):
            return None
        indptr = compiled.indptr
        indices = compiled.indices
        lower = []
        higher = []
        by_class: Dict[int, list] = {}
        for i, own in enumerate(initial):
            row = indices[indptr[i]:indptr[i + 1]]
            # ``decided`` fills class-ascending (class c's finals arrive
            # in round c + 3), then in sender processing order within a
            # round -- i.e. dense-id ascending.
            lower.append(sorted(
                (j for j in row if initial[j] < own),
                key=lambda j: (initial[j], j),
            ))
            higher.append(tuple(j for j in row if initial[j] > own))
            by_class.setdefault(own, []).append(i)
        total_copies, envelopes = fanout_totals(compiled)
        n = compiled.n
        return {
            "order": compiled.order,
            "initial": initial,
            "lists": lists,
            "lower": lower,
            "higher": higher,
            "by_class": by_class,
            "finals": [None] * n,
            "mono": [()] * n,
            "remaining": n,
            "total_copies": total_copies,
            "envelopes": envelopes,
            "bits_initial": color_bits(q),
            "bits_final": color_bits(color_space_size),
            "check": (None if type(bandwidth) is LocalModel
                      else bandwidth.check),
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
            "degrees": compiled.degrees,
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        if round_number == 1:
            return broadcast_round(columns, _GreedySweepProgram._TAG_INITIAL,
                                   columns["initial"], columns["bits_initial"],
                                   columns["remaining"])
        deciders = columns["by_class"].get(round_number - 2, ())
        finals = columns["finals"]
        if deciders:
            order = columns["order"]
            lower = columns["lower"]
            higher = columns["higher"]
            list_ptr, list_colors, list_defects = columns["lists"]
            mono = columns["mono"]
            check = columns["check"]
            bits_final = columns["bits_final"]
        messages = 0
        for i in deciders:
            row = lower[i]
            lo = list_ptr[i]
            hi = list_ptr[i + 1]
            clist = list_colors[lo:hi]
            counts = dict.fromkeys(clist, 0)
            for j in row:
                neighbor_final = finals[j]
                if neighbor_final in counts:
                    counts[neighbor_final] += 1
            chosen, _ = first_fit(clist, counts,
                                  dict(zip(clist, list_defects[lo:hi])))
            if chosen is None:
                raise AlgorithmFailure(
                    f"node {order[i]!r}: greedy sweep found no "
                    f"feasible color; the instance's slack must be at "
                    f"most 1"
                )
            finals[i] = chosen
            mono[i] = tuple(order[j] for j in row if finals[j] == chosen)
            if check is not None:
                sender = order[i]
                for j in higher[i]:
                    check(Message(
                        sender, order[j],
                        _GreedySweepProgram._TAG_FINAL, chosen, bits_final,
                    ))
            messages += len(higher[i])
        remaining = columns["remaining"] - len(deciders)
        columns["remaining"] = remaining
        bits_final = columns["bits_final"]
        return KernelRound(
            active=remaining,
            messages=messages,
            bits=messages * bits_final,
            max_message_bits=bits_final if messages else 0,
        )

    def finalize(self, columns, inputs) -> None:
        inputs.outputs = list(zip(columns["finals"], columns["mono"]))


register_kernel(_GreedySweepProgram, _GreedySweepKernel)


def greedy_arbdefective_sweep(instance: ArbdefectiveInstance,
                              initial_colors: Mapping[Node, Color],
                              q: int,
                              ledger: Optional[CostLedger] = None,
                              bandwidth: Optional[BandwidthModel] = None,
                              check: bool = True) -> ColoringResult:
    """Solve any ``P_A`` instance with slack > 1 by one sweep over classes.

    When node ``v`` decides, at most ``deg(v)`` neighbors have committed,
    and ``sum_x (d_v(x)+1) > deg(v)`` guarantees (weighted pigeonhole) a
    color whose committed conflicts stay within its defect.  Monochromatic
    edges are oriented towards the earlier-deciding endpoint, so later
    decisions never hurt ``v``.  Rounds: ``q + 1``.
    """
    ledger = ensure_ledger(ledger)
    network = instance.network
    if check:
        for node in instance.network:
            color = initial_colors.get(node)
            if color is None or not 0 <= color < q:
                raise InstanceError(
                    f"node {node!r}: initial color {color!r} outside 0..{q - 1}"
                )
            if instance.weight(node) <= instance.network.degree(node):
                raise InfeasibleInstanceError(
                    node,
                    f"greedy sweep needs weight > deg: "
                    f"{instance.weight(node)} <= {instance.network.degree(node)}",
                )
        for u, v in instance.network.edges():
            if initial_colors[u] == initial_colors[v]:
                raise InstanceError(
                    f"initial coloring is not proper: edge {u!r}-{v!r}"
                )
    order = network.compile().order
    initial = [initial_colors[node] for node in order]
    color_space_size = instance.color_space_size
    lists = (instance.list_indptr, instance.list_colors,
             instance.list_defects)

    def build_programs():
        ptr, colors, defects = lists
        return {
            node: _GreedySweepProgram(
                node=node,
                initial_color=initial[i],
                q=q,
                color_list=tuple(colors[ptr[i]:ptr[i + 1]]),
                defect_fn=dict(zip(colors[ptr[i]:ptr[i + 1]],
                                   defects[ptr[i]:ptr[i + 1]])),
                color_space_size=color_space_size,
            )
            for i, node in enumerate(order)
        }

    # Columns first: on the vectorized engine the kernel runs from the
    # instance's list columns; every other engine, and any fallback,
    # builds the programs.
    inputs = ColumnInputs(
        _GreedySweepProgram,
        {"initial": initial, "q": q, "color_space_size": color_space_size,
         "lists": lists},
        build_programs,
    )
    with ledger.phase("greedy-sweep"):
        outputs, _ = run_columns(network, inputs, bandwidth=bandwidth,
                                 ledger=ledger)
    colors = {node: value[0] for node, value in zip(order, outputs)}
    orientation = {node: value[1] for node, value in zip(order, outputs)}
    return ColoringResult(colors=colors, orientation=orientation, ledger=ledger)


# ----------------------------------------------------------------------
# Color reduction
# ----------------------------------------------------------------------
class _ColorReductionProgram(NodeProgram):
    _TAG = "reduce-color"

    def __init__(self, node: Node, color: Color, q: int, target: int):
        self.node = node
        self.color = color
        self.q = q
        self.target = target
        self.neighbor_colors: Dict[Node, Color] = {}

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round_number == 1:
            ctx.broadcast(self._TAG, self.color, bits=color_bits(self.q))
            return
        for sender, payload in ctx.received(self._TAG).items():
            self.neighbor_colors[sender] = payload
        # Round t >= 2 handles old color q - t + 1.
        active_color = self.q - ctx.round_number + 1
        if active_color < self.target:
            ctx.halt()
            return
        if self.color == active_color:
            used = set(self.neighbor_colors.values())
            new_color = 0
            while new_color in used:
                new_color += 1
            if new_color >= self.target:
                raise AlgorithmFailure(
                    f"node {self.node!r}: no free color below {self.target}; "
                    f"target must be at least Delta + 1"
                )
            self.color = new_color
            ctx.broadcast(self._TAG, new_color, bits=color_bits(self.q))

    def output(self) -> Color:
        return self.color


class _ColorReductionKernel(RoundKernel):
    """One-color-per-round reduction that decides eagerly, then replays
    its rounds.

    Round ``t`` retires old color ``q - t + 1``: its nodes read the
    colors left by the classes before (same-class deciders read each
    other's *old* colors -- the reference's stale view, observable on
    improper inputs), and an undecided node holds a color of at least
    ``target``, blocking no free color below it.  So
    :meth:`from_columns` decides every class before round 1, in class
    order ``q-1 ... target``, ascending dense ids within a class, each
    class reading the column before writing to it:

    * with the array backend on, ``n >= arrays.MIN_BATCH``, plain-int
      colors within ``MAX_COLOR`` and a ``target + 1`` presence row
      within ``MAX_MATCH_ELEMENTS``: on an int64 copy, classes cut
      from one stable sort; a class of at least ``MIN_BATCH`` deciders
      (the ring's ``n / q``) in one batched mex
      (:func:`~repro.sim.arrays.mex_below_rows`, chunked by the table
      cap and ``REPRO_SIM_CHUNK``), a narrower one (a dense G(n, p)'s
      two or three) by :func:`~repro.sim.arrays.first_fit_rows`;
    * otherwise in a loop over a list copy, one set per decider.

    Deciding stops at the first class with a decider that finds no free
    color.  Every round's charges are known up front, so :meth:`step`
    looks its round up; with a bandwidth model other than LOCAL it
    replays the round's CONGEST checks in reference order (round 1 over
    the caller's column, which is never written), and the failing round
    raises its :class:`AlgorithmFailure` after the checks of the
    deciders before it: ledger at failure, exception order and text
    match the reference engine, and rounds past ``max_rounds`` never
    run.  ``finalize`` fills ``ColumnInputs.outputs`` with the column.
    """

    def prepare(self, compiled, inputs, bandwidth):
        data = inputs.data
        return self.from_columns(compiled, data["colors"], data["q"],
                                 data["target"], bandwidth)

    def from_columns(self, compiled, colors, q, target, bandwidth):
        """Decisions and per-round charges for a reduction of the
        dense-id ``colors`` (any sequence; an int64 ndarray is used
        without a round trip through Python ints)."""
        decided = self._decide_arrays(compiled, colors, q, target)
        if decided is None:
            decided = self._decide_loop(compiled, colors, q, target)
        column, classes, failed = decided
        n = compiled.n
        bits = color_bits(q)
        copies, envelopes = fanout_totals(compiled)
        plan = {1: KernelRound(n, copies, copies * bits,
                               bits if copies else 0, envelopes),
                max(2, q - target + 2): KernelRound(0)}
        for color, (_, messages, broadcasts) in classes.items():
            plan[q - color + 1] = KernelRound(
                n, messages, messages * bits, bits if messages else 0,
                broadcasts)
        return {
            "order": compiled.order,
            "degrees": compiled.degrees,
            "initial": colors,
            "colors": column,
            "classes": classes,
            "plan": plan,
            "idle": KernelRound(n),
            "q": q,
            "target": target,
            "bits": bits,
            "failed": failed,
            "failing": (None if failed is None
                        else q - min(classes) + 1),
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
        }

    def _decide_arrays(self, compiled, colors, q, target):
        """``(column, classes, failed)`` on NumPy, or ``None`` to decline.

        ``classes`` maps each decided color to its deciders (an int64
        ndarray, ascending), the class's messages and broadcasts;
        ``failed`` is the dense id that finds no free color, or ``None``.
        The classes of ``target..q-1`` are cut once from a stable sort
        (linear: a radix sort of uint16 keys whenever the color range
        fits).  The column is always a copy: the caller's is never
        written.
        """
        np = arrays.get_numpy()
        if (np is None or compiled.n < arrays.MIN_BATCH
                or not 0 < target < arrays.MAX_MATCH_ELEMENTS):
            return None
        mirror = arrays.int64_column(np, colors)
        if mirror is None:
            return None
        if mirror is colors:
            mirror = colors.copy()
        low = int(mirror.min())
        high = int(mirror.max())
        if low < -arrays.MAX_COLOR or high > arrays.MAX_COLOR:
            return None
        self.backend = "numpy"
        indptr, indices, degrees = compiled.numpy_views()
        keys = mirror
        if high - low <= 0xFFFF:
            # uint16 keys take NumPy's linear radix sort.
            keys = np.empty(mirror.shape[0], dtype=np.uint16)
            np.subtract(mirror, low, out=keys, casting="unsafe")
        perm = np.argsort(keys, kind="stable")
        del keys
        ordered = mirror[perm]
        lo = int(np.searchsorted(ordered, target, "left"))
        hi = int(np.searchsorted(ordered, q - 1, "right"))
        classes = {}
        if hi <= lo:
            return mirror, classes, None
        # The slice is sorted and its values are >= target: a class
        # starts wherever the color moves.
        segment = ordered[lo:hi]
        starts = np.flatnonzero(np.diff(segment, prepend=target - 1))
        values = segment[starts].tolist()
        bounds = starts.tolist() + [hi - lo]
        ids = perm[lo:hi]
        del perm, ordered, segment
        sending = degrees[ids]
        messages = np.add.reduceat(sending, starts).tolist()
        silent = np.add.reduceat(sending == 0, starts).tolist()
        del sending
        rows = arrays.MAX_MATCH_ELEMENTS // (target + 1)
        chunk = arrays.chunk_size()
        if chunk:
            rows = min(rows, chunk)
        # Negative colors turn huge, so the row mex never sees them.
        unsigned = mirror.view(np.uint64)
        seen = np.empty(compiled.max_degree() + 1, dtype=bool)
        for k in range(len(values) - 1, -1, -1):
            deciders = ids[bounds[k]:bounds[k + 1]]
            count = deciders.shape[0]
            if count >= arrays.MIN_BATCH:
                new_colors = np.concatenate([
                    arrays.mex_below_rows(np, indptr, indices, mirror,
                                          deciders[a:b], target)
                    for a, b in arrays.iter_chunks(count, rows)
                ])
            else:
                new_colors = np.empty(count, dtype=np.int64)
                arrays.first_fit_rows(np, compiled.indptr, indices,
                                      unsigned, deciders.tolist(),
                                      new_colors, seen)
            mirror[deciders] = new_colors
            classes[values[k]] = (deciders, messages[k], count - silent[k])
            if new_colors.max() >= target:
                return mirror, classes, int(
                    deciders[np.argmax(new_colors >= target)])
        return mirror, classes, None

    @staticmethod
    def _decide_loop(compiled, colors, q, target):
        """:meth:`_decide_arrays`'s result over a list copy of
        ``colors``, deciders as lists."""
        column = arrays.as_list(colors)
        by_color: Dict[int, list] = {}
        for i, color in enumerate(column):
            by_color.setdefault(color, []).append(i)
        indices = compiled.indices
        indptr = compiled.indptr
        degrees = compiled.degrees
        classes = {}
        # One lookup per round the run steps: any key equal to the
        # retired color (a bool, a NumPy int) acts, as in the reference.
        for color in range(q - 1, target - 1, -1):
            deciders = by_color.get(color)
            if not deciders:
                continue
            new_colors = []
            for i in deciders:
                used = {column[j] for j in indices[indptr[i]:indptr[i + 1]]}
                new_color = 0
                while new_color in used:
                    new_color += 1
                new_colors.append(new_color)
            sending = [degrees[i] for i in deciders]
            classes[color] = (deciders, sum(sending),
                              len(sending) - sending.count(0))
            for i, new_color in zip(deciders, new_colors):
                column[i] = new_color
            for i, new_color in zip(deciders, new_colors):
                if new_color >= target:
                    return column, classes, i
        return column, classes, None

    def step(self, round_number, columns, inboxes) -> KernelRound:
        if (columns["check_fanout"] is not None
                or round_number == columns["failing"]):
            self._replay(round_number, columns)
        return columns["plan"].get(round_number, columns["idle"])

    @staticmethod
    def _replay(round_number, columns) -> None:
        """Round ``round_number``'s CONGEST checks in reference order,
        and its :class:`AlgorithmFailure` if it is the failing round."""
        check_fanout = columns["check_fanout"]
        order = columns["order"]
        degrees = columns["degrees"]
        bits = columns["bits"]
        tag = _ColorReductionProgram._TAG
        if round_number == 1:
            check_broadcasts(check_fanout, order, degrees, tag,
                             columns["initial"], bits)
            return
        entry = columns["classes"].get(columns["q"] - round_number + 1)
        if entry is None:
            return
        column = columns["colors"]
        # Python ints from either column: payloads are compared by repr.
        read = getattr(column, "item", column.__getitem__)
        for i in arrays.as_list(entry[0]):
            if i == columns["failed"]:
                raise AlgorithmFailure(
                    f"node {order[i]!r}: no free color below "
                    f"{columns['target']}; "
                    f"target must be at least Delta + 1"
                )
            degree = degrees[i]
            if degree and check_fanout is not None:
                check_fanout(intern_broadcast(order[i], tag, read(i), bits),
                             degree)

    def finalize(self, columns, inputs) -> None:
        # The column itself (an int64 ndarray on the NumPy path).
        inputs.outputs = columns["colors"]


register_kernel(_ColorReductionProgram, _ColorReductionKernel)


def greedy_color_reduction(network: Network,
                           colors: Union[Mapping[Node, Color],
                                         Sequence[Color]],
                           q: int,
                           target: int,
                           ledger: Optional[CostLedger] = None,
                           bandwidth: Optional[BandwidthModel] = None
                           ):
    """Reduce a proper ``q``-coloring to ``target`` colors, one per round.

    ``target`` must be at least ``Delta + 1``.  Rounds: ``q - target + 1``.
    Combined with Linial this yields the classic O(Delta^2 + log* n)
    ``(Delta + 1)``-coloring baseline.

    ``colors`` is a ``{node: color}`` mapping, answered with a
    ``{node: color}`` dict, or a dense-id column (colors in
    ``network.compile().order``; an int64 ndarray is used as is),
    answered with the dense-id output column -- an int64 ndarray when
    the NumPy kernel ran, a list otherwise.  The column form builds no
    per-node object on the vectorized engine.
    """
    if target < network.raw_max_degree() + 1:
        raise InstanceError("target must be at least Delta + 1")
    ledger = ensure_ledger(ledger)
    order = network.compile().order
    mapped = isinstance(colors, Mapping)
    column = [colors[node] for node in order] if mapped else colors
    if q <= target:  # nothing to reduce, zero rounds
        return dict(colors) if mapped else arrays.as_list(column)

    def build_programs():
        values = arrays.as_list(column)
        return {
            node: _ColorReductionProgram(node, values[i], q, target)
            for i, node in enumerate(order)
        }

    # Columns first: on the vectorized engine the kernel runs from the
    # dense-id color column; every other engine, and any fallback,
    # builds the programs.
    inputs = ColumnInputs(
        _ColorReductionProgram,
        {"colors": column, "q": q, "target": target},
        build_programs,
    )
    with ledger.phase("color-reduction"):
        outputs, _ = run_columns(
            network, inputs, bandwidth=bandwidth, ledger=ledger
        )
    return dict(zip(order, arrays.as_list(outputs))) if mapped else outputs

