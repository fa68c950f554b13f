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
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

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
    fanout_totals,
    register_kernel,
)
from ..sim.message import Message, color_bits, intern_broadcast
from ..sim.sharded import ShardSpec, register_sharded
from ..sim.metrics import CostLedger, ensure_ledger
from ..sim.network import Network
from ..sim.node import NodeProgram, RoundContext
from ..sim.scheduler import run_columns, run_protocol

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
        chosen = None
        for color in sorted(self.color_list):
            if counts[color] <= self.defect_fn[color]:
                chosen = color
                break
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
    idle "waiting" classes cost nothing, where the per-node engines
    still dispatch an ``on_round`` no-op for every active node.

    Declines non-uniform ``q``/``color_space_size``, mid-run state, and
    negative classes (which never decide; the fast engine reproduces
    the reference's run-forever semantics).  ``finalize`` restores
    ``final_color`` and ``mono_out``; the transient ``neighbor_initial``
    / ``decided`` ingest dicts are not reconstructed.
    """

    def prepare(self, compiled, programs, bandwidth):
        first = programs[0]
        q = first.q
        color_space_size = first.color_space_size
        for program in programs:
            if (program.q != q
                    or program.color_space_size != color_space_size
                    or program.final_color is not None
                    or program.neighbor_initial or program.decided
                    or program.initial_color < 0):
                return None
        order = compiled.order
        indptr = compiled.indptr
        indices = compiled.indices
        initial = [program.initial_color for program in programs]
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
        sorted_lists = [sorted(p.color_list) for p in programs]
        state = self._prepare_arrays(programs, sorted_lists, lower)
        return {
            "programs": programs,
            "order": order,
            "initial": initial,
            "sorted_lists": sorted_lists,
            "arrays": state,
            "lower": lower,
            "higher": higher,
            "by_class": by_class,
            "finals": [None] * len(programs),
            "mono": [()] * len(programs),
            "remaining": len(programs),
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

    def _prepare_arrays(self, programs, sorted_lists, lower):
        """NumPy column state for the tally path, or ``None`` to decline.

        The array path keeps an int64 mirror of the finals column (``-1``
        marks undecided) so a decider with a long lower-neighbor row can
        tally committed colors with one gather + sort-based count instead
        of a Python dict loop.  Small populations, color values beyond
        int64, and topologies where every lower row stays under
        ``MIN_TALLY`` (the mirror upkeep would never pay off) keep the
        pure-Python columns.
        """
        np = arrays.get_numpy()
        if np is None or len(programs) < arrays.MIN_BATCH:
            return None
        if not any(len(row) >= arrays.MIN_TALLY for row in lower):
            return None
        for colors in sorted_lists:
            if colors and not (-arrays.MAX_COLOR <= colors[0]
                               and colors[-1] <= arrays.MAX_COLOR):
                return None
        self.backend = "numpy"
        return {
            "np": np,
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
                                order[i], _GreedySweepProgram._TAG_INITIAL,
                                initial[i], bits,
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
        deciders = columns["by_class"].get(round_number - 2, ())
        finals = columns["finals"]
        if deciders:
            programs = columns["programs"]
            order = columns["order"]
            lower = columns["lower"]
            higher = columns["higher"]
            sorted_lists = columns["sorted_lists"]
            mono = columns["mono"]
            check = columns["check"]
            bits_final = columns["bits_final"]
        state = columns["arrays"]
        messages = 0
        for i in deciders:
            program = programs[i]
            row = lower[i]
            if state is not None and len(row) >= arrays.MIN_TALLY:
                # Long lower row: gather the committed finals once and
                # tally against the sorted candidate list in C.  Probing
                # the unique ascending candidates picks the same color as
                # the Python scan over the (possibly duplicated) list.
                np = state["np"]
                row_np = np.fromiter(row, np.int64, len(row))
                committed = state["finals"][row_np]
                slist = sorted_lists[i]
                candidates = np.unique(
                    np.fromiter(slist, np.int64, len(slist))
                )
                tallies = arrays.membership_counts(np, committed, candidates)
                chosen = None
                defect_fn = program.defect_fn
                for color, count in zip(candidates.tolist(),
                                        tallies.tolist()):
                    if count <= defect_fn[color]:
                        chosen = color
                        break
                mono_row = None if chosen is None else tuple(
                    order[j]
                    for j in row_np[committed == chosen].tolist()
                )
            else:
                counts = {color: 0 for color in program.color_list}
                for j in row:
                    neighbor_final = finals[j]
                    if neighbor_final in counts:
                        counts[neighbor_final] += 1
                chosen = None
                for color in sorted_lists[i]:
                    if counts[color] <= program.defect_fn[color]:
                        chosen = color
                        break
                mono_row = None if chosen is None else tuple(
                    order[j] for j in row if finals[j] == chosen
                )
            if chosen is None:
                raise AlgorithmFailure(
                    f"node {program.node!r}: greedy sweep found no "
                    f"feasible color; the instance's slack must be at "
                    f"most 1"
                )
            finals[i] = chosen
            if state is not None:
                state["finals"][i] = chosen
            mono[i] = mono_row
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

    def finalize(self, columns, programs) -> None:
        finals = columns["finals"]
        mono = columns["mono"]
        for i, program in enumerate(programs):
            program.final_color = finals[i]
            program.mono_out = mono[i]


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
    programs = {
        node: _GreedySweepProgram(
            node=node,
            initial_color=initial_colors[node],
            q=q,
            color_list=instance.lists[node],
            defect_fn=instance.defects[node],
            color_space_size=instance.color_space_size,
        )
        for node in instance.network
    }
    with ledger.phase("greedy-sweep"):
        outputs, _ = run_protocol(
            instance.network, programs, bandwidth=bandwidth, ledger=ledger
        )
    colors = {node: value[0] for node, value in outputs.items()}
    orientation = {node: value[1] for node, value in outputs.items()}
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


def _reduction_columns(programs) -> Optional[Tuple[list, int, int]]:
    """The one programs -> columns extractor of the color reduction.

    Returns ``(colors, q, target)`` with ``colors`` in program order, or
    ``None`` unless the population is a fresh uniform run: every
    program shares ``q`` and ``target`` and none has ingested neighbor
    colors yet (mid-run state).  The vectorized kernel's program
    adapter and the sharded spec both gate on it.
    """
    first = programs[0]
    q = first.q
    target = first.target
    colors = []
    for program in programs:
        if (program.q != q or program.target != target
                or program.neighbor_colors):
            return None
        colors.append(program.color)
    return colors, q, target


def _python_mex(read, row) -> int:
    """Smallest non-negative color absent from ``read(j)`` over ``row``."""
    used = {read(j) for j in row}
    new_color = 0
    while new_color in used:
        new_color += 1
    return new_color


class _ColorReductionKernel(RoundKernel):
    """Array-at-a-time one-color-per-round reduction.

    Round ``t`` retires old color ``q - t + 1``: only nodes *of that
    color* act, so the kernel buckets nodes by color once and each
    round touches one bucket -- the per-node engines dispatch an
    ``on_round`` ingest no-op to every other node, which on a
    ``q``-round reduction is almost all of the work.

    :meth:`from_columns` is the one columns constructor: the scheduler's
    columns entry calls it through ``prepare`` with a
    :class:`~repro.sim.kernels.ColumnInputs`, and the program-list
    ``prepare`` is an adapter that extracts the same columns
    (:func:`_reduction_columns`, declining non-uniform ``q``/``target``
    and mid-run state).

    With the NumPy backend an int64 color column is authoritative and a
    bucket whose deciders plus their gathered neighbors reach
    ``MIN_TALLY`` elements takes one batched mex
    (:func:`~repro.sim.arrays.mex_below_rows`); smaller buckets keep
    the per-decider set loop, reading the same column.  Recolorings
    computed this round are applied only at the round boundary: a
    node's broadcast is ingested by its neighbors one round later, so
    same-round deciders read each other's *old* colors (the reference's
    stale-view semantics, observable on improper inputs).  Failures and
    CONGEST fan-out checks are raised decider by decider in dense-id
    order after the round's mex values are known.  ``finalize`` restores
    ``color`` (or fills ``ColumnInputs.outputs``); the transient
    ``neighbor_colors`` view is not reconstructed.
    """

    def prepare(self, compiled, programs, bandwidth):
        if isinstance(programs, ColumnInputs):
            data = programs.data
            return self.from_columns(compiled, data["colors"], data["q"],
                                     data["target"], bandwidth)
        extracted = _reduction_columns(programs)
        if extracted is None:
            return None
        columns = self.from_columns(compiled, *extracted, bandwidth)
        columns["programs"] = programs
        return columns

    def from_columns(self, compiled, colors, q, target, bandwidth):
        """Column state for a reduction of the dense-id ``colors``."""
        colors = list(colors)
        state = self._prepare_arrays(compiled, colors, q, target)
        by_color: Dict[int, list] = {}
        if state is None:
            for i, color in enumerate(colors):
                by_color.setdefault(color, []).append(i)
        total_copies, envelopes = fanout_totals(compiled)
        return {
            # Failure messages name programs[i].node when the run came
            # from programs, the network node order[i] otherwise.
            "programs": None,
            "order": compiled.order,
            "degrees": compiled.degrees,
            # Deciders slice their CSR row on demand: each node decides
            # exactly once, so pre-materializing n row copies would only
            # double the topology's footprint at scale.
            "indices": compiled.indices,
            "indptr": compiled.indptr,
            "arrays": state,
            "colors": colors,
            "by_color": by_color,
            "q": q,
            "target": target,
            "bits": color_bits(q),
            "total_copies": total_copies,
            "envelopes": envelopes,
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
        }

    def _prepare_arrays(self, compiled, colors, q, target):
        """NumPy state for the whole-bucket mex, or ``None`` to decline.

        Engages when the backend is enabled, the population reaches
        ``MIN_BATCH``, every color is a plain ``int`` within
        ``MAX_COLOR`` and one presence-table row (``target + 1``
        cells) fits ``MAX_MATCH_ELEMENTS``.  Buckets of the deciding
        colors ``target..q-1`` are cut once from a stable sort, so each
        holds its dense ids ascending; ``rows`` bounds one batched mex
        call by the table cap and ``REPRO_SIM_CHUNK``.
        """
        np = arrays.get_numpy()
        if (np is None or compiled.n < arrays.MIN_BATCH
                or not 0 < target < arrays.MAX_MATCH_ELEMENTS
                or set(map(type, colors)) != {int}):
            return None
        try:
            mirror = np.array(colors, dtype=np.int64)
        except OverflowError:
            return None
        if (int(mirror.min()) < -arrays.MAX_COLOR
                or int(mirror.max()) > arrays.MAX_COLOR):
            return None
        indptr, indices, degrees = compiled.numpy_views()
        perm = np.argsort(mirror, kind="stable")
        ordered = mirror[perm]
        lo = int(np.searchsorted(ordered, target, "left"))
        hi = int(np.searchsorted(ordered, q - 1, "right"))
        values, starts = np.unique(ordered[lo:hi], return_index=True)
        bounds = starts.tolist() + [hi - lo]
        ids = perm[lo:hi]
        # Gathered elements per bucket: its deciders plus their rows.
        sizes = (np.add.reduceat(degrees[ids], starts).tolist()
                 if hi > lo else [])
        buckets = {
            color: (ids[bounds[k]:bounds[k + 1]],
                    bounds[k + 1] - bounds[k] + sizes[k])
            for k, color in enumerate(values.tolist())
        }
        rows = arrays.MAX_MATCH_ELEMENTS // (target + 1)
        chunk = arrays.chunk_size()
        self.backend = "numpy"
        return {
            "np": np,
            "colors": mirror,
            "buckets": buckets,
            "rows": min(rows, chunk) if chunk else rows,
            "indptr": indptr,
            "indices": indices,
            "degrees": degrees,
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        colors = columns["colors"]
        bits = columns["bits"]
        n = len(colors)
        if round_number == 1:
            check_fanout = columns["check_fanout"]
            if check_fanout is not None:
                order = columns["order"]
                for i, degree in enumerate(columns["degrees"]):
                    if degree:
                        check_fanout(
                            intern_broadcast(
                                order[i], _ColorReductionProgram._TAG,
                                colors[i], bits,
                            ),
                            degree,
                        )
            copies = columns["total_copies"]
            return KernelRound(
                active=n,
                messages=copies,
                bits=copies * bits,
                max_message_bits=bits if copies else 0,
                broadcasts=columns["envelopes"],
            )
        target = columns["target"]
        active_color = columns["q"] - round_number + 1
        if active_color < target:
            return KernelRound(active=0)
        state = columns["arrays"]
        if state is None:
            deciders = columns["by_color"].get(active_color)
            if not deciders:
                return KernelRound(active=n)
            store = colors
            read = colors.__getitem__
        else:
            bucket = state["buckets"].get(active_color)
            if bucket is None:
                return KernelRound(active=n)
            ids, gathered = bucket
            if gathered >= arrays.MIN_TALLY:
                return self._batched_round(columns, state, ids, n)
            deciders = ids.tolist()
            store = state["colors"]
            read = store.item
        indices = columns["indices"]
        indptr = columns["indptr"]
        degrees = columns["degrees"]
        degree_row = [degrees[i] for i in deciders]
        # A generator: each decider's mex is computed just before its
        # own checks, exactly as the per-node run interleaves them.
        new_colors = self._check_deciders(
            columns, deciders,
            (_python_mex(read, indices[indptr[i]:indptr[i + 1]])
             for i in deciders),
            degree_row,
        )
        for i, new_color in zip(deciders, new_colors):
            store[i] = new_color
        messages = sum(degree_row)
        return KernelRound(
            active=n,
            messages=messages,
            bits=messages * bits,
            max_message_bits=bits if messages else 0,
            broadcasts=len(degree_row) - degree_row.count(0),
        )

    def _batched_round(self, columns, state, ids, n) -> KernelRound:
        """One bucket's round through the batched mex, chunk by chunk."""
        np = state["np"]
        target = columns["target"]
        rows = state["rows"]
        mirror = state["colors"]
        new_colors = np.concatenate([
            arrays.mex_below_rows(np, state["indptr"], state["indices"],
                                  mirror, ids[lo:hi], target)
            for lo, hi in arrays.iter_chunks(ids.shape[0], rows)
        ])
        degree_row = state["degrees"][ids]
        if columns["check_fanout"] is not None:
            self._check_deciders(columns, ids.tolist(), new_colors.tolist(),
                                 degree_row.tolist())
        else:
            failed = np.flatnonzero(new_colors >= target)
            if failed.shape[0]:
                raise self._failure(columns, int(ids[failed[0]]))
        mirror[ids] = new_colors
        messages = int(degree_row.sum())
        bits = columns["bits"]
        return KernelRound(
            active=n,
            messages=messages,
            bits=messages * bits,
            max_message_bits=bits if messages else 0,
            broadcasts=int(np.count_nonzero(degree_row)),
        )

    def _check_deciders(self, columns, deciders, new_colors,
                        degree_row) -> list:
        """Raise what the per-node run would, decider by decider.

        Returns the checked ``new_colors`` as a list.
        """
        target = columns["target"]
        check_fanout = columns["check_fanout"]
        order = columns["order"]
        bits = columns["bits"]
        checked = []
        for i, new_color, degree in zip(deciders, new_colors, degree_row):
            if new_color >= target:
                raise self._failure(columns, i)
            if degree and check_fanout is not None:
                check_fanout(
                    intern_broadcast(
                        order[i], _ColorReductionProgram._TAG,
                        new_color, bits,
                    ),
                    degree,
                )
            checked.append(new_color)
        return checked

    @staticmethod
    def _failure(columns, i) -> AlgorithmFailure:
        programs = columns["programs"]
        node = columns["order"][i] if programs is None else programs[i].node
        return AlgorithmFailure(
            f"node {node!r}: no free color below {columns['target']}; "
            f"target must be at least Delta + 1"
        )

    def finalize(self, columns, programs) -> None:
        state = columns["arrays"]
        colors = (columns["colors"] if state is None
                  else state["colors"].tolist())
        if isinstance(programs, ColumnInputs):
            programs.outputs = colors
            return
        for program, color in zip(programs, colors):
            program.color = color


register_kernel(_ColorReductionProgram, _ColorReductionKernel)


def _restore_reduction_colors(colors, programs) -> None:
    """Sharded finalize: write the final color column back (parent side)."""
    for program, color in zip(programs, colors):
        program.color = color


def _color_reduction_shard_spec(compiled, programs, bandwidth):
    """Flatten a color-reduction population for the sharded engine.

    The kernel's eligibility gate (:func:`_reduction_columns`) plus an
    int-only color check: shard workers round-trip colors through an
    int64 segment, so bools or exotic int subclasses -- which would
    also intern into differently-typed broadcast payloads -- decline to
    the serial path.
    """
    extracted = _reduction_columns(programs)
    if extracted is None:
        return None
    colors, q, target = extracted
    if any(type(color) is not int for color in colors):
        return None
    return ShardSpec(
        colors=colors,
        q=q,
        target=target,
        bits=color_bits(q),
        tag=_ColorReductionProgram._TAG,
        finalize=_restore_reduction_colors,
        name="ColorReduction",
    )


register_sharded(_ColorReductionProgram, _color_reduction_shard_spec)


def greedy_color_reduction(network: Network,
                           colors: Mapping[Node, Color],
                           q: int,
                           target: int,
                           ledger: Optional[CostLedger] = None,
                           bandwidth: Optional[BandwidthModel] = None
                           ) -> Dict[Node, Color]:
    """Reduce a proper ``q``-coloring to ``target`` colors, one per round.

    ``target`` must be at least ``Delta + 1``.  Rounds: ``q - target + 1``.
    Combined with Linial this yields the classic O(Delta^2 + log* n)
    ``(Delta + 1)``-coloring baseline.
    """
    if target < network.raw_max_degree() + 1:
        raise InstanceError("target must be at least Delta + 1")
    ledger = ensure_ledger(ledger)
    if q <= target:
        return dict(colors)  # nothing to reduce, zero rounds

    def build_programs():
        return {
            node: _ColorReductionProgram(node, colors[node], q, target)
            for node in network
        }

    # Columns first: on the vectorized engine the kernel runs from the
    # dense-id color column; every other engine, and any fallback,
    # builds the programs.
    inputs = ColumnInputs(
        _ColorReductionProgram,
        {"colors": [colors[node] for node in network.compile().order],
         "q": q, "target": target},
        build_programs,
    )
    with ledger.phase("color-reduction"):
        outputs, _ = run_columns(
            network, inputs, bandwidth=bandwidth, ledger=ledger
        )
    return outputs
