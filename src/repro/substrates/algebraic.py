"""The shared algebraic recoloring protocol.

Linial's O(Delta^2)-coloring and the Lemma 3.4 defective coloring differ
only in how a node picks its evaluation point each step:

* **proper** steps pick a point where *no* relevant neighbor's polynomial
  agrees (possible because ``m > avoid * k``),
* **defective** steps pick the point *minimizing* the number of agreeing
  relevant neighbors with a different current color (at most
  ``k/m * beta_v`` by averaging).

Color convention: every "q-coloring" in this repository uses colors
``{0, ..., q-1}`` (the paper's ``1..q`` shifted down by one).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..sim import arrays
from ..sim.congest import BandwidthModel, LocalModel
from ..sim.errors import AlgorithmFailure, InstanceError
from ..sim.kernels import (
    ColumnInputs,
    KernelRound,
    RoundKernel,
    broadcast_charge,
    broadcast_round,
    fanout_totals,
    register_kernel,
)
from ..sim.message import color_bits, intern_broadcast
from ..sim.metrics import CostLedger, ensure_ledger
from ..sim.network import Network
from ..sim.node import NodeProgram, RoundContext
from ..sim.scheduler import run_columns
from .cover_free import RecoloringStep

Node = Hashable
Color = int

_TAG = "algebraic-color"


class AlgebraicRecoloringProgram(NodeProgram):
    """One node's side of the iterated algebraic recoloring."""

    def __init__(self, node: Node, initial_color: Color,
                 schedule: Sequence[RecoloringStep],
                 relevant: frozenset):
        """``relevant``: the neighbors whose polynomials this node dodges
        (all neighbors for undirected Linial, out-neighbors otherwise)."""
        self.node = node
        self.color = initial_color
        # Stored as a tuple: steps are immutable, and callers that
        # normalize once (``run_recoloring``) then share one tuple
        # across the whole population, which the kernel's uniformity
        # scan detects by identity.
        self.schedule = tuple(schedule)
        self.relevant = relevant
        self._step_index = 0

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round_number == 1:
            if not self.schedule:
                ctx.halt()
                return
            ctx.broadcast(
                _TAG, self.color, bits=color_bits(self.schedule[0].q)
            )
            return
        step = self.schedule[self._step_index]
        family = step.family()
        neighbor_colors = ctx.received(_TAG)
        self.color = self._recolor(step, family, neighbor_colors)
        self._step_index += 1
        if self._step_index >= len(self.schedule):
            ctx.halt()
            return
        ctx.broadcast(
            _TAG,
            self.color,
            bits=color_bits(self.schedule[self._step_index].q),
        )

    def _recolor(self, step: RecoloringStep, family,
                 neighbor_colors: Mapping[Node, Color]) -> Color:
        own = self.color
        if own >= step.q:
            raise AlgorithmFailure(
                f"node {self.node!r}: color {own} outside the declared "
                f"{step.q}-coloring"
            )
        rivals = [
            color
            for sender, color in neighbor_colors.items()
            if sender in self.relevant and color != own
        ]
        if step.alpha_step == 0.0:
            return self._recolor_proper(step, family, rivals)
        return self._recolor_defective(step, family, rivals)

    def _recolor_proper(self, step: RecoloringStep, family,
                        rivals: Sequence[Color]) -> Color:
        for x in range(step.m):
            own_value = family.evaluate(self.color, x)
            if all(family.evaluate(r, x) != own_value for r in rivals):
                return x * step.m + own_value
        raise AlgorithmFailure(
            f"node {self.node!r}: no collision-free point over F_{step.m} "
            f"with {len(rivals)} rivals of degree {step.k} -- the step "
            f"parameters violate m > avoid * k"
        )

    def _recolor_defective(self, step: RecoloringStep, family,
                           rivals: Sequence[Color]) -> Color:
        best_x = 0
        best_conflicts = None
        for x in range(step.m):
            own_value = family.evaluate(self.color, x)
            conflicts = sum(
                1 for r in rivals if family.evaluate(r, x) == own_value
            )
            if best_conflicts is None or conflicts < best_conflicts:
                best_x = x
                best_conflicts = conflicts
                if conflicts == 0:
                    break
        return best_x * step.m + family.evaluate(self.color, best_x)

    def output(self) -> Color:
        return self.color


class AlgebraicRecoloringKernel(RoundKernel):
    """Array-at-a-time execution of a uniform algebraic recoloring run.

    One run of :class:`AlgebraicRecoloringProgram` over all nodes is a
    textbook homogeneous workload: every node broadcasts its color,
    evaluates the *same* polynomial family over the *same* schedule, and
    halts together after the last step.  The kernel keeps the colors as
    one column, reads each node's relevant neighbors from one CSR (the
    adjacency itself, or an orientation's out-neighbor columns), and
    memoizes each color's evaluation row ``(P_c(0), ..., P_c(m-1))``
    per step so the inner scan is pure list/tuple work -- no contexts,
    envelopes, or ``received()`` dict builds.

    ``run_recoloring`` reaches :meth:`from_columns` through the
    scheduler's columns entry; ``finalize`` fills
    ``ColumnInputs.outputs``.

    When the NumPy backend (:mod:`repro.sim.arrays`) is available and
    every step's field fits the int64 overflow bounds,
    :meth:`from_columns` additionally builds ndarray columns: the color column as one int64
    vector and the relevant-neighbor relation as flat ``(src, dst)``
    edge arrays.  Each step then evaluates the whole population through
    the family's batched-Horner value table and counts rival agreements
    with one segmented reduction -- bit-identical to the scalar scan
    (same integers, same first-minimum tie-breaks, same failure text in
    the same node order), just batched.
    """

    def prepare(self, compiled, inputs, bandwidth):
        data = inputs.data
        return self.from_columns(compiled, data["colors"], data["schedule"],
                                 data["relevant"], bandwidth)

    def from_columns(self, compiled, colors, schedule, relevant,
                     bandwidth):
        """Column state for a recoloring of the dense-id ``colors``.

        ``relevant`` is ``None`` when every neighbor is relevant
        (undirected Linial), else each node's relevant neighbors as a
        CSR ``(indptr, indices)`` over the dense ids (an orientation's
        out-neighbor columns).
        """
        full_rows = relevant is None
        if full_rows:
            relevant = (compiled.indptr, compiled.indices)
        total_copies, envelopes = fanout_totals(compiled)
        columns = {
            "order": compiled.order,
            "degrees": compiled.degrees,
            "schedule": schedule,
            "families": [step.family() for step in schedule],
            "relevant": relevant,
            "colors": arrays.as_list(colors),
            "total_copies": total_copies,
            "envelopes": envelopes,
            # One evaluation-row memo per step: color -> tuple of the
            # polynomial's values at x = 0..m-1.
            "rows": [{} for _ in schedule],
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
            "arrays": None,
        }
        state = self._prepare_arrays(compiled, columns, full_rows)
        if state is not None:
            columns["arrays"] = state
            self.backend = "numpy"
        return columns

    def _prepare_arrays(self, compiled, columns, full_rows):
        """Build the ndarray columns, or ``None`` to keep pure Python.

        Declined (transparently -- the scalar path is bit-identical)
        when NumPy is off, the population is too small to amortize the
        array round-trips, any step's field exceeds the int64 overflow
        bounds, the worst-case match matrix would be oversized, or a
        color does not even fit in int64.
        """
        np = arrays.get_numpy()
        if np is None:
            return None
        n = compiled.n
        schedule = columns["schedule"]
        if not schedule or n < arrays.MIN_BATCH:
            return None
        if not all(arrays.field_fits(step.m, step.q) for step in schedule):
            return None
        rel_indptr, rel_indices = columns["relevant"]
        edges = rel_indptr[n]
        max_m = max(step.m for step in schedule)
        # Chunked rounds only ever materialize one chunk's match matrix,
        # so the allocation guard applies to the widest chunk -- this is
        # what lets million-node populations keep the array path.  The
        # chunk width is frozen here: one run never mixes granularities.
        chunk = arrays.chunk_size()
        if chunk and chunk < n:
            gate_edges = max(
                rel_indptr[hi] - rel_indptr[lo]
                for lo, hi in arrays.iter_chunks(n, chunk)
            )
        else:
            gate_edges = edges
        if gate_edges * max_m > arrays.MAX_MATCH_ELEMENTS:
            return None
        try:
            colors = np.array(columns["colors"], dtype=np.int64)
        except (OverflowError, ValueError):
            return None
        if full_rows:
            # The relevant relation is the CSR adjacency itself: use
            # the zero-copy views, no per-edge Python work.
            _, dst, degrees = compiled.numpy_views()
        else:
            ptr = np.asarray(rel_indptr, dtype=np.int64)
            degrees = np.diff(ptr)
            dst = np.asarray(rel_indices, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        return {"np": np, "colors": colors, "src": src, "dst": dst,
                "chunk": chunk}

    def step(self, round_number, columns, inboxes) -> KernelRound:
        schedule = columns["schedule"]
        if round_number == 1:
            if not schedule:
                return KernelRound(active=0)
            return broadcast_round(columns, _TAG, columns["colors"],
                                   color_bits(schedule[0].q),
                                   len(columns["colors"]))
        state = columns["arrays"]
        if state is not None:
            step = schedule[round_number - 2]
            colors = state["colors"]
            if bool(((colors < 0) | (colors >= step.q)).any()):
                # Out-of-range colors must fail with exactly the scalar
                # path's exception (text, type, node order), so hand the
                # round to it -- it always raises on such input.
                columns["colors"] = colors.tolist()
                columns["arrays"] = None
                self.backend = "python"
                return self._step_python(round_number, columns)
            return self._step_numpy(round_number, columns)
        return self._step_python(round_number, columns)

    def _step_python(self, round_number, columns) -> KernelRound:
        schedule = columns["schedule"]
        step_index = round_number - 2
        step = schedule[step_index]
        q = step.q
        m = step.m
        defective = step.alpha_step != 0.0
        evaluate = columns["families"][step_index].evaluate
        rows = columns["rows"][step_index]
        order = columns["order"]
        rel_indptr, rel_indices = columns["relevant"]
        colors = columns["colors"]
        old = list(colors)
        last = step_index + 1 >= len(schedule)
        check_fanout = None if last else columns["check_fanout"]
        next_bits = 0 if last else color_bits(schedule[step_index + 1].q)
        degrees = columns["degrees"]

        for i, own in enumerate(old):
            if own >= q:
                raise AlgorithmFailure(
                    f"node {order[i]!r}: color {own} outside the "
                    f"declared {q}-coloring"
                )
            # Rival colors as a multiset: counts drive the defective
            # scan, distinct keys the proper scan, the total the proper
            # failure message -- exactly what the per-node lists yield.
            rival_counts: Dict[int, int] = {}
            for j in rel_indices[rel_indptr[i]:rel_indptr[i + 1]]:
                color = old[j]
                if color != own:
                    rival_counts[color] = rival_counts.get(color, 0) + 1
            own_row = rows.get(own)
            if own_row is None:
                own_row = rows[own] = tuple(
                    evaluate(own, x) for x in range(m)
                )
            rival_rows = []
            for color, weight in rival_counts.items():
                row = rows.get(color)
                if row is None:
                    row = rows[color] = tuple(
                        evaluate(color, x) for x in range(m)
                    )
                rival_rows.append((row, weight))
            if not defective:
                for x in range(m):
                    own_value = own_row[x]
                    if all(row[x] != own_value for row, _ in rival_rows):
                        colors[i] = x * m + own_value
                        break
                else:
                    raise AlgorithmFailure(
                        f"node {order[i]!r}: no collision-free "
                        f"point over F_{m} with "
                        f"{sum(rival_counts.values())} rivals of degree "
                        f"{step.k} -- the step parameters violate "
                        f"m > avoid * k"
                    )
            else:
                best_x = 0
                best_conflicts = None
                for x in range(m):
                    own_value = own_row[x]
                    conflicts = 0
                    for row, weight in rival_rows:
                        if row[x] == own_value:
                            conflicts += weight
                    if best_conflicts is None or conflicts < best_conflicts:
                        best_x = x
                        best_conflicts = conflicts
                        if conflicts == 0:
                            break
                colors[i] = best_x * m + own_row[best_x]
            if check_fanout is not None and degrees[i]:
                check_fanout(
                    intern_broadcast(order[i], _TAG, colors[i], next_bits),
                    degrees[i],
                )
        if last:
            return KernelRound(active=0)
        # The fan-out checks already ran interleaved above (a node's
        # recoloring failure must surface before a later node's
        # bandwidth failure, as in the reference engine).
        return broadcast_charge(columns, next_bits, len(colors))

    def _step_numpy(self, round_number, columns) -> KernelRound:
        """One whole recoloring round as batched int64 matrix work.

        ``V = value_rows(colors)`` is the ``(n, m)`` evaluation matrix;
        rival agreements are counted per node with one segmented
        reduction over the relevant-edge arrays.  ``argmax``/``argmin``
        pick the first feasible / first minimal point, matching the
        scalar scan's tie-breaking exactly.
        """
        state = columns["arrays"]
        np = state["np"]
        schedule = columns["schedule"]
        step_index = round_number - 2
        step = schedule[step_index]
        m = step.m
        family = columns["families"][step_index]
        old = state["colors"]
        n = old.shape[0]
        chunk = state.get("chunk", 0)

        if chunk and chunk < n:
            new_colors, rival_counts, failed = self._recolor_chunked(
                state, step, family, chunk
            )
        else:
            new_colors, rival_counts, failed = self._recolor_whole(
                state, step, family
            )

        last = step_index + 1 >= len(schedule)
        check_fanout = None if last else columns["check_fanout"]
        next_bits = 0 if last else color_bits(schedule[step_index + 1].q)
        if check_fanout is not None:
            # Interleave: node i's recoloring failure precedes node
            # i+1's bandwidth failure and follows node i-1's, exactly as
            # in the scalar loop.
            order = columns["order"]
            degrees = columns["degrees"]
            new_list = new_colors.tolist()
            for i in range(n):
                if failed is not None and failed[i]:
                    self._raise_no_point(columns, i, step, rival_counts)
                if degrees[i]:
                    check_fanout(
                        intern_broadcast(
                            order[i], _TAG, new_list[i], next_bits
                        ),
                        degrees[i],
                    )
        elif failed is not None:
            self._raise_no_point(
                columns, int(np.argmax(failed)), step, rival_counts
            )
        state["colors"] = new_colors
        if last:
            return KernelRound(active=0)
        return broadcast_charge(columns, next_bits, n)

    @staticmethod
    def _recolor_whole(state, step, family):
        """Whole-population recoloring: one ``(n, m)`` value matrix."""
        np = state["np"]
        old = state["colors"]
        n = old.shape[0]
        m = step.m
        values = family.value_rows(old)
        src = state["src"]
        dst = state["dst"]
        rival = old[dst] != old[src]
        srcs = src[rival]
        rival_counts = np.bincount(srcs, minlength=n)
        conflicts = np.zeros((n, m), dtype=np.int64)
        if srcs.shape[0]:
            matches = (values[dst[rival]] == values[srcs]).astype(np.int64)
            # ``srcs`` is sorted, so consecutive starts of the non-empty
            # segments partition ``matches`` into per-node blocks.
            nonempty = rival_counts > 0
            offsets = np.concatenate(
                ([0], np.cumsum(rival_counts[:-1]))
            )[nonempty]
            conflicts[nonempty] = np.add.reduceat(matches, offsets, axis=0)

        failed = None
        if step.alpha_step != 0.0:
            best_x = np.argmin(conflicts, axis=1)
        else:
            feasible = conflicts == 0
            solvable = feasible.any(axis=1)
            if not bool(solvable.all()):
                failed = ~solvable
            best_x = np.argmax(feasible, axis=1)
        new_colors = best_x * m + values[np.arange(n), best_x]
        return new_colors, rival_counts, failed

    @staticmethod
    def _recolor_chunked(state, step, family, chunk):
        """The same round in node chunks: peak temporaries ``(chunk, m)``.

        Each chunk's slice of the sorted ``src`` edge array is found with
        ``searchsorted``; the per-chunk gathers and reductions are index
        slices of the whole-population computation, so the resulting
        colors, rival counts, and failure mask are bit-identical to
        :meth:`_recolor_whole` -- only the allocation shape changes.
        """
        np = state["np"]
        old = state["colors"]
        n = old.shape[0]
        m = step.m
        src = state["src"]
        dst = state["dst"]
        defective = step.alpha_step != 0.0
        new_colors = np.empty(n, dtype=np.int64)
        rival_counts = np.zeros(n, dtype=np.int64)
        failed_full = None if defective else np.zeros(n, dtype=bool)
        any_failed = False
        for lo, hi in arrays.iter_chunks(n, chunk):
            width = hi - lo
            begin, end = np.searchsorted(src, (lo, hi))
            src_c = src[begin:end]
            dst_c = dst[begin:end]
            values_c = family.value_rows(old[lo:hi])
            rival = old[dst_c] != old[src_c]
            srcs = src_c[rival] - lo
            counts = np.bincount(srcs, minlength=width)
            rival_counts[lo:hi] = counts
            conflicts = np.zeros((width, m), dtype=np.int64)
            if srcs.shape[0]:
                matches = (
                    family.value_rows(old[dst_c[rival]]) == values_c[srcs]
                ).astype(np.int64)
                nonempty = counts > 0
                offsets = np.concatenate(
                    ([0], np.cumsum(counts[:-1]))
                )[nonempty]
                conflicts[nonempty] = np.add.reduceat(
                    matches, offsets, axis=0
                )
            if defective:
                best_x = np.argmin(conflicts, axis=1)
            else:
                feasible = conflicts == 0
                solvable = feasible.any(axis=1)
                if not bool(solvable.all()):
                    failed_full[lo:hi] = ~solvable
                    any_failed = True
                best_x = np.argmax(feasible, axis=1)
            new_colors[lo:hi] = (
                best_x * m + values_c[np.arange(width), best_x]
            )
        return new_colors, rival_counts, failed_full if any_failed else None

    @staticmethod
    def _raise_no_point(columns, i, step, rival_counts):
        raise AlgorithmFailure(
            f"node {columns['order'][i]!r}: no collision-free "
            f"point over F_{step.m} with "
            f"{int(rival_counts[i])} rivals of degree "
            f"{step.k} -- the step parameters violate "
            f"m > avoid * k"
        )

    def finalize(self, columns, inputs) -> None:
        state = columns["arrays"]
        # The column itself (an int64 ndarray on the NumPy path).
        inputs.outputs = (columns["colors"] if state is None
                          else state["colors"])


register_kernel(AlgebraicRecoloringProgram, AlgebraicRecoloringKernel)


def _relevant_rows(compiled, relevant) -> Optional[Tuple[list, list]]:
    """Per-node relevant-neighbor sets (dense-id order) as a CSR.

    Returns ``(indptr, indices)`` of each CSR row filtered by its set,
    in row order, or ``None`` when every set is the full neighbor set.
    """
    order = compiled.order
    indptr = compiled.indptr
    indices = compiled.indices
    neighbor_sets = compiled.neighbor_sets
    rel_indptr = [0]
    rel_indices: list = []
    full_rows = True
    for i, members in enumerate(relevant):
        row = indices[indptr[i]:indptr[i + 1]]
        if members == neighbor_sets[i]:
            rel_indices.extend(row)
        else:
            full_rows = False
            rel_indices.extend(j for j in row if order[j] in members)
        rel_indptr.append(len(rel_indices))
    return None if full_rows else (rel_indptr, rel_indices)


def run_recoloring(network: Network,
                   initial_colors: Mapping[Node, Color],
                   schedule: Sequence[RecoloringStep],
                   relevant,
                   ledger: Optional[CostLedger] = None,
                   bandwidth: Optional[BandwidthModel] = None,
                   phase: str = "algebraic-recoloring"
                   ) -> Tuple[Dict[Node, Color], int]:
    """Run the schedule on every node; returns (colors, final palette size).

    ``relevant`` names the neighbors whose polynomials each node must
    account for: ``None`` for every neighbor, an out-neighbor CSR
    ``(indptr, indices)`` over ``network.compile()`` (an orientation's
    ``out_indptr``/``out_indices``), or a ``{node: frozenset}`` mapping.
    Validation of the *initial* coloring is the caller's job (proper
    overall vs. proper towards out-neighbors).

    Columns first: on the vectorized engine the kernel runs from the
    color column and the relevant CSR and no program object is built;
    every other engine, and any fallback, builds the programs.
    """
    ledger = ensure_ledger(ledger)
    for node in network:
        if node not in initial_colors:
            raise InstanceError(f"node {node!r} has no initial color")
    if not schedule:
        palette = max(initial_colors.values(), default=0) + 1
        return dict(initial_colors), palette
    # One shared tuple for the whole population: programs alias it
    # (steps are immutable) and the kernel's uniformity scan reduces to
    # identity checks.
    schedule = tuple(schedule)
    compiled = network.compile()
    order = compiled.order
    if isinstance(relevant, Mapping):
        sets = [relevant[node] for node in order]
        relevant = _relevant_rows(compiled, sets)
    else:
        sets = None
    colors = [initial_colors[node] for node in order]

    def build_programs():
        if sets is not None:
            members = sets
        elif relevant is None:
            members = compiled.neighbor_sets
        else:
            ptr, ids = relevant
            members = [frozenset(order[j] for j in ids[ptr[i]:ptr[i + 1]])
                       for i in range(compiled.n)]
        return {
            node: AlgebraicRecoloringProgram(
                node, colors[i], schedule, members[i]
            )
            for i, node in enumerate(order)
        }

    inputs = ColumnInputs(
        AlgebraicRecoloringProgram,
        {"colors": colors, "schedule": schedule, "relevant": relevant},
        build_programs,
    )
    with ledger.phase(phase):
        outputs, _ = run_columns(
            network, inputs, bandwidth=bandwidth, ledger=ledger
        )
    return (dict(zip(order, arrays.as_list(outputs))),
            schedule[-1].palette_size)
