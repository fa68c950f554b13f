"""Slack arithmetic and Two-Sweep parameter selection.

Theorem 1.1 requires, for a parameter ``p >= 1`` and ``epsilon >= 0``,

    ``weight(v) = sum_{x in L_v}(d_v(x)+1) > (1+eps) * max{p, |L_v|/p} * beta_v``

for every node.  For a single node this carves out an open interval of
feasible ``p`` values; the instance-wide feasible set is the intersection.
This module computes that interval and picks parameters, hosts small
helpers for rescaling defect functions in the reductions of Sections 3-4,
and states the two per-node choice rules of the sweeps once
(:func:`rank_sublist`, :func:`first_fit`).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from .instance import OLDCInstance

Node = Hashable
Color = int


def feasible_p_interval(instance: OLDCInstance,
                        epsilon: float = 0.0
                        ) -> Tuple[float, float]:
    """The open interval of real ``p`` satisfying Eq. (2)/(7) at every node.

    Returns ``(low, high)``; integer parameters ``p`` with
    ``low < p < high`` are feasible.  An empty interval (``low >= high``)
    means no ``p`` works for this ``epsilon``.
    """
    low = 0.0
    high = math.inf
    scale = 1.0 + epsilon
    for node in instance.lists:
        weight = instance.weight(node)
        beta = instance.beta(node)
        size = instance.list_size(node)
        if weight <= 0:
            return (math.inf, 0.0)
        # weight > scale * p * beta        =>  p < weight / (scale * beta)
        # weight > scale * (size/p) * beta =>  p > scale * size * beta / weight
        node_high = weight / (scale * beta)
        node_low = scale * size * beta / weight
        if node_high < high:
            high = node_high
        if node_low > low:
            low = node_low
    return (low, high)


def feasible_p_values(instance: OLDCInstance,
                      epsilon: float = 0.0) -> Tuple[int, ...]:
    """All feasible integer parameters ``p >= 1`` (possibly empty)."""
    low, high = feasible_p_interval(instance, epsilon)
    first = max(1, int(math.floor(low)) + 1)
    # Strict upper bound: the largest integer strictly below `high`.
    if math.isinf(high):
        # Cap at the maximum list size: larger p never helps (S_v <= |L_v|).
        last = max(first, instance.max_list_size())
    else:
        last = int(math.ceil(high)) - 1
        if last >= high:  # pragma: no cover - guard for float edge cases
            last -= 1
    values = []
    p = first
    while p <= last:
        # Re-verify node by node; the interval used floats.
        if all(
            instance.satisfies_eq7(p, epsilon, node)
            for node in instance.lists
        ):
            values.append(p)
        p += 1
    return tuple(values)


def choose_p(instance: OLDCInstance,
             epsilon: float = 0.0) -> Optional[int]:
    """The smallest feasible ``p``, or ``None`` if Eq. (2)/(7) fails for all.

    A smaller ``p`` means smaller Phase-I messages (a sub-list of ``p``
    colors) and, for ``epsilon > 0``, fewer rounds (O((p/eps)^2)).
    """
    values = feasible_p_values(instance, epsilon)
    return values[0] if values else None


def balanced_p(instance: OLDCInstance) -> int:
    """``p = ceil(sqrt(Lambda))``: balances ``p`` and ``|L_v|/p``.

    This is the choice used in the proof of Theorem 1.2; it is feasible
    whenever ``weight(v) > (1+eps) * ceil(sqrt(Lambda)) * beta_v``.
    """
    return max(1, int(math.ceil(math.sqrt(max(1, instance.max_list_size())))))


def reduce_defects(defects: Mapping[Node, Mapping[Color, int]],
                   reduction: Mapping[Node, int]
                   ) -> Dict[Node, Dict[Color, int]]:
    """Subtract a per-node amount from every color's defect (may go negative)."""
    return {
        node: {
            color: value - reduction[node]
            for color, value in defect_fn.items()
        }
        for node, defect_fn in defects.items()
    }


def drop_negative_defects(lists: Mapping[Node, Iterable[Color]],
                          defects: Mapping[Node, Mapping[Color, int]]
                          ) -> Tuple[Dict[Node, Tuple[Color, ...]],
                                     Dict[Node, Dict[Color, int]]]:
    """Keep only colors whose (possibly reduced) defect is non-negative.

    This is the ``L'_v := {x in L_v | d'_v(x) >= 0}`` step of Algorithm 2
    and of the slack reductions in Section 4.2.
    """
    new_lists: Dict[Node, Tuple[Color, ...]] = {}
    new_defects: Dict[Node, Dict[Color, int]] = {}
    for node, colors in lists.items():
        defect_fn = defects[node]
        kept = tuple(
            color for color in colors if defect_fn.get(color, 0) >= 0
        )
        new_lists[node] = kept
        new_defects[node] = {color: defect_fn[color] for color in kept}
    return new_lists, new_defects


def rank_sublist(colors: Sequence[Color], k: Mapping[Color, int],
                 defect: Mapping[Color, int], p: int) -> Tuple[Color, ...]:
    """Algorithm 1's Phase I rule: the sub-list ``S_v``.

    The first ``p`` of ``colors`` sorted by ``(k(x) - d(x), x)``: the
    colors with the most room ``d(x) - k(x)`` left, ties to the smaller
    color.  ``k`` and ``defect`` map every color of ``colors``.
    """
    return tuple(sorted(colors, key=lambda x: (k[x] - defect[x], x))[:p])


def first_fit(colors: Iterable[Color], load: Mapping[Color, int],
              defect: Mapping[Color, int]) -> Tuple[Optional[Color], int]:
    """The probe of Algorithm 1's Phase II and of the greedy class sweep.

    Returns the first of ``colors``, in ascending order, whose ``load``
    fits its defect (``load[x] <= defect[x]``), or ``None``, together
    with the number of colors probed.
    """
    probes = 0
    for color in sorted(colors):
        probes += 1
        if load[color] <= defect[color]:
            return color, probes
    return None, probes
