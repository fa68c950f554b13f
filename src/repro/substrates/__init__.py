"""Classic-algorithm substrates the paper builds on."""

from .algebraic import AlgebraicRecoloringProgram, run_recoloring
from .arbdefective import arbdefective_coloring, arbdefective_palette
from .baselines import (
    baseline_palette_size,
    fk23_local_work,
    fk23_required_list_size,
    mt20_required_list_size,
    two_sweep_defective_baseline,
    two_sweep_local_work,
    two_sweep_required_list_size,
)
from .exhaustive import (
    solve_list_defective_bruteforce,
    solve_oldc_bruteforce,
)
from .cover_free import (
    PolynomialFamily,
    RecoloringStep,
    choose_defective_step,
    choose_proper_step,
    defective_schedule,
    is_prime,
    next_prime,
    proper_schedule,
    shared_family,
)
from .greedy import (
    greedy_arbdefective_sweep,
    greedy_color_reduction,
    lovasz_defective_partition,
    sequential_greedy_arbdefective,
    sequential_greedy_coloring,
    sequential_greedy_defective,
)
from .kuhn_defective import defective_palette_bound, kuhn_defective_coloring
from .linial import (
    linial_coloring,
    linial_oriented_coloring,
    linial_palette_bound,
)
from .local_search import LocalSearchProgram, distributed_lovasz_partition
from .log_star import ceil_log2, log_star, tower
from .randomized import (
    TrialColoringProgram,
    randomized_delta_plus_one,
    randomized_list_coloring,
)

__all__ = [
    "AlgebraicRecoloringProgram",
    "LocalSearchProgram",
    "arbdefective_coloring",
    "arbdefective_palette",
    "PolynomialFamily",
    "RecoloringStep",
    "baseline_palette_size",
    "ceil_log2",
    "choose_defective_step",
    "choose_proper_step",
    "defective_palette_bound",
    "defective_schedule",
    "distributed_lovasz_partition",
    "fk23_local_work",
    "fk23_required_list_size",
    "greedy_arbdefective_sweep",
    "greedy_color_reduction",
    "is_prime",
    "kuhn_defective_coloring",
    "linial_coloring",
    "linial_oriented_coloring",
    "linial_palette_bound",
    "log_star",
    "lovasz_defective_partition",
    "mt20_required_list_size",
    "next_prime",
    "proper_schedule",
    "randomized_delta_plus_one",
    "randomized_list_coloring",
    "run_recoloring",
    "shared_family",
    "TrialColoringProgram",
    "sequential_greedy_arbdefective",
    "sequential_greedy_coloring",
    "sequential_greedy_defective",
    "solve_list_defective_bruteforce",
    "solve_oldc_bruteforce",
    "tower",
    "two_sweep_defective_baseline",
    "two_sweep_local_work",
    "two_sweep_required_list_size",
]
