"""Stochastic enumeration estimators for backtrack-tree costs.

The package estimates the total cost of an implicitly given rooted
forest by walking it level by level with a bounded set of parallel
trajectories (a hypernode), optionally biased by a user-supplied node
weight function.  Exact enumeration oracles, variance formulas and
diagnostic bounds back the estimators up on small instances, and a full
application counts linear extensions of partially ordered sets.
"""

from .analysis import (
    AlphaStats,
    Outcome,
    OutcomeDistribution,
    alpha_stats,
    cost_split_identity,
    count_sequences,
    enumerate_distribution,
    recursive_cv2,
    recursive_variance,
)
from .errors import CapExceeded, EstimateOverflow
from .estimators import (
    Draw,
    HypernodeDistribution,
    ImportanceInduced,
    RunSummary,
    Trajectory,
    UniformHyperchild,
    run_many,
    sep_estimate,
    summarize,
)
from .experiments import (
    ComparisonReport,
    SweepConfig,
    SweepRow,
    compare_importance,
    rows_to_csv,
    rows_to_gnuplot,
    rows_to_json_lines,
    run_sweep,
)
from .posets import (
    LEDecisionTree,
    Poset,
    count_linear_extensions,
    fixture_poset,
    importance_function,
    load_poset,
    random_poset,
    save_poset,
)
from .sampling import (
    ChoiceSource,
    NonpositiveWeight,
    RandomChoice,
    RandomSource,
    ScriptedChoice,
    ScriptError,
    derive_seed,
)
from .tree import (
    ExplicitTree,
    Hypernode,
    TreeOracle,
    exact_forest_cost,
    fixture_example_importance,
    fixture_example_tree,
    hypernode_successors,
)

__version__ = "0.1.0"
