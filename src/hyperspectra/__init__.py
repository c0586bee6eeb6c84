"""Exact density analysis, logic, and sampling for random uniform hypergraphs."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    CapExceeded,
    DegeneratePair,
    FormatError,
    HypothesisViolated,
    NoSplit,
    NotInFamily,
    NoWitness,
    ParseError,
)
from .hypergraph import (
    Hypergraph,
    automorphism_count,
    contains_copy,
    count_copies,
    count_embeddings,
    density,
    from_json,
    from_json_dict,
    is_strictly_balanced,
    max_density,
    max_density_below,
)
from .sampling import ModelParams, p_from_alpha, sample, sample_coupled
from .logic import (
    build_B,
    build_C,
    build_D,
    build_D_eq,
    build_Dtilde,
    compile_formula,
    evaluate,
    free_vars,
    has_full_extension_property,
    parse,
    quantifier_depth,
    to_text,
)
from .extensions import (
    PairClass,
    RootedPair,
    classify_pair,
    f_alpha,
    is_strictly_balanced_pair,
    pair_density,
    pair_from_json,
    pair_max_density,
    strict_extensions,
)
from .cyclic import (
    density_bound,
    m_decomposition,
    random_family_member,
)
from .game import (
    DUPLICATOR,
    SPOILER,
    GamePosition,
    agreement_check,
    extension_strategy,
    mirror_strategy,
    solve,
    verify_strategy,
)
from .bounds import (
    BoundReport,
    bounds_report,
    build_dense_witness,
    build_two_cycle_witness,
    dense_witness_size,
    failure_alpha_near_max,
    in_exceptional_set,
    law_fails_density,
    law_holds_density,
    law_window_near_max,
    limit_base_size,
    limit_point_alpha,
    limit_point_family_alpha,
    poisson_rate_from_counts,
    root_symmetry_counts,
    split_witness_lengths,
    unextendable_poisson_rate,
)
from .experiments import (
    CopyCountReport,
    EstimateReport,
    ExperimentConfig,
    PropertySpec,
    TrialRecord,
    UnextendableReport,
    copy_count_distribution,
    estimate_probability,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    sweep_alpha,
    tv_distance_to_poisson,
    unextendable_copy_count,
    wilson_interval,
)
