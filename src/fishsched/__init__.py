"""Directed fuzzing scheduler with multi-distance metrics and a campaign simulator."""

from .graph import (
    BasicBlock,
    Function,
    GraphError,
    InputError,
    ParseError,
    ProgramGraph,
    Target,
    ValidationError,
    dbb,
    graph_hash,
    load_program,
    save_program,
)
from .distance import (
    StaticDistanceMap,
    build_distance_map,
    harmonic_distance,
    load_distance_map,
    save_distance_map,
    weight,
)
from .execution import (
    ExecutionTrace,
    Seed,
    dsf,
    multi_target_distance,
    parse_trace_line,
)
from .ranking import (
    TargetRanking,
    TargetState,
    UpdateSummary,
    order_by_hits,
    reached_untriggered,
)
from .scheduler import (
    FunctionExplorationState,
    Phase,
    PhaseClock,
    SchedulerConfig,
    exploitation_cull,
    inter_function_cull,
    intra_function_cull,
    phase_step,
    select_next_seed,
)
from .simulator import (
    CampaignConfig,
    CampaignResult,
    MutationModel,
    SyntheticProgramSpec,
    execute_mutation,
    generate_program,
    run_campaign,
)
from .compare import compare_campaigns, gini, rank_sum_p

__all__ = [name for name in dir() if not name.startswith("_")]
