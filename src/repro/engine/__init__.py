"""Engine dispatch: declarative :class:`RunSpec` in, :class:`RunResult` out.

The one import most callers need::

    from repro.engine import RunSpec, execute

    result = execute(RunSpec(k=8, protocol=schedule, adversary=wake, seed=7))

See :mod:`repro.engine.dispatch` for the admissibility rules and
:mod:`repro.engine.cache` for the probability/hazard table cache.
"""

from repro.channel.traffic import draw_packets, traffic_reduction
from repro.core.spec import RunSpec
from repro.engine.cache import (
    clear_table_cache,
    cumulative_hazard,
    probability_table,
    schedule_fingerprint,
    set_table_cache_limit,
    table_cache_info,
)
from repro.engine.compile import (
    CompileError,
    CompiledProgram,
    compile_spec,
    lowering_reason,
)
from repro.engine.dispatch import (
    ENGINE_NAMES,
    EngineDisagreement,
    EngineSelectionError,
    assert_results_agree,
    assert_results_identical,
    build_simulator,
    compiled_inadmissibility,
    batch_engine,
    compiled_fusion_groups,
    execute,
    execute_batch,
    execute_fused,
    get_default_engine,
    select_engine,
    set_default_engine,
    use_engine,
    vectorized_inadmissibility,
)
from repro.engine.plan import (
    BatchMemoryError,
    TilePlan,
    build_plan,
    estimate_rep_bytes,
    format_bytes,
    get_default_memory_budget,
    get_default_tile_reps,
    get_default_tile_rounds,
    parse_memory_budget,
    set_default_memory_budget,
    set_default_tile_reps,
    set_default_tile_rounds,
    tile_rep_cap,
    use_tiling,
)

__all__ = [
    "RunSpec",
    "ENGINE_NAMES",
    "EngineSelectionError",
    "EngineDisagreement",
    "CompileError",
    "CompiledProgram",
    "compile_spec",
    "lowering_reason",
    "vectorized_inadmissibility",
    "compiled_inadmissibility",
    "select_engine",
    "build_simulator",
    "batch_engine",
    "compiled_fusion_groups",
    "execute",
    "execute_batch",
    "execute_fused",
    "assert_results_agree",
    "assert_results_identical",
    "draw_packets",
    "traffic_reduction",
    "set_default_engine",
    "get_default_engine",
    "use_engine",
    "schedule_fingerprint",
    "probability_table",
    "cumulative_hazard",
    "table_cache_info",
    "clear_table_cache",
    "set_table_cache_limit",
    "BatchMemoryError",
    "TilePlan",
    "build_plan",
    "estimate_rep_bytes",
    "format_bytes",
    "parse_memory_budget",
    "tile_rep_cap",
    "set_default_memory_budget",
    "get_default_memory_budget",
    "set_default_tile_reps",
    "get_default_tile_reps",
    "set_default_tile_rounds",
    "get_default_tile_rounds",
    "use_tiling",
]
