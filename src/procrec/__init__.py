"""procrec: reconstruct symbolized return processes as variable-order Markov
chains and score next-symbol forecasts against a random baseline."""

__version__ = "0.1.0"

from .coding import (
    CodingScheme,
    SymbolSequence,
    encode_series,
    make_scheme,
)
from .errors import (
    DegenerateStd,
    DuplicateTimestamp,
    IngestError,
    MalformedRow,
    NonPositivePrice,
    ProcrecError,
    SequenceTooShort,
    SeriesTooShort,
    SplitTooSmall,
)
from .ingest import (
    ColumnSchema,
    PriceSeries,
    ReturnSeries,
    SeriesStats,
    compute_log_returns,
    compute_stats,
    load_price_csv,
    split_halves,
)
from .markov import (
    BlockCensus,
    ConditionalTable,
    ConditionalTableSet,
    build_conditional_tables,
    census_blocks,
)
from .predict import (
    ExperimentConfig,
    ExperimentReport,
    RunErrors,
    evaluate_run,
    report_to_json_dict,
    resolve_fallback,
    run_experiment,
    run_generators,
)
