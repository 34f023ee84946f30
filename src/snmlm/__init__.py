"""Sparse non-negative matrix language model estimation toolkit.

Builds relative-frequency count matrices over n-gram and skip-n-gram
features, trains a hashed linear adjustment model on held-out data with
mini-batch AdaGrad under multinomial loss, and evaluates perplexity.
Heterogeneous training sources can be mixed through corpus-tagged
features.
"""

from .adjustment import (
    AdjustmentModel,
    BatchAccumulator,
    EpochStats,
    process_batch,
    train,
)
from .corpus import (
    TaggedCorpus,
    Vocabulary,
    build_vocab,
    map_tokens,
)
from .counts import CountStore, accumulate, merge_files
from .errors import ConfigError, DataError, SnmError
from .extraction import (
    Event,
    ExtractorConfig,
    Feature,
    expand_tags,
    extract_events,
    parse_config,
    parse_feature,
    render_feature,
)
from .metafeatures import (
    MetaFeature,
    Mode,
    buckets,
    compute_metafeatures,
    explain_metafeatures,
)
from .model import (
    EvalReport,
    EventScore,
    SnmModel,
    load_model,
    materialize,
    perplexity,
    renormalize,
    save_model,
    score_event,
)

__version__ = "0.1.0"
