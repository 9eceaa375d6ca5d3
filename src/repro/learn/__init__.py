"""The learning module: MAT oracles, caches, L*, TTT, equivalence testing."""

from .bulk import (
    BulkLearnResult,
    CorpusConflict,
    CorpusFormatError,
    CorpusStats,
    accept_traces,
    bulk_passive_learn,
    generate_corpus,
    load_corpus_cache,
    log_sessions,
    read_jsonl_corpus,
    record_full_corpus,
    write_jsonl_corpus,
)
from .cache import CacheInconsistencyError, CachedMembershipOracle, QueryCache
from .counterexample import Decomposition, rivest_schapire
from .equivalence import (
    ChainedEquivalenceOracle,
    FixedWordsEquivalenceOracle,
    PerfectEquivalenceOracle,
    RandomWordEquivalenceOracle,
    WMethodEquivalenceOracle,
)
from .lstar import LearningResult, LStarLearner
from .nondeterminism import (
    MajorityVoteOracle,
    NondeterminismError,
    NondeterminismPolicy,
    estimate_response_distribution,
)
from .observation_table import ObservationTable
from .passive import (
    PartialMealyMachine,
    TraceConflictError,
    fold_prefix_tree,
    prefix_tree_from_cache,
    rpni_mealy,
    seed_cache_from_traces,
)
from .teacher import (
    CountingOracle,
    Divergence,
    EquivalenceOracle,
    MembershipOracle,
    OracleStats,
    Replay,
    SULMembershipOracle,
    mq_suffix,
    mq_suffix_batch,
    replay,
)
from .ttt import DiscriminationTree, TTTLearner

__all__ = [
    "BulkLearnResult",
    "CacheInconsistencyError",
    "CachedMembershipOracle",
    "ChainedEquivalenceOracle",
    "CorpusConflict",
    "CorpusFormatError",
    "CorpusStats",
    "CountingOracle",
    "Decomposition",
    "Divergence",
    "DiscriminationTree",
    "EquivalenceOracle",
    "FixedWordsEquivalenceOracle",
    "LStarLearner",
    "LearningResult",
    "MajorityVoteOracle",
    "MembershipOracle",
    "NondeterminismError",
    "NondeterminismPolicy",
    "ObservationTable",
    "OracleStats",
    "PartialMealyMachine",
    "PerfectEquivalenceOracle",
    "QueryCache",
    "RandomWordEquivalenceOracle",
    "Replay",
    "SULMembershipOracle",
    "TTTLearner",
    "TraceConflictError",
    "WMethodEquivalenceOracle",
    "accept_traces",
    "bulk_passive_learn",
    "estimate_response_distribution",
    "fold_prefix_tree",
    "generate_corpus",
    "load_corpus_cache",
    "log_sessions",
    "mq_suffix",
    "mq_suffix_batch",
    "prefix_tree_from_cache",
    "read_jsonl_corpus",
    "record_full_corpus",
    "replay",
    "rivest_schapire",
    "rpni_mealy",
    "seed_cache_from_traces",
    "write_jsonl_corpus",
]
