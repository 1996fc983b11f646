"""Retrieval-augmented C++ runtime optimization toolkit.

Pipeline stages: ingest a corpus of original/optimized code pairs, extract
and diff their control-flow graphs, index them by embedding similarity,
prompt a generation service with the closest example's structural context,
and evaluate the generated patches lexically and by compile-and-run timing.
"""

from .analyzer import AnalyzerConfig, extract_cfg, parse_cfg_dump, split_dump_functions
from .cfg import BasicBlock, ControlFlowGraph, serialize_cfg
from .cfg_diff import BlockMatching, CfgDiff, compute_diff, match_blocks, render_diff
from .corpus import (
    CodePair,
    Corpus,
    CorpusSplit,
    CorpusStats,
    OptimizationType,
    TestCase,
    ingest_pairs,
    load_record,
    split_corpus,
)
from .harness import RunOutcome, RunStatus, ToolchainConfig, compile_program, measure_execution
from .metrics import (
    LexicalScores,
    compute_lexical,
    edit_distance_similarity,
    line_overlap,
    token_overlap,
    tokenize,
)
from .preprocess import PreprocessReport, preprocess_source
from .prompting import (
    Cassette,
    LlmClient,
    LlmConfig,
    Prompt,
    PromptMode,
    build_prompt,
    generate_patch,
    generate_rationale,
)
from .report import EvaluationReport, EvalResult, aggregate_report, improvement
from .retrieval import (
    IndexEntry,
    IndexRecord,
    LocalHashingProvider,
    RemoteEmbeddingProvider,
    SourceKind,
    VectorIndex,
    build_index,
    cosine_similarity,
    embed_text,
    load_index,
    retrieve_top1,
    save_index,
)

__version__ = "0.1.0"
