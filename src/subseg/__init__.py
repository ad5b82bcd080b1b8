"""Subtitle segmentation toolkit.

Reconstructs full sentences from SubRip files and annotates them with
``<eol>`` / ``<eob>`` break symbols, checks subtitling constraints,
segments plain sentences (character-count baseline and a trainable
constrained segmenter), scores segmentations, and runs the iterative
re-annotation loop.
"""

from .annotate import (
    AnnotatedSentence,
    EOB_SYMBOL,
    EOL_SYMBOL,
    GapLabel,
    GrammarViolation,
    NoAlignment,
    align_sentence,
    build_index,
    render_srt,
    strip_breaks,
)
from .constraints import (
    ConformityReport,
    ConstraintProfile,
    DEFAULT_PROFILE,
    check_cpl,
    check_cps,
    check_lines,
    conformity_stats,
)
from .evaluation import EvalReport, PrfScores, corpus_bleu, corpus_prf, evaluate
from .pipeline import (
    CorpusStats,
    IterationReport,
    build_corpus,
    reannotate,
    stats,
)
from .segmenters import (
    LinearSegmenterModel,
    TrainingConfig,
    extract_features,
    fine_tune,
    load_model,
    save_model,
    segment_count_char,
    segment_learned,
    train,
)
from .srt_io import (
    SegmentDuration,
    Subtitle,
    SubtitleDocument,
    format_timestamp,
    load_segments_metadata,
    parse_srt,
    parse_timestamp,
    serialize_srt,
)

__version__ = "0.1.0"
