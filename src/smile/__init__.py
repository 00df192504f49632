"""Sequence recognizer domain adaptation lab: a self-contained autodiff
engine, synthetic two-domain glyph corpora, an attention recognizer, and
entropy-minimization training with class-balanced self-paced selection."""

from .data import (Corpus, DomainConfig, VocabSpec, build_glyph12,
                   generate_corpus, load_corpus, make_templates,
                   render_string, save_corpus)
from .errors import (ContractError, DimensionError, FormatError,
                     IndexRangeError, NumericalAbort)
from .losses import decoder_loss, smile_loss
from .metrics import EvalResult, compare_report, evaluate, word_accuracy
from .recognizer import Decoded, DecoderOutput, Recognizer
from .self_paced import (PredictionPool, SelectionResult, build_pool,
                         portion_at, select, selected_entropy_loss)
from .tensor import Tape, Tensor
from .trainer import (Checkpoint, MetricsLog, TrainConfig, load_checkpoint,
                      save_checkpoint, sweep, train_with_corpora)

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "ContractError", "Corpus", "Decoded",
    "DecoderOutput", "DimensionError", "DomainConfig", "EvalResult",
    "FormatError", "IndexRangeError", "MetricsLog", "NumericalAbort",
    "PredictionPool", "Recognizer", "SelectionResult", "Tape", "Tensor",
    "TrainConfig", "VocabSpec",
    "build_glyph12", "build_pool", "compare_report", "decoder_loss",
    "evaluate", "generate_corpus", "load_checkpoint", "load_corpus",
    "make_templates", "portion_at", "render_string", "save_checkpoint",
    "save_corpus", "select", "selected_entropy_loss", "smile_loss", "sweep",
    "train_with_corpora", "word_accuracy",
]
