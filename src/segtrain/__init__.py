"""Query-driven segment selection for training length-limited rankers."""

from .corpus import (
    CorpusStats,
    Document,
    Query,
    Segment,
    SegmentationPolicy,
    compute_corpus_stats,
    segment_for_inference,
    segment_for_training,
    split_sentences,
    tokenize,
)
from .evaluation import (
    kfold_split,
    mrr,
    ndcg_at_k,
    paired_t_test,
    per_query_metrics,
    segment_p_at_1,
)
from .ranking import Aggregation, RankedList, rerank, score_document
from .scorer import (
    LossKind,
    ScorerParams,
    batch_loss_and_gradient,
    extract_features,
    hinge_loss,
    init_params,
    pointwise_ce_loss,
    read_params,
    score,
    segment_features,
    sgd_step,
    write_params,
)
from .synth import SynthConfig, SynthCorpus, generate_corpus
from .training import (
    ALL_SEGMENTS,
    BestTrainResult,
    EvalBundle,
    SelectionSource,
    TrainConfig,
    TrainingSet,
    TrainingTopic,
    best_train,
    build_eval_bundle,
    build_pairs,
    build_training_set,
    evaluate_bundle,
    loss_all_segments,
    loss_selected,
    select_segments,
    train_baseline,
    train_single,
)

__version__ = "0.1.0"
