"""The package's exported names, resolved on first access."""

import importlib

import pytest

import segtrain

# Every name the package exports, by the submodule it comes from.
EXPORTED = {
    "corpus": ["CorpusStats", "Document", "Query", "Segment", "SegmentationPolicy",
               "compute_corpus_stats", "segment_for_inference",
               "segment_for_training", "split_sentences", "tokenize"],
    "evaluation": ["kfold_split", "mrr", "ndcg_at_k", "paired_t_test",
                   "per_query_metrics", "segment_p_at_1"],
    "ranking": ["Aggregation", "RankedList", "rerank", "score_document"],
    "scorer": ["LossKind", "ScorerParams", "batch_loss_and_gradient",
               "extract_features", "hinge_loss", "init_params", "pointwise_ce_loss",
               "read_params", "score", "segment_features", "sgd_step",
               "write_params"],
    "synth": ["SynthConfig", "SynthCorpus", "generate_corpus"],
    "training": ["ALL_SEGMENTS", "BestTrainResult", "EvalBundle", "SelectionSource",
                 "TrainConfig", "TrainingSet", "TrainingTopic", "best_train",
                 "build_eval_bundle", "build_pairs", "build_training_set",
                 "evaluate_bundle", "loss_all_segments", "loss_selected",
                 "select_segments", "train_baseline", "train_single"],
}


def test_exported_names_are_the_submodule_attributes():
    for module, names in EXPORTED.items():
        submodule = importlib.import_module(f"segtrain.{module}")
        assert getattr(segtrain, module) is submodule
        for name in names:
            assert getattr(segtrain, name) is getattr(submodule, name), name
            assert name in dir(segtrain) and name in segtrain.__all__, name


def test_version_and_unknown_names():
    assert segtrain.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        segtrain.no_such_name  # noqa: B018
