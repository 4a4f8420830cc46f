"""Query-driven segment selection for training length-limited rankers.

The names below are imported from their submodules on first access
(PEP 562), so importing the package, or only its numpy-free modules,
does not load numpy.  Each name comes from the module that defines it:
the configuration from `config`, which `scorer`, `synth` and
`training` re-export, so `segtrain.LossKind` loads no numpy either.
"""

import importlib

_EXPORTS = {
    "config": ("LossKind", "SynthConfig", "TrainConfig"),
    "corpus": ("CorpusStats", "Query", "Segment",
               "SegmentationPolicy", "segment_for_inference",
               "segment_for_training", "split_sentences", "tokenize"),
    "evaluation": ("RankedList", "kfold_split", "mrr", "paired_t_test",
                   "segment_p_at_1"),
    "ranking": ("Aggregation",),
    "scorer": ("ScorerParams", "batch_loss_and_gradient",
               "init_params", "read_params", "segment_features", "sgd_step",
               "write_params"),
    "synth": ("SynthCorpus", "generate_corpus"),
    "training": ("BestTrainResult", "TrainingSet",
                 "TrainingTopic", "best_train", "build_stores", "build_training_set",
                 "evaluate_bundle", "rank_store", "select_segments",
                 "train_baseline", "train_single"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_EXPORTS})
