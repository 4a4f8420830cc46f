"""All configuration, without numpy and without `dataclasses`.

`TrainConfig` and `SynthConfig` (which `training`, `synth` and, for
`LossKind`, `scorer` re-export), `PipelineConfig`, which inherits both
and adds only what the commands alone read, and the defaults of the
segmentation (`DEFAULT_*`), which `corpus`, `scorer` and `training`
read from here.  Each field declares its default and its range check
once, as an annotated class attribute; building a configuration runs
the checks, and `formats.parse_config` reports a failure at the line of
the value.  `_fields` collects each class's fields into `FIELDS`, in
the order `dataclasses` would give them, and a configuration is built
from keywords and compares field by field, as a dataclass does.  The
classes are not dataclasses: importing `dataclasses`, which loads
`inspect`, and building these four classes with it took about 10 ms of
each `eval` on a 2-vCPU host, and `eval` builds nothing else with it.

Every command that reads a configuration loads this module: `synth`,
`segment`, `train`, `select`, `rerank` and `eval`, and any command
given `--seed`.  `eval-selection` reads none, and does not load it.
`corpus` is imported only by `SynthConfig.policy`.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

if TYPE_CHECKING:  # `corpus` loads only when a policy is built
    from .corpus import SegmentationPolicy

# The defaults of the segmentation, here so that `SynthConfig` needs no
# corpus code.
DEFAULT_MAX_TOKENS = 512
DEFAULT_MIN_TOKENS = 128
DEFAULT_MAX_SEGMENTS = 4
DEFAULT_QUERY_TOKEN_BUDGET = 16


class LossKind(enum.Enum):
    PAIRWISE_HINGE = "pairwise_hinge"
    POINTWISE_CE = "pointwise_cross_entropy"


# The values `scorer.init_params` accepts, named here so that parsing a
# configuration does not import numpy.
SCORER_KINDS = ("linear", "mlp")


class ConfigError(ValueError):
    """A configuration value out of range; `keys` are the fields it involves."""

    def __init__(self, message: str, keys: tuple[str, ...]):
        super().__init__(message)
        self.keys = keys


class Field(NamedTuple):
    """A configuration field: its name, its default, and the check its
    values must pass, if any; `expected` says what they must be."""

    name: str
    default: Any
    valid: Callable[[Any], bool] | None = None
    expected: str = ""


def _checked(default, valid: Callable[[Any], bool], expected: str) -> Field:
    """A field whose values must pass `valid`, named by `_fields`."""
    return Field("", default, valid, expected)


def _positive(default: int) -> Field:
    return _checked(default, lambda v: v > 0, "positive")


def _non_negative(default) -> Field:
    return _checked(default, lambda v: v >= 0, "non-negative")


def _unit(default: float) -> Field:
    return _checked(default, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _check(f: Field, value) -> None:
    """Raise `ConfigError` if `value` fails the range check of field `f`."""
    if f.valid is not None and not f.valid(value):
        raise ConfigError(f"{f.name} must be {f.expected}, got {value!r}", (f.name,))


def _fields(cls):
    """`cls` with its fields, by name, in `cls.FIELDS`: those of its
    bases, from the last of its method resolution order to the first,
    then its own annotated class attributes, in order, as `dataclasses`
    orders them.  Each of those holds a `Field` or a default, and
    becomes the field's default."""
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(getattr(base, "FIELDS", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__[name]
        field = value if isinstance(value, Field) else Field("", value)
        fields[name] = field._replace(name=name)
        setattr(cls, name, field.default)
    cls.FIELDS = fields
    return cls


@_fields
class _Config:
    """The seed every configuration shares.  A configuration is built
    from keywords, one per field, each defaulting to the field's
    default, and the range check of each field, then `_validate`, runs
    when it is built."""

    seed: int = _non_negative(13)

    def __init__(self, **values: Any) -> None:
        unknown = values.keys() - self.FIELDS.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field {min(unknown)!r}")
        for name, field in self.FIELDS.items():
            setattr(self, name, values.get(name, field.default))
        self._validate()

    def _validate(self) -> None:
        for f in self.FIELDS.values():
            _check(f, getattr(self, f.name))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({values})"


@_fields
class TrainConfig(_Config):
    loss: LossKind = LossKind.PAIRWISE_HINGE
    scorer_kind: str = _checked("linear", SCORER_KINDS.__contains__,
                                f"one of {', '.join(SCORER_KINDS)}")
    hidden_dim: int = _positive(8)
    learning_rate: float = _checked(0.05, lambda v: 0 <= v < math.inf,
                                    "non-negative and finite")
    epochs: int = _positive(20)
    batch_size: int = _positive(32)
    patience_epochs: int = _positive(3)
    negatives_per_positive: int = _non_negative(0)  # 0: the per-loss default
    max_iterations: int = _positive(4)
    iteration_patience: int = _positive(1)

    def resolved_negatives(self) -> int:
        """Negatives sampled per positive: 1 under the pairwise hinge and
        10 under the pointwise cross-entropy, unless set."""
        return self.negatives_per_positive or (
            1 if self.loss == LossKind.PAIRWISE_HINGE else 10)


@_fields
class SynthConfig(_Config):
    num_queries: int = _positive(50)
    docs_per_query: int = _checked(  # candidate pool per topic, incl. the relevant doc
        6, lambda v: v >= 2, "at least 2 (one relevant document and a negative)")
    sentences_per_doc: int = _positive(18)
    tokens_per_sentence: int = _positive(128)
    vocab_size: int = _positive(5000)
    query_terms: int = _positive(5)
    plant_lo: int = _non_negative(0)
    plant_hi: int = 4
    distractor_overlap: float = _unit(0.3)
    noise: float = _unit(0.1)
    title_token_count: int = _non_negative(2)
    # the training segmentation, see `policy`
    max_tokens: int = _positive(DEFAULT_MAX_TOKENS)
    min_tokens: int = _positive(DEFAULT_MIN_TOKENS)
    max_segments: int = _positive(DEFAULT_MAX_SEGMENTS)
    query_token_budget: int = _non_negative(DEFAULT_QUERY_TOKEN_BUDGET)

    def _validate(self) -> None:
        super()._validate()
        if self.min_tokens > self.max_tokens:
            raise ConfigError(f"min_tokens={self.min_tokens} exceeds "
                              f"max_tokens={self.max_tokens}", ("min_tokens", "max_tokens"))
        if self.plant_lo >= self.plant_hi:
            raise ConfigError(f"plant_lo={self.plant_lo} is not below "
                              f"plant_hi={self.plant_hi}", ("plant_lo", "plant_hi"))
        # `generate_corpus` still checks each document, which may have fewer segments
        if self.plant_hi > self.max_segments:
            raise ConfigError(f"plant_hi={self.plant_hi} exceeds "
                              f"max_segments={self.max_segments}",
                              ("plant_hi", "max_segments"))
        if self.query_terms > self.tokens_per_sentence:
            raise ConfigError(f"query_terms={self.query_terms} exceeds "
                              f"tokens_per_sentence={self.tokens_per_sentence}",
                              ("query_terms", "tokens_per_sentence"))
        reserved = self.num_queries * self.query_terms
        if reserved >= self.vocab_size:
            raise ConfigError(f"vocab_size={self.vocab_size} leaves no background "
                              f"terms after num_queries * query_terms = {reserved}",
                              ("num_queries", "query_terms", "vocab_size"))

    def policy(self) -> SegmentationPolicy:
        """The one training segmentation of a collection.

        Synthesis plants each gold segment in it, and `segment`, `train`
        and `select` cut their segments with it, so a gold index and a
        selected index name the same span.
        """
        from .corpus import SegmentationPolicy

        return SegmentationPolicy("training", self.max_tokens, self.min_tokens,
                                  self.max_segments, self.seed, self.query_token_budget)


@_fields
class PipelineConfig(TrainConfig, SynthConfig):
    """Every configuration key: the training and synthetic-collection
    settings, plus what only the commands read.  Paths are optional;
    flags override them."""

    mrr_cutoff: int = _positive(10)
    ndcg_k: int = _positive(10)
    dev_fraction: float = _checked(0.2, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    corpus: str = ""
    queries: str = ""
    qrels: str = ""
    candidates: str = ""
    gold: str = ""
    model: str = ""
    out: str = ""

