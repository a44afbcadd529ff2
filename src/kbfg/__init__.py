"""Knowledge-based feature generation.

Given a labeled symbolic dataset and a relational knowledge base, this
package builds new features three ways: relational expansion of existing
feature values, recursive induction over the values of a feature (training
a classifier on a derived problem and composing it back as a feature), and
a divide-&-conquer driver that runs the recursive generator in local
contexts selected by information gain.  An evaluation harness quantifies
how much the generated features help downstream learners, and reads each
dataset's difficulty (MAA) off the same cross-validated grid.
"""

from kbfg.kb import KnowledgeBase, Relation, load_kb
from kbfg.data import Dataset, Example, load_dataset, materialize
from kbfg.features import (
    BaseFeature,
    ClassifierFeature,
    RelationFeature,
    evaluate_feature,
)
from kbfg.aggregators import AggregatorInstance
from kbfg.expand import expand_features
from kbfg.recursive import GenerationConfig, generate_features
from kbfg.deep import DeepConfig, GenerationReport, deep_generate, select_feature
from kbfg.learners import (
    TrainConfig,
    cross_validate,
    train_decision_tree,
    train_knn,
    train_linear,
)
from kbfg.stats import friedman_test, paired_t_test
from kbfg.harness import HarnessConfig, run_experiment
from kbfg.synth import ScenarioSpec, gen_disorder_scenario, gen_random_tasks

__all__ = [
    "AggregatorInstance",
    "BaseFeature",
    "ClassifierFeature",
    "Dataset",
    "DeepConfig",
    "Example",
    "GenerationConfig",
    "GenerationReport",
    "HarnessConfig",
    "KnowledgeBase",
    "Relation",
    "RelationFeature",
    "ScenarioSpec",
    "TrainConfig",
    "cross_validate",
    "deep_generate",
    "evaluate_feature",
    "expand_features",
    "friedman_test",
    "gen_disorder_scenario",
    "gen_random_tasks",
    "generate_features",
    "load_dataset",
    "load_kb",
    "materialize",
    "paired_t_test",
    "run_experiment",
    "select_feature",
    "train_decision_tree",
    "train_knn",
    "train_linear",
]
