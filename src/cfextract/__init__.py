"""Model-extraction laboratory for axis-parallel classifiers.

Targets live on a quantized feature grid; a metered API answers each query
with a label and an optional region-restricted counterfactual. The package
trains targets, serves exact and heuristic oracles, runs the region-queue
extraction attack and three baselines, and verifies equivalence guarantees
and query-complexity bounds.
"""

__version__ = "0.1.0"

from .baselines import (AttackBudget, LeafIdOracle, SurrogateSpec, cf_attack,
                        default_budget, dualcf_attack, pathfinding_extract)
from .cart import TrainConfig, cost_complexity_prune, prune, train_forest, train_tree
from .datasets import DatasetBundle, ingest_csv
from .distances import Distance
from .errors import (CapacityError, ContractViolation, DataFormatError,
                     UnsupportedModelError)
from .evaluation import (BoundReport, FidelityReport, anytime_fidelity, bound_report,
                         fidelity, functional_equivalence, measured_ratio,
                         snapshot_fidelities, uniform_points)
from .generators import (AdversarialSpec, gen_adversarial, gen_chessboard,
                         gen_random_forest, gen_random_tree)
from .models import (CatNode, ForestModel, Leaf, ModelStats, SplitNode, TreeModel,
                     boxes_to_tree, load_model, model_from_json_dict, model_json_dict,
                     save_model, stats)
from .oracles import (CounterfactualOracle, OracleConfig, QueryLog, QueryRecord,
                      exact_ensemble_cf, exact_tree_cf, heuristic_cf, line_search)
from .regions import (Region, center, contains, full_region, grid_volume, intersect,
                      region_json, sample_point, split, subtract)
from .schema import (BinaryFeature, CategoricalFeature, FeatureSchema, NumericFeature,
                     OrdinalFeature, Point, load_schema, save_schema)
from .tra import AttackResult, ExtractionState, Snapshot, tra_extract
