"""Desk-scale open-set semi-supervised learning with selective non-alignment.

A compact, framework-free sandbox: analytic losses with verified gradients,
a tiny exactly-differentiated network, seeded synthetic open-set scenarios,
and an experiment runner with sweeps and golden-file regression.
"""

__version__ = "0.1.0"

from .data import EmbeddingBatch
from .heads import HeadWeights
from .net import NetSpec, ParamState
from .prototypes import PrototypeSet
from .sna import GateMask, SnaWeights
from .synthdata import ScenarioSpec, Split
from .trainer import RunLog, TrainConfig

__all__ = [
    "EmbeddingBatch", "HeadWeights", "NetSpec", "ParamState",
    "PrototypeSet", "GateMask", "SnaWeights", "ScenarioSpec", "Split", "RunLog",
    "TrainConfig", "__version__",
]
