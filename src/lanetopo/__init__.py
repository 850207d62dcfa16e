"""Deterministic lane-centerline detection and topology reasoning on BEV grids."""

from .bev import BevGrid, GridSpec, MlpWeights
from .config import LossCoefficients, PipelineConfig
from .decoder import CenterlinePrediction, decoder_forward
from .geometry import Polyline
from .losses import Assignment, LossBreakdown, total_loss
from .metrics import EvalReport
from .pipeline import ModelOutputs, PipelineResult, ablation_grid, run_pipeline
from .scene import Scene, SceneParams, render_bev_features, synth_scene
from .sdmap import SdMapInstance
from .weights import ModelWeights, init_model_weights, load_model_weights, save_model_weights

__all__ = [
    "Assignment",
    "BevGrid",
    "CenterlinePrediction",
    "EvalReport",
    "GridSpec",
    "LossBreakdown",
    "LossCoefficients",
    "MlpWeights",
    "ModelOutputs",
    "ModelWeights",
    "PipelineConfig",
    "PipelineResult",
    "Polyline",
    "Scene",
    "SceneParams",
    "SdMapInstance",
    "ablation_grid",
    "decoder_forward",
    "init_model_weights",
    "load_model_weights",
    "render_bev_features",
    "run_pipeline",
    "save_model_weights",
    "synth_scene",
    "total_loss",
]

__version__ = "0.1.0"
