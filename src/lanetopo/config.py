"""Pipeline configuration: model sizes, grid layout and toggles.

The values the method fixes are module constants, not fields: the working
area, the z range, the SD road-type count and the deformable sampling
points. Loss weights are :class:`LossCoefficients`, passed to
:func:`lanetopo.losses.total_loss`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

from .bev import GridSpec

# The BEV working area (meters) that every scene lies in and every grid starts
# from, the z range of decoded points, the number of SD road types, and the
# sampling points per head of every deformable attention (Deformable DETR's 4).
X_MIN, X_MAX = -50.0, 50.0
Y_MIN, Y_MAX = -25.0, 25.0
Z_MIN, Z_MAX = -5.0, 5.0
N_SEMANTIC_TYPES = 3
SAMPLE_POINTS = 4


class ConfigError(ValueError):
    """Raised for invalid or inconsistent pipeline configuration."""


@dataclass
class LossCoefficients:
    top: float = 5.0
    cls: float = 1.5
    det: float = 0.025
    mask: float = 1.0
    mp: float = 7.0


@dataclass
class PipelineConfig:
    """Everything the pipeline needs besides the scene and the weights; loss
    weights are :class:`LossCoefficients`, passed to ``total_loss``.

    Defaults are the full-size model configuration; :meth:`desk` returns a
    small configuration suited to fast tests.
    """

    n_real: int = 150
    n_virtual: int = 150
    k: int = 11
    channels: int = 256
    layers: int = 4
    heads: int = 8
    ffn_dim: int = 512

    grid_h: int = 100
    grid_w: int = 200
    resolution: float = 0.5

    sd_layers: int = 1
    sd_heads: int = 8

    pgm: bool = True
    pmf: bool = True
    sd: bool = False
    hybrid_attention: bool = True
    rvs_self_attention: bool = True

    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not _finite(value):
                raise ConfigError(f"{name} must be a finite number")
        if self.k < 2:
            raise ConfigError("k must be at least 2")
        if self.n_real < 1 or self.n_virtual < 0:
            raise ConfigError("need at least one real query and n_virtual >= 0")
        if self.layers < 1:
            raise ConfigError("decoder needs at least one layer")
        if self.heads < 1 or self.sd_heads < 1:
            raise ConfigError("heads and sd_heads must be at least 1")
        if self.sd_layers < 0:
            raise ConfigError("sd_layers must be at least 0")
        if self.grid_h < 2 or self.grid_w < 2:
            raise ConfigError("grid_h and grid_w must be at least 2 (row and column readouts)")
        if self.resolution <= 0:
            raise ConfigError("resolution must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be at least 0")
        if self.ffn_dim < 1:
            raise ConfigError("ffn_dim must be at least 1")
        if self.channels < 4:
            raise ConfigError("channels must be at least 4 (BEV feature bands)")
        if self.channels % self.heads != 0:
            raise ConfigError("channels must be divisible by heads")
        if self.channels % 4 != 0:
            raise ConfigError("channels must be divisible by 4 (position encoding)")
        if self.sd and self.channels % self.sd_heads != 0:
            raise ConfigError("channels must be divisible by sd_heads")

    def check_runnable(self) -> None:
        """Cross-toggle checks deferred to pipeline execution."""
        if self.pmf and not self.pgm:
            raise ConfigError("points-mask fusion requires points-guided masks (pmf needs pgm)")

    @property
    def n_queries(self) -> int:
        return self.n_real + self.n_virtual

    @property
    def grid(self) -> GridSpec:
        return GridSpec(
            h=self.grid_h, w=self.grid_w, x_min=X_MIN, y_min=Y_MIN, resolution=self.resolution
        )

    @classmethod
    def desk(cls, **overrides) -> PipelineConfig:
        """Small configuration for fast deterministic tests (coarser grid)."""
        base = dict(
            n_real=16,
            n_virtual=16,
            channels=32,
            layers=2,
            heads=2,
            ffn_dim=64,
            sd_heads=2,
            grid_h=50,
            grid_w=100,
            resolution=1.0,
        )
        base.update(overrides)
        return cls(**base)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> PipelineConfig:
        """A config from a document's fields, each checked against its
        declared type before any value check."""
        _check_fields(d, cls)
        return cls(**d)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> PipelineConfig:
        d = json.loads(Path(path).read_text())
        if not isinstance(d, dict):
            raise ConfigError("a config document must be a JSON object")
        return cls.from_dict(d)


def _finite(value) -> bool:
    """False for a NaN or infinite float and for an int beyond the float
    range; True for every other value, numbers or not."""
    if not isinstance(value, numbers.Real):
        return True
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
}


def _fits(value, kind) -> bool:
    """Whether a document value fits a declared field type: ``bool``,
    ``int`` (not a bool) or ``float`` (an int is accepted)."""
    if kind is bool:
        return isinstance(value, bool)
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


def _check_fields(d: dict, cls: type) -> None:
    """Raise ConfigError for the first key of ``d`` that is not a field of
    the dataclass ``cls`` or whose value does not fit the field's type."""
    types = typing.get_type_hints(cls)
    unknown = set(d) - types.keys()
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key, value in d.items():
        kind = types[key]
        if not _fits(value, kind):
            raise ConfigError(f"config field {key} must be {_TYPE_NAMES[kind]}, got {value!r}")
