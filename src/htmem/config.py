"""Run configuration: one nested dataclass tree, JSON in, defaults applied,
out-of-range values rejected with the offending key path named.

The effective configuration (and its hash) is echoed into every artifact the
pipeline writes, so results stay attributable to exact settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields

from .connectivity import CpcConfig, SptmConfig
from .controller import ExecutionConfig, InverseConfig
from .cvae import CvaeConfig
from .data import DataConfig
from .plangraph import WEIGHT_SCHEMES, PlanningConfig
from .world import MODES, WorldSpec


class ConfigError(ValueError):
    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass
class EvalConfig:
    n_tasks: int = 20
    ablation_tasks: int = 10
    ablation_seeds: tuple = (0, 1, 2)
    oracle_horizon: int = 5
    halluc_pool: int = 256  # generated negatives cached per training context
    seed: int = 55


@dataclass
class RunConfig:
    world: WorldSpec = field(default_factory=WorldSpec)
    data: DataConfig = field(default_factory=DataConfig)
    cvae: CvaeConfig = field(default_factory=CvaeConfig)
    cpc: CpcConfig = field(default_factory=CpcConfig)
    sptm: SptmConfig = field(default_factory=SptmConfig)
    inverse: InverseConfig = field(default_factory=InverseConfig)
    planning: PlanningConfig = field(default_factory=PlanningConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)


def default_config() -> RunConfig:
    return RunConfig()


def _coerce(key: str, value, like):
    """``value`` checked against, and converted to, the type of ``like``.

    ``like`` is the field's default: a tuple's elements follow the type of
    the default's first element, and a field whose default is None takes
    None or follows the integer rules.
    """
    if like is None and value is None:
        return None
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(key, "expected a list")
        return tuple(_coerce(key, v, like[0]) for v in value)
    if isinstance(like, bool):
        if not isinstance(value, bool):
            raise ConfigError(key, "expected a boolean")
    elif like is None or isinstance(like, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(key, "expected a number")
        if isinstance(like, float):
            return float(value)
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(key, "expected an integer")
        return int(value)
    elif isinstance(like, str):
        if not isinstance(value, str):
            raise ConfigError(key, "expected a string")
    return value


def _merge_section(obj, section: str, overrides: dict):
    valid = {f.name for f in fields(obj)}
    for key, value in overrides.items():
        if key not in valid:
            raise ConfigError(f"{section}.{key}", "unknown key")
        setattr(obj, key, _coerce(f"{section}.{key}", value, getattr(obj, key)))


def config_from_dict(d: dict) -> RunConfig:
    cfg = default_config()
    if not isinstance(d, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for section, overrides in d.items():
        if section not in sections:
            raise ConfigError(section, "unknown section")
        if not isinstance(overrides, dict):
            raise ConfigError(section, "expected an object")
        _merge_section(sections[section], section, overrides)
    validate_config(cfg)
    return cfg


def _require(cond, key, message):
    if not cond:
        raise ConfigError(key, message)


def validate_config(cfg: RunConfig) -> None:
    w = cfg.world
    _require(w.mode in MODES, "world.mode", f"must be one of {MODES}")
    _require(w.arena_size > 0, "world.arena_size", "must be positive")
    _require(w.a_max > 0, "world.a_max", "must be positive")
    _require(
        0 < w.agent_radius < w.arena_size / 4,
        "world.agent_radius",
        "must be positive and small relative to the arena",
    )
    _require(w.raster_size >= 4, "world.raster_size", "must be at least 4")
    _require(w.max_walls >= 0, "world.max_walls", "must be nonnegative")
    _require(
        len(w.n_walls) == 2 and 0 <= w.n_walls[0] <= w.n_walls[1] <= w.max_walls,
        "world.n_walls",
        "must be a (min, max) range within max_walls",
    )
    for name in ("wall_thickness", "wall_length_frac", "wall_offset_frac"):
        rng = getattr(w, name)
        _require(
            len(rng) == 2 and 0 < rng[0] <= rng[1],
            f"world.{name}",
            "must be a positive (low, high) range",
        )
    _require(w.min_gap > 2 * w.agent_radius, "world.min_gap", "must exceed the agent diameter")

    d = cfg.data
    _require(d.n_contexts >= 1, "data.n_contexts", "must be at least 1")
    _require(d.trajectories_per_context >= 1, "data.trajectories_per_context", "must be at least 1")
    _require(d.trajectory_length >= 1, "data.trajectory_length", "must be at least 1")
    _require(0 <= d.n_holdout < d.n_contexts, "data.n_holdout", "must leave a training context")
    _require(0 <= d.val_fraction < 1, "data.val_fraction", "must lie in [0, 1)")
    # With one trajectory per context, a far pair for the classifier must lie
    # on the same trajectory, and every step has one only from this length on.
    _require(
        d.trajectories_per_context > 1 or d.trajectory_length >= 2 * cfg.sptm.l - 1,
        "data.trajectories_per_context",
        f"must be at least 2 unless trajectory_length >= {2 * cfg.sptm.l - 1}"
        " (twice the sptm negative offset, minus 1)",
    )
    for section in ("cvae", "cpc", "sptm", "inverse"):
        hidden = getattr(cfg, section).hidden
        _require(
            isinstance(hidden, tuple)
            and all(isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden),
            f"{section}.hidden",
            "must be a list of positive integers",
        )

    g = cfg.cvae
    _require(g.d_z >= 1, "cvae.d_z", "must be at least 1")
    _require(g.beta >= 0, "cvae.beta", "must be nonnegative")
    _require(g.lr > 0, "cvae.lr", "must be positive")
    _require(g.epochs >= 1, "cvae.epochs", "must be at least 1")
    _require(g.batch_size >= 1, "cvae.batch_size", "must be at least 1")

    c = cfg.cpc
    _require(c.d >= 1, "cpc.d", "must be at least 1")
    _require(c.horizon >= 1, "cpc.horizon", "must be at least 1")
    _require(c.n_candidates >= 2, "cpc.n_candidates", "must be at least 2")
    _require(0 <= c.phi <= 1, "cpc.phi", "must lie in [0, 1]")
    _require(c.lr > 0, "cpc.lr", "must be positive")
    _require(c.batch_anchors >= 1, "cpc.batch_anchors", "must be at least 1")

    s = cfg.sptm
    _require(s.d >= 1, "sptm.d", "must be at least 1")
    _require(s.horizon >= 1, "sptm.horizon", "must be at least 1")
    _require(s.l > s.horizon, "sptm.negative_offset", "must exceed the positive horizon")
    _require(0 <= s.phi <= 1, "sptm.phi", "must lie in [0, 1]")
    _require(s.lr > 0, "sptm.lr", "must be positive")
    _require(s.batch_pairs >= 1, "sptm.batch_pairs", "must be at least 1")
    for section, scorer in (("cpc", c), ("sptm", s)):
        for key in ("epochs", "steps_per_epoch", "val_batches"):
            _require(getattr(scorer, key) >= 1, f"{section}.{key}", "must be at least 1")

    i = cfg.inverse
    _require(i.lr > 0, "inverse.lr", "must be positive")
    _require(i.epochs >= 1, "inverse.epochs", "must be at least 1")
    _require(i.batch_size >= 1, "inverse.batch_size", "must be at least 1")

    p = cfg.planning
    _require(p.m_samples >= 0, "planning.m_samples", "must be nonnegative")
    _require(p.scheme in WEIGHT_SCHEMES, "planning.scheme", f"must be one of {WEIGHT_SCHEMES}")
    _require(0 < p.s_shortcut < 1, "planning.s_shortcut", "must lie in (0, 1)")

    e = cfg.execution
    _require(e.n >= 1, "execution.n", "must be at least 1")
    _require(e.r >= 1, "execution.r", "must be at least 1")
    _require(e.tau > 0, "execution.tau", "must be positive")
    _require(e.eps_wp > 0, "execution.eps_wp", "must be positive")
    _require(e.waypoint_steps >= 1, "execution.waypoint_steps", "must be at least 1")

    v = cfg.evaluation
    _require(v.n_tasks >= 1, "evaluation.n_tasks", "must be at least 1")
    _require(v.ablation_tasks >= 1, "evaluation.ablation_tasks", "must be at least 1")
    _require(len(v.ablation_seeds) >= 1, "evaluation.ablation_seeds", "needs at least one seed")
    _require(v.oracle_horizon >= 1, "evaluation.oracle_horizon", "must be at least 1")
    _require(v.halluc_pool >= 0, "evaluation.halluc_pool", "must be nonnegative")


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)

    def listify(x):
        if isinstance(x, tuple):
            return [listify(v) for v in x]
        if isinstance(x, dict):
            return {k: listify(v) for k, v in x.items()}
        return x

    return listify(out)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def provenance(cfg: RunConfig, **extra) -> dict:
    from . import __version__

    return {
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "version": __version__,
        **extra,
    }
