"""Run configuration: one nested dataclass tree, JSON in, defaults applied,
out-of-range values rejected with the offending key path named.

Every failure a config causes, here or later in a run, is a ``ConfigError``
naming that path; the ``world.*`` checks live in ``world`` and run here too.

A report's metadata carries the configuration's hash, so results stay
attributable to exact settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from .connectivity import CpcConfig, SptmConfig
from .controller import ExecutionConfig, InverseConfig
from .cvae import CvaeConfig
from .data import DataConfig
from .plangraph import WEIGHT_SCHEMES, PlanningConfig
from .world import BlockWorld, ConfigError, WorldSpec, require


@dataclass
class EvalConfig:
    n_tasks: int = 20
    ablation_tasks: int = 10
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


def _coerce(key: str, value, like):
    """``value`` checked against, and converted to, the type of ``like``.

    ``like`` is the field's default: a tuple's elements follow the type of
    the default's first element, and a field whose default is None takes
    None or follows the integer rules. A float field takes finite numbers
    only.
    """
    if like is None and value is None:
        return None
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(key, "expected a list")
        return tuple(_coerce(key, v, like[0]) for v in value)
    if like is None or isinstance(like, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(key, "expected a number")
        if isinstance(like, float):
            if not math.isfinite(value):
                raise ConfigError(key, "expected a finite number")
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
    cfg = RunConfig()
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


def validate_config(cfg: RunConfig) -> None:
    w = cfg.world
    BlockWorld(w).check_generator()  # the simulator's checks, then the generator's

    d = cfg.data
    require(d.n_contexts >= 1, "data.n_contexts", "must be at least 1")
    require(d.trajectories_per_context >= 1, "data.trajectories_per_context", "must be at least 1")
    require(d.trajectory_length >= 1, "data.trajectory_length", "must be at least 1")
    # The benchmark draws its tasks from the held-out contexts.
    require(
        1 <= d.n_holdout < d.n_contexts,
        "data.n_holdout",
        "must be at least 1 and leave a training context",
    )
    require(0 <= d.val_fraction < 1, "data.val_fraction", "must lie in [0, 1)")
    # With one trajectory per context, a far pair for the classifier must lie
    # on the same trajectory, and every step has one only from this length on.
    require(
        d.trajectories_per_context > 1 or d.trajectory_length >= 2 * cfg.sptm.l - 1,
        "data.trajectories_per_context",
        f"must be at least 2 unless trajectory_length >= {2 * cfg.sptm.l - 1}"
        " (twice the sptm negative offset, minus 1)",
    )
    for section in ("cvae", "cpc", "sptm", "inverse"):
        hidden = getattr(cfg, section).hidden
        require(
            isinstance(hidden, tuple)
            and all(isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden),
            f"{section}.hidden",
            "must be a list of positive integers",
        )

    g = cfg.cvae
    require(g.d_z >= 1, "cvae.d_z", "must be at least 1")
    require(g.beta >= 0, "cvae.beta", "must be nonnegative")
    require(g.lr > 0, "cvae.lr", "must be positive")
    require(g.epochs >= 1, "cvae.epochs", "must be at least 1")
    require(g.batch_size >= 1, "cvae.batch_size", "must be at least 1")

    for section, scorer in (("cpc", cfg.cpc), ("sptm", cfg.sptm)):
        require(scorer.d >= 1, f"{section}.d", "must be at least 1")
        require(scorer.horizon >= 1, f"{section}.horizon", "must be at least 1")
        require(0 <= scorer.phi <= 1, f"{section}.phi", "must lie in [0, 1]")
        require(scorer.lr > 0, f"{section}.lr", "must be positive")
        for key in ("epochs", "steps_per_epoch", "val_batches"):
            require(getattr(scorer, key) >= 1, f"{section}.{key}", "must be at least 1")
    require(cfg.cpc.n_candidates >= 2, "cpc.n_candidates", "must be at least 2")
    require(cfg.cpc.batch_anchors >= 1, "cpc.batch_anchors", "must be at least 1")
    require(cfg.sptm.l > cfg.sptm.horizon, "sptm.negative_offset", "must exceed the positive horizon")
    require(cfg.sptm.batch_pairs >= 1, "sptm.batch_pairs", "must be at least 1")

    i = cfg.inverse
    require(i.lr > 0, "inverse.lr", "must be positive")
    require(i.epochs >= 1, "inverse.epochs", "must be at least 1")
    require(i.batch_size >= 1, "inverse.batch_size", "must be at least 1")

    p = cfg.planning
    require(p.m_samples >= 0, "planning.m_samples", "must be nonnegative")
    require(p.scheme in WEIGHT_SCHEMES, "planning.scheme", f"must be one of {WEIGHT_SCHEMES}")
    require(0 < p.s_shortcut < 1, "planning.s_shortcut", "must lie in (0, 1)")

    e = cfg.execution
    require(e.n >= 1, "execution.n", "must be at least 1")
    require(e.r >= 1, "execution.r", "must be at least 1")
    # A task's start and goal lie farther apart than tau, and no two valid
    # positions lie farther apart than this. Only the impossible values go:
    # a tau just below it can still use up make_task's tries.
    farthest = (w.arena_size - 2 * w.agent_radius) * math.sqrt(2)
    require(
        0 < e.tau < farthest,
        "execution.tau",
        f"must be positive and below {farthest:.4g}, the farthest start-goal distance",
    )
    require(e.eps_wp > 0, "execution.eps_wp", "must be positive")
    require(e.waypoint_steps >= 1, "execution.waypoint_steps", "must be at least 1")

    v = cfg.evaluation
    require(v.n_tasks >= 1, "evaluation.n_tasks", "must be at least 1")
    require(v.ablation_tasks >= 1, "evaluation.ablation_tasks", "must be at least 1")
    require(v.oracle_horizon >= 1, "evaluation.oracle_horizon", "must be at least 1")
    require(v.halluc_pool >= 0, "evaluation.halluc_pool", "must be nonnegative")


def config_to_dict(cfg: RunConfig) -> dict:
    """The config as JSON data: nested dicts, with lists for tuples."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
