import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htmem.config import ConfigError, RunConfig, config_from_dict, config_hash, config_to_dict
from htmem.plangraph import WEIGHT_SCHEMES
from htmem.world import MODES

SPTM_OFFSET = 20  # default sptm negative offset: 4 * horizon 5


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"data": {"trajectories_per_context": 1}}, "data.trajectories_per_context"),
        (
            {"data": {"trajectories_per_context": 1, "trajectory_length": 2 * SPTM_OFFSET - 2}},
            "data.trajectories_per_context",
        ),
        ({"cpc": {"epochs": 0}}, "cpc.epochs"),
        ({"cpc": {"steps_per_epoch": 0}}, "cpc.steps_per_epoch"),
        ({"cpc": {"val_batches": 0}}, "cpc.val_batches"),
        ({"sptm": {"epochs": 0}}, "sptm.epochs"),
        ({"sptm": {"steps_per_epoch": 0}}, "sptm.steps_per_epoch"),
        ({"sptm": {"val_batches": 0}}, "sptm.val_batches"),
        ({"sptm": {"batch_pairs": 0}}, "sptm.batch_pairs"),
        ({"inverse": {"batch_size": 0}}, "inverse.batch_size"),
        ({"cpc": {"hidden": [0]}}, "cpc.hidden"),
        ({"cvae": {"hidden": ["a"]}}, "cvae.hidden"),
        ({"sptm": {"hidden": [16, -1]}}, "sptm.hidden"),
        ({"inverse": {"hidden": [True]}}, "inverse.hidden"),
        ({"world": {"n_walls": ["a", "b"]}}, "world.n_walls"),
        ({"world": {"n_walls": [1.5, 2]}}, "world.n_walls"),
        ({"world": {"wall_thickness": ["a", 0.2]}}, "world.wall_thickness"),
        ({"evaluation": {"n_tasks": 0}}, "evaluation.n_tasks"),
        ({"evaluation": {"ablation_tasks": 0}}, "evaluation.ablation_tasks"),
        ({"sptm": {"negative_offset": "x"}}, "sptm.negative_offset"),
        ({"sptm": {"negative_offset": 25.7}}, "sptm.negative_offset"),
        ({"data": {"n_holdout": 0}}, "data.n_holdout"),
        ({"world": {"wall_length_frac": [0.5, 0.9]}}, "world.wall_length_frac"),
        ({"world": {"wall_thickness": [0.05, 0.8]}}, "world.wall_thickness"),
        # a context without a wall has no cross-wall task
        ({"world": {"n_walls": [0, 1]}}, "world.n_walls"),
        # no two valid positions lie 3.6 apart, so make_task finds no task
        ({"execution": {"tau": 3.6}}, "execution.tau"),
        ({"planning": {"m_samples": True}}, "planning.m_samples"),
    ],
)
def test_config_rejects_values_that_cannot_run(overrides, key):
    with pytest.raises(ConfigError) as info:
        config_from_dict(overrides)
    assert info.value.key == key
    assert key in str(info.value)


def float_fields():
    """(section, key, default) of every float field and float-tuple field of
    the ``RunConfig`` tree."""
    cfg = RunConfig()
    out = []
    for section in dataclasses.fields(cfg):
        for f in dataclasses.fields(getattr(cfg, section.name)):
            default = getattr(getattr(cfg, section.name), f.name)
            if isinstance(default, float) or (isinstance(default, tuple) and isinstance(default[0], float)):
                out.append((section.name, f.name, default))
    return out


FLOAT_FIELDS = float_fields()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, name, default", FLOAT_FIELDS, ids=[f"{s}.{n}" for s, n, _ in FLOAT_FIELDS])
def test_config_rejects_non_finite_floats_naming_the_key(section, name, default, value):
    # a tuple gets the value as its last element
    override = [*default[:-1], value] if isinstance(default, tuple) else value
    with pytest.raises(ConfigError, match="expected a finite number") as info:
        config_from_dict({section: {name: override}})
    assert info.value.key == f"{section}.{name}"


def test_the_float_fields_include_scalars_and_tuples():
    keys = {f"{s}.{n}" for s, n, _ in FLOAT_FIELDS}
    assert {"world.arena_size", "world.a_max", "world.wall_offset_frac", "cvae.lr", "execution.tau"} <= keys


def test_scorer_sections_keep_their_keys_defaults_and_hash():
    cfg = config_to_dict(RunConfig())
    shared = {
        "d": 16,
        "hidden": [64, 64],
        "horizon": 5,
        "phi": 0.25,
        "lr": 0.001,
        "epochs": 25,
        "steps_per_epoch": 200,
        "val_batches": 20,
    }
    assert cfg["cpc"] == {**shared, "n_candidates": 16, "batch_anchors": 64, "seed": 22}
    assert cfg["sptm"] == {**shared, "negative_offset": None, "batch_pairs": 128, "seed": 33}
    assert config_hash(RunConfig()) == "3d89f83714e823a3a35cea94aa8a29dd1f393003f40bbbb014291694aec0ee16"


def test_optional_and_tuple_fields_follow_the_integer_rules():
    assert config_from_dict({"sptm": {"negative_offset": None}}).sptm.negative_offset is None
    assert config_from_dict({"sptm": {"negative_offset": 25.0}}).sptm.negative_offset == 25
    assert config_from_dict({"world": {"n_walls": [1.0, 2]}}).world.n_walls == (1, 2)


def test_one_trajectory_per_context_accepted_once_every_step_has_a_far_partner():
    cfg = config_from_dict(
        {"data": {"trajectories_per_context": 1, "trajectory_length": 2 * SPTM_OFFSET - 1}}
    )
    assert cfg.data.trajectories_per_context == 1


def _positive_range(low, high):
    """A (low, high) pair with 0 < low <= high, as ints or floats."""
    number = st.floats(low, high)
    if high >= 1:
        number |= st.integers(max(1, int(low)), int(high))
    return st.lists(number, min_size=2, max_size=2).map(sorted)


@st.composite
def valid_overrides(draw):
    """Config overrides drawn from the ranges ``validate_config`` accepts."""
    max_walls = draw(st.integers(1, 4))
    low_walls = draw(st.integers(1, max_walls))
    sptm_horizon = draw(st.integers(1, 8))
    negative_offset = draw(
        st.one_of(st.none(), st.integers(sptm_horizon + 1, 40), st.integers(sptm_horizon + 1, 40).map(float))
    )
    offset = 4 * sptm_horizon if negative_offset is None else int(negative_offset)
    n_contexts = draw(st.integers(2, 50))
    per_context = draw(st.integers(1, 20))
    hidden = st.lists(st.integers(1, 64), max_size=3)
    return {
        "world": {
            "mode": draw(st.sampled_from(MODES)),
            "max_walls": max_walls,
            "n_walls": [low_walls, draw(st.integers(low_walls, max_walls))],
            "wall_thickness": draw(_positive_range(1e-3, 0.2)),
            # the longest wall leaves min_gap 0.6 of the arena side 2.8 open
            "wall_length_frac": draw(_positive_range(0.1, 0.78)),
            "wall_offset_frac": draw(_positive_range(0.1, 1.0)),
        },
        "data": {
            "n_contexts": n_contexts,
            "n_holdout": draw(st.integers(1, n_contexts - 1)),
            "trajectories_per_context": per_context,
            # one trajectory per context needs a far partner for every step
            "trajectory_length": draw(st.integers(1 if per_context > 1 else 2 * offset - 1, 100)),
            "val_fraction": draw(st.floats(0.0, 0.99)),
        },
        "cvae": {"hidden": draw(hidden), "beta": draw(st.floats(0.0, 10.0) | st.integers(0, 10))},
        "cpc": {
            "hidden": draw(hidden),
            "horizon": draw(st.integers(1, 10)),
            "phi": draw(st.floats(0.0, 1.0)),
            "lr": draw(st.floats(1e-6, 1.0)),
        },
        "sptm": {"hidden": draw(hidden), "horizon": sptm_horizon, "negative_offset": negative_offset},
        "inverse": {"hidden": draw(hidden)},
        "planning": {"scheme": draw(st.sampled_from(WEIGHT_SCHEMES)), "m_samples": draw(st.integers(0, 1000))},
    }


@settings(max_examples=200, deadline=None)
@given(valid_overrides())
def test_config_round_trips_through_its_dict(overrides):
    cfg = config_from_dict(overrides)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
