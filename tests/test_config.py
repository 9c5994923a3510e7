import pytest

from htmem.config import ConfigError, config_from_dict

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
        ({"evaluation": {"ablation_seeds": ["x"]}}, "evaluation.ablation_seeds"),
        ({"evaluation": {"ablation_seeds": [0.5]}}, "evaluation.ablation_seeds"),
        ({"sptm": {"negative_offset": "x"}}, "sptm.negative_offset"),
        ({"sptm": {"negative_offset": 25.7}}, "sptm.negative_offset"),
    ],
)
def test_config_rejects_values_that_cannot_run(overrides, key):
    with pytest.raises(ConfigError) as info:
        config_from_dict(overrides)
    assert info.value.key == key
    assert key in str(info.value)


def test_optional_and_tuple_fields_follow_the_integer_rules():
    assert config_from_dict({"sptm": {"negative_offset": None}}).sptm.negative_offset is None
    assert config_from_dict({"sptm": {"negative_offset": 25.0}}).sptm.negative_offset == 25
    assert config_from_dict({"world": {"n_walls": [1.0, 2]}}).world.n_walls == (1, 2)


def test_one_trajectory_per_context_accepted_once_every_step_has_a_far_partner():
    cfg = config_from_dict(
        {"data": {"trajectories_per_context": 1, "trajectory_length": 2 * SPTM_OFFSET - 1}}
    )
    assert cfg.data.trajectories_per_context == 1
