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
    ],
)
def test_config_rejects_values_that_cannot_run(overrides, key):
    with pytest.raises(ConfigError) as info:
        config_from_dict(overrides)
    assert info.value.key == key
    assert key in str(info.value)


def test_one_trajectory_per_context_accepted_once_every_step_has_a_far_partner():
    cfg = config_from_dict(
        {"data": {"trajectories_per_context": 1, "trajectory_length": 2 * SPTM_OFFSET - 1}}
    )
    assert cfg.data.trajectories_per_context == 1
