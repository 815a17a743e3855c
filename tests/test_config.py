"""The one config reader: type rule, unknown and missing keys, echo round trip."""

import dataclasses
import math

import pytest

from phasesynth.attention import DtamConfig
from phasesynth.config import finite, integral
from phasesynth.errors import ConfigError
from phasesynth.losses import LossWeights
from phasesynth.model import ModelConfig
from phasesynth.phantom import PhantomConfig
from phasesynth.training import TrainConfig

# one non-default value in every field, nested configs included
NON_DEFAULT = [
    PhantomConfig(image_size=32, case_count=9, class_balance=0.25, times=(0.2, 0.4, 0.9),
                  benign_intensity=(0.2, 0.3), malignant_intensity=(0.5, 0.6),
                  amplitude=(0.1, 0.2), radius=(3.0, 5.0), background=(0.3, 0.5),
                  noise_sigma=0.02, time_jitter=0.5, master_seed=3,
                  split_fractions=(0.6, 0.2, 0.2)),
    TrainConfig(epochs=7, batch_size=3, base_lr=2e-3, warmup_epochs=2, seed=9,
                ablation="no_dtam", weights=LossWeights(0.5, 2.0, 3.0, 0.0),
                model=ModelConfig(32, 4, 16, 1, 0.4, 2, 2.0)),
    ModelConfig(image_size=32, patch_size=4, embed_dim=16, depth=0, sigma=1.5,
                head_count=8, omega=1.0),
    LossWeights(dice=0.5, ce=0.25, cls=2.0, tcc=0.0),
    DtamConfig(sigma=0.3, head_count=2),
]
CLASSES = [type(cfg) for cfg in NON_DEFAULT]


@pytest.mark.parametrize("cfg", NON_DEFAULT, ids=[c.__name__ for c in CLASSES])
def test_from_dict_of_echo_round_trips(cfg):
    echo = cfg.echo()
    assert list(echo) == [f.name for f in dataclasses.fields(cfg)]
    assert echo != type(cfg)().echo()
    again = type(cfg).from_dict(echo, complete=True)
    assert again == cfg
    assert again.echo() == echo


def test_model_echo_is_the_checkpoint_echo():
    assert ModelConfig().echo() == {"image_size": 64, "patch_size": 8, "embed_dim": 64,
                                    "depth": 2, "sigma": 0.7, "head_count": 4,
                                    "omega": math.pi}


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_unknown_key_is_named(cls):
    with pytest.raises(ConfigError, match=f"{cls.noun} 'bogus': unknown key"):
        cls.from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match=f"{cls.noun} must be a JSON object"):
        cls.from_dict([])


def test_complete_requires_every_key_nested_too():
    echo = TrainConfig().echo()
    assert TrainConfig.from_dict({}) == TrainConfig()
    del echo["model"]["omega"]
    assert TrainConfig.from_dict(echo).model.omega == math.pi
    with pytest.raises(ConfigError, match="model config is missing keys \\['omega'\\]"):
        TrainConfig.from_dict(echo, complete=True)
    with pytest.raises(ConfigError, match="'seed'"):
        TrainConfig.from_dict({k: v for k, v in TrainConfig().echo().items() if k != "seed"},
                              complete=True)


def test_partial_nested_config_is_read_over_its_defaults():
    cfg = TrainConfig.from_dict({"model": {"sigma": 1}, "weights": {"tcc": 0}})
    assert cfg.model == ModelConfig(sigma=1.0)
    assert cfg.weights == LossWeights(tcc=0.0)
    assert type(cfg.model.sigma) is float and type(cfg.weights.tcc) is float


@pytest.mark.parametrize("value", [64, 64.0])
def test_integral_takes_whole_numbers(value):
    assert integral(value) == 64 and type(integral(value)) is int


@pytest.mark.parametrize("value", [64.7, "64", True, None, math.nan, math.inf])
def test_integral_refuses_the_rest(value):
    with pytest.raises(ValueError):
        integral(value)


@pytest.mark.parametrize("value", [0, 3, 0.5, -2.5, 1e300])
def test_finite_takes_finite_numbers(value):
    assert finite(value) == value and type(finite(value)) is float


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5], math.nan, math.inf,
                                   -math.inf])
def test_finite_refuses_the_rest(value):
    with pytest.raises(ValueError):
        finite(value)


@pytest.mark.parametrize("d, key", [
    ({"ablation": 5}, "ablation"), ({"base_lr": 10 ** 400}, "base_lr"),
    ({"model": {"head_count": "4"}}, "head_count"), ({"weights": {"cls": None}}, "cls"),
])
def test_train_config_type_errors_name_the_key(d, key):
    with pytest.raises(ConfigError, match=f"train config .*'{key}'"):
        TrainConfig.from_dict(d)


@pytest.mark.parametrize("d", [{"times": [0.1, 0.5, math.nan]}, {"radius": [4, 5, 6]},
                               {"amplitude": "0.2 0.3"}, {"background": [0.3, True]}])
def test_phantom_tuple_fields_take_as_many_finite_numbers_as_the_default(d):
    with pytest.raises(ConfigError, match=f"phantom config '{next(iter(d))}'"):
        PhantomConfig.from_dict(d)
