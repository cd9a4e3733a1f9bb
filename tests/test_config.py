"""Config file parsing, validation, and round-tripping."""

import pytest

from archsim.config import (
    dump_config,
    load_config_file,
    parse_config_text,
    sim_config_from_mapping,
    sweep_config_from_mapping,
)
from archsim.engine import SimConfig
from archsim.errors import ConfigError
from archsim.sweep import SweepConfig


def test_parse_basics():
    text = """
# experiment setup
c = 400
w = 7            # inline comments allowed
seed = 12
trigger_threshold = 0.4
"""
    values = parse_config_text(text)
    assert values == {"c": 400, "w": 7, "seed": 12, "trigger_threshold": 0.4}


def test_parse_int_list():
    values = parse_config_text("c_levels = 200, 300,350\nw_levels = 1\n")
    assert values["c_levels"] == (200, 300, 350)
    assert values["w_levels"] == (1,)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("c = 400\nfoo = 3\n", "line 2"),
        ("foo = 3\n", "foo"),
        ("c = 400\nc = 300\n", "duplicate"),
        ("c = abc\n", "bad value"),
        ("c_levels = 1,x,3\n", "comma-separated"),
        ("just some words\n", "key = value"),
        ("c = 1\nw = 2\nq = 3\n", "run.cfg: line 3: unknown key 'q'"),
    ],
)
def test_parse_errors_are_located(text, needle, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config_file(path)
    assert str(err.value).startswith(f"{path}: line ")  # names the file and line
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("c = 4_00\n", "bad value '4_00' for 'c'"),
        ("c = +7\n", "bad value '+7' for 'c'"),
        ("c = \u0664\u0660\u0660\n", "bad value '\u0664\u0660\u0660' for 'c'"),
        ("max_steps = 1_000\n", "bad value '1_000' for 'max_steps'"),
        ("c_levels = 2_00, \u0663\u0660\u0660\n", "comma-separated"),
        ("w_levels = 1, +3\n", "comma-separated"),
        ("c_levels = 200,,300\n", "comma-separated"),
        ("w_levels = 1,3,\n", "comma-separated"),
    ],
)
def test_config_ints_take_the_measurement_grammar(text, needle):
    """An int key or list holds what a measurement CSV field may: -?[0-9]+."""
    with pytest.raises(ConfigError, match="line 1: ") as err:
        parse_config_text(text)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("trigger_threshold = \u0660.\u0665\n",
         "bad value '\u0660.\u0665' for 'trigger_threshold'"),
        ("d_max = 1_0.5\n", "bad value '1_0.5' for 'd_max'"),
        ("threshold_factor = +3\n", "bad value '+3' for 'threshold_factor'"),
        ("d_max = .5\n", "bad value '.5' for 'd_max'"),
        ("d_max = 5.\n", "bad value '5.' for 'd_max'"),
        ("d_max = inf\n", "bad value 'inf' for 'd_max'"),
        ("trigger_threshold = nan\n", "bad value 'nan' for 'trigger_threshold'"),
    ],
)
def test_config_floats_take_an_ascii_grammar(text, needle):
    """A float key holds -?[0-9]+(.[0-9]+)?([eE][-+]?[0-9]+)? only."""
    with pytest.raises(ConfigError, match="line 1: ") as err:
        parse_config_text(text)
    assert needle in str(err.value)


def test_config_ints_keep_signs_and_list_spacing():
    values = parse_config_text("base_seed = -3\nc_levels = 10 ,20,  30\n")
    assert values == {"base_seed": -3, "c_levels": (10, 20, 30)}


def test_run_mapping_requires_c_and_w():
    with pytest.raises(ConfigError):
        sim_config_from_mapping({"c": 400})
    with pytest.raises(ConfigError):
        sim_config_from_mapping({"w": 7})
    cfg = sim_config_from_mapping({"c": 400, "w": 7})
    assert (cfg.c, cfg.w, cfg.W, cfg.L) == (400, 7, 19, 60)


def test_run_mapping_rejects_sweep_keys():
    with pytest.raises(ConfigError) as err:
        sim_config_from_mapping({"c": 400, "w": 7, "c_levels": (200,)})
    assert "single run" in str(err.value)


def test_run_overrides_win():
    cfg = sim_config_from_mapping({"c": 400, "w": 7, "seed": 1}, seed=99)
    assert cfg.seed == 99
    # a None override means "not given on the command line"
    cfg = sim_config_from_mapping({"c": 400, "w": 7, "seed": 1}, seed=None)
    assert cfg.seed == 1


def test_similarity_keys_rebuild_spec():
    cfg = sim_config_from_mapping({"c": 10, "w": 3, "trigger_threshold": 0.8, "d_max": 5.0})
    assert cfg.trigger_threshold == 0.8
    assert cfg.d_max == 5.0
    default = sim_config_from_mapping({"c": 10, "w": 3, "vision_radius": 4})
    assert default.d_max == 4.0  # vision radius


def test_sim_config_round_trip():
    cfg = SimConfig(c=123, w=5, W=21, L=70, seed=9, max_steps=777, spawn_margin=8,
                    trigger_threshold=0.3, d_max=1e-05)
    back = sim_config_from_mapping(parse_config_text(dump_config(cfg)))
    assert back == cfg


def test_sweep_config_round_trip(tmp_path):
    cfg = SweepConfig(c_levels=(50, 80), w_levels=(1, 3), replicates=2, base_seed=4,
                      threshold_factor=1e+16)
    path = tmp_path / "sweep.cfg"
    path.write_text(dump_config(cfg))
    back = sweep_config_from_mapping(load_config_file(path))
    assert back == cfg
    assert back.c_levels == (50, 80)
    assert back.w_levels == (1, 3)
    assert back.replicates == 2
    assert back.base_seed == 4
    # the sidecar pins d_max explicitly, so per-run configs are identical
    assert back.sim_config(50, 1, 0) == cfg.sim_config(50, 1, 0)


def test_sweep_defaults():
    cfg = sweep_config_from_mapping({})
    assert cfg.c_levels == (200, 300, 350, 400, 450)
    assert cfg.w_levels == (1, 3, 5, 7, 9, 11, 13)
    assert cfg.replicates == 3
    assert cfg.W == 19


def test_sweep_mapping_rejects_unknown():
    with pytest.raises(ConfigError):
        sweep_config_from_mapping({"q": 1})
