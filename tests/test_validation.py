"""The whole ``validate`` matrix, pinned bit for bit.

The acceptance tests check each row against its published figure within the
row's tolerance, which a rerouted computation still passes if it moves the
last bit. Here every row's group, name, predicted value (as ``float.hex``),
expected value and tolerance is pinned. The values were captured while the
inference rows still ran through their own latency function and the
embodied rows read per-unit result objects.
"""

import pytest

from carboncast.types import ConfigError
from carboncast.validation import run_validation

MATRIX = [
    ("parameters", "T5", "0x1.69d3c36113405p+3", 11.3, 0.05),
    ("parameters", "GPT3", "0x1.5d268db8bac71p+7", 174.58, 0.05),
    ("parameters", "XLM", "0x1.1db22d0e56042p-1", 0.557, 0.05),
    ("parameters", "PaLM", "0x1.0d9ecf41f212dp+9", 539.24, 0.05),
    ("parameters", "Gopher", "0x1.028972474538fp+8", 258.54, 0.05),
    ("parameters", "Chinchilla", "0x1.036027525460bp+6", 64.84, 0.05),
    ("parameters", "LaMDA", "0x1.13b780346dc5dp+7", 137.86, 0.05),
    ("parameters", "Jurassic-1", "0x1.5dfcc63f14120p+7", 175.0, 0.05),
    ("parameters", "MT-NLG", "0x1.08c3f487fcb92p+9", 529.53, 0.05),
    ("parameters", "Bloom", "0x1.5abe425aee632p+7", 173.37, 0.05),
    ("parameters", "GLM", "0x1.fddc0ebedfa44p+6", 127.46, 0.05),
    ("parameters", "GShard", "0x1.353cd6a161e4fp+9", 618.47, 0.05),
    ("parameters", "Switch", "0x1.828c0b780346ep+10", 1546.19, 0.05),
    ("parameters", "GLaM", "0x1.1b77c504816f0p+10", 1133.87, 0.05),
    ("parameters", "FB-MoE", "0x1.13f39f559b3d0p+10", 1103.81, 0.05),
    ("parameters", "PR-MoE", "0x1.01b2ca57a786cp+5", 31.8, 0.954),
    ("training", "T5", "0x1.76353f7ced917p+5", 45.66, 1.3698),
    ("training", "GPT3", "0x1.13cb439581062p+9", 553.87, 5.5387),
    ("training", "GShard", "0x1.1c28f5c28f5c3p+2", 4.46, 0.1338),
    ("training", "Switch", "0x1.fe4395810624ep+5", 63.9, 1.9169999999999998),
    ("training", "XLM", "0x1.2cf7ced916873p+5", 37.6, 1.128),
    ("days", "T5", "0x1.41df3b645a1cbp+4", 20.0, 0.6),
    ("days", "GPT3", "0x1.d84189374bc6ap+3", 14.8, 0.29600000000000004),
    ("days", "GShard", "0x1.9126e978d4fdfp+1", 3.1, 0.062000000000000006),
    ("days", "Switch", "0x1.afa1cac083127p+4", 27.0, 0.54),
    ("days", "XLM", "0x1.46353f7ced917p+4", 20.4, 0.408),
    ("embodied", "XLM total", "0x1.467381d7dbf48p-1", 0.64, 0.01),
    ("embodied", "XLM GPU", "0x1.c9eecbfb15b57p-5", 0.056, 0.002),
    ("embodied", "XLM CPU", "0x1.205bc01a36e2fp-10", 0.0018, 0.002),
    ("embodied", "XLM SSD", "0x1.a5aee631f8a09p-2", 0.412, 0.005),
    ("embodied", "XLM DRAM", "0x1.2bd3c36113405p-4", 0.073, 0.002),
    ("embodied", "XLM others", "0x1.8793dd97f62b7p-4", 0.096, 0.002),
    ("storage", "Noor stored", "0x1.98a71de69ad43p+0", 1.596, 0.007980000000000001),
    ("storage", "Noor transfer", "0x1.c60aa64c2f838p+0", 1.77, 0.00885),
    ("inference", "GPT3 batch latency", "0x1.8cf765fd8adacp+1", 3.1, 0.05),
    ("inference", "GPT3 carbon delta", "0x1.14e3bcd35a858p-5", 0.0, 0.035),
    ("efficiency", "175B at 10K devices", "0x1.9374bc6a7ef9ep-3", 0.197, 0.001),
]


def test_every_validate_row_is_pinned_bit_for_bit():
    rows = [(r.group, r.name, float.hex(r.predicted), r.expected, r.tolerance)
            for r in run_validation()]
    assert rows == MATRIX
    assert all(r.passed for r in run_validation())


def test_an_unknown_group_is_refused_with_the_seven_it_could_be():
    with pytest.raises(ValueError) as raised:
        run_validation(only="nonsense")
    assert str(raised.value) == (
        "unknown validation group 'nonsense'; choose from days, efficiency, embodied, "
        "inference, parameters, storage, training")


@pytest.mark.parametrize("group, shown_as", [
    ("nonsense", "'nonsense'"), ([1], "[1]"), (10 ** 5000, "an int"),
], ids=["unknown-name", "list", "int-5001-digits"])
def test_a_group_that_is_not_a_group_name_is_a_config_error(group, shown_as):
    with pytest.raises(ConfigError) as raised:
        run_validation(only=group)
    assert str(raised.value) == (
        f"unknown validation group {shown_as}; choose from days, efficiency, embodied, "
        "inference, parameters, storage, training")
