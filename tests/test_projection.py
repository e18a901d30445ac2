"""The model-path projection table: each published training run, priced with
its measured efficiency dropped, so that the plan and the efficiency model
decide the carbon. ``validate`` passes the published efficiency instead, so
it grades the efficiency model on the 175 B calibration point alone; this
table shows how far the model path lands from every published figure.

A change to planning, efficiency or anchors that moves a row changes the
pin: quote the table before and after (README, "Model-path projection").
"""

import pytest

from carboncast.pipeline import estimate
from carboncast.validation import TRAINING_FIXTURES, training_request

# fixture -> (plan device count, operational tCO2, hardware efficiency), the
# floats as float.hex. The published tCO2 and efficiency are the fixture's.
PINNED = {
    "T5": (96, "0x1.428dfdd34aea9p+6", "0x1.b78d4fdf3b646p-3"),
    "GPT3": (1496, "0x1.140eb56d2457cp+9", "0x1.93122b7baecd0p-3"),
    "GShard": (312, "0x1.cbbdea396175bp+2", "0x1.edb22d0e56042p-3"),
    "Switch": (752, "0x1.62db7b0ad3965p+5", "0x1.9c49ba5e353f8p-2"),
    "XLM": (5, "0x1.e6bb34a4f9837p+5", "0x1.0c78d4fdf3b64p-3"),
}

# The gap of each row's operational tCO2 to the published figure.
GAPS = {"T5": "+76.6%", "GPT3": "-0.3%", "GShard": "+61.1%", "Switch": "-30.6%",
        "XLM": "+61.8%"}


def model_path(fx):
    """The report of ``fx``'s training run with only its efficiency override dropped."""
    req = training_request(fx)
    return estimate(req.replace(overrides=req.overrides.replace(efficiency=None)))


def test_every_fixture_has_a_row():
    assert [fx.name for fx in TRAINING_FIXTURES] == list(PINNED)


@pytest.mark.parametrize("fx", TRAINING_FIXTURES, ids=[fx.name for fx in TRAINING_FIXTURES])
def test_the_model_path_row_is_pinned(fx):
    report = model_path(fx)
    devices, tco2, eff = PINNED[fx.name]
    assert (report.parallelism.device_count, report.operational_tco2.hex(),
            report.hardware_efficiency.hex()) == (devices, tco2, eff)
    assert f"{report.operational_tco2 / fx.expected_tco2 - 1:+.1%}" == GAPS[fx.name]

