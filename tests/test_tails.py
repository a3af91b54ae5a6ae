"""Tail vectors, tail estimates and the CSV schema: what each refuses."""

import pytest

from jsqlab import ConfigError
from jsqlab.tails import TailEstimate, TailVector, read_tail_csv


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: TailVector(()), "at least level 0", id="vector-empty"),
    pytest.param(lambda: TailVector((0.5, 0.2)), r"p\[0\] must be exactly 1", id="vector-p0"),
    pytest.param(lambda: TailVector((1.0, 0.2, 0.5)), "nonincreasing", id="vector-increasing"),
    pytest.param(lambda: TailVector((1.0, -0.5)), r"in \[0, 1\]", id="vector-outside"),
    pytest.param(lambda: TailVector.geometric(1.0, 4), "ratio", id="geometric-ratio"),
    pytest.param(lambda: TailEstimate(p=[1.0, 0.5], ci=[0.0]), "equal length", id="estimate-lengths"),
    pytest.param(lambda: TailEstimate(p=[0.5], ci=[0.1]), "level 0", id="estimate-no-level-0"),
    pytest.param(lambda: TailEstimate(p=[1.0, 1.5], ci=[0.0, 0.1]), "outside", id="estimate-outside"),
])
def test_bad_tails_are_config_errors(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


def test_csv_with_a_wrong_header_is_a_config_error(tmp_path):
    path = tmp_path / "tail.csv"
    path.write_text("k,p,lo,hi\n0,1.0,1.0,1.0\n")
    with pytest.raises(ConfigError, match="expected header"):
        read_tail_csv(path)
