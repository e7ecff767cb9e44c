import numpy as np
import pytest

from circgeo.fields import parse_field_spec


@pytest.fixture
def paper_fields():
    return parse_field_spec("paper-example")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
