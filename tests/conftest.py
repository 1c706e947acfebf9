import json
import os

import pytest

from limitknow.frame import load_frame
from limitknow.logic import Model

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def chain_model():
    """Three worlds x,y,z; one agent with the chain basis {xyz, yz, z} at
    tolerance 1; p = {x,z}."""
    with open(os.path.join(FIXTURES, "model3.json")) as fh:
        return Model(*load_frame(json.load(fh)))
