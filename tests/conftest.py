import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from spatialspn.network import IndicatorValues, NetworkBuilder
from spatialspn.oracle import reference_network

# CLI and acceptance tests run `python -m spatialspn` in a child process;
# like pytest's `pythonpath` setting, let it import this checkout's package
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# property tests draw the same examples on every run and keep no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def ref_net():
    return reference_network()


def one_hot(part0: bool, part1: bool) -> IndicatorValues:
    values = IndicatorValues()
    values.set_part(0, part0)
    values.set_part(1, part1)
    return values


def chain_network(weights_mid=(0.5, 0.5)):
    """root sum -> product -> mid sum over part 0's polarities."""
    b = NetworkBuilder()
    root = b.sum()
    prod = b.product()
    mid = b.sum()
    b.edge(mid, b.part(0, True), weights_mid[0])
    b.edge(mid, b.part(0, False), weights_mid[1])
    b.edge(prod, mid)
    b.edge(root, prod, 1.0)
    return b.build(root=root), mid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
