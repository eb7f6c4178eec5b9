from dataclasses import replace

import pytest

from bwbroker.model import table1


@pytest.fixture
def cfg():
    return table1()


@pytest.fixture
def short_cfg():
    """table1 shrunk to two short replications for fast end-to-end checks."""
    return replace(table1(), sim_duration_min=120.0, warmup_min=60.0,
                   replications=2, base_seed=7)
