import numpy as np
import pytest

from irtcalib import ItemPool, LatentSpec


def make_rasch_pool(betas) -> ItemPool:
    betas = np.asarray(betas, dtype=float)
    return ItemPool(model="rasch", beta=betas, lambda0=np.ones_like(betas))


@pytest.fixture
def scan_gap_pool() -> ItemPool:
    """Items split far from a tightly concentrated population (no coverage at all)."""
    return make_rasch_pool([-3.0] * 15 + [3.0] * 15)


@pytest.fixture
def tail_gap_pool() -> ItemPool:
    """Items in the tails of a standard-normal population: a mid-scale hole."""
    return make_rasch_pool([-2.5] * 15 + [2.5] * 15)


@pytest.fixture
def narrow_latent() -> LatentSpec:
    return LatentSpec(sigma=0.2)
