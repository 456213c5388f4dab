from __future__ import annotations

import numpy as np
import pytest

from gossipsim.harness import tiny_corpus


def mask_of(n: int, vertices) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(vertices)] = True
    return mask


def mask_from_bits(n: int, bits: int) -> np.ndarray:
    return np.array([(bits >> v) & 1 == 1 for v in range(n)])


@pytest.fixture(scope="session")
def tiny_graphs():
    return dict(tiny_corpus())
