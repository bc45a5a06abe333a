import numpy as np
import pytest

from weylinv import GroupElement
from weylinv.verify import get_system


@pytest.fixture
def system():
    """The acceptance battery's shared registry, so each system and its
    classification are built once per session."""
    return get_system


@pytest.fixture
def minus_one():
    """The negation permutation of a system; in W only when -1 is."""
    def negation(rs) -> GroupElement:
        P = rs.n_positive
        images = np.array([i + P if i < P else i - P for i in range(2 * P)],
                          dtype=np.int16)
        return GroupElement(images, rs)
    return negation
