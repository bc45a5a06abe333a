from functools import cache

import numpy as np
import pytest

from weylinv import GroupElement, build_root_system


@pytest.fixture(scope="session")
def system():
    """One memoized builder for the test session, so each system and its
    classification are built once per session.  The acceptance battery's
    own runs build theirs apart."""
    return cache(build_root_system)


@pytest.fixture
def minus_one():
    """The negation permutation of a system; in W only when -1 is."""
    def negation(rs) -> GroupElement:
        P = rs.n_positive
        images = np.array([i + P if i < P else i - P for i in range(2 * P)],
                          dtype=np.int16)
        return GroupElement(images, rs)
    return negation
