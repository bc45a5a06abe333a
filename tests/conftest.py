import pytest

from weylinv.verify import get_system


@pytest.fixture
def system():
    """The acceptance battery's shared registry, so each system and its
    classification are built once per session."""
    return get_system
