from __future__ import annotations

import pytest

from pricetree.wording import Vocabulary, load_vocabulary


@pytest.fixture
def vocab() -> Vocabulary:
    return load_vocabulary(None, None)
