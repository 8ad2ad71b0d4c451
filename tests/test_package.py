"""Package metadata: the public name list."""
from types import ModuleType

import parafusion


def test_all_lists_no_modules():
    assert parafusion.__all__
    for name in parafusion.__all__:
        assert not isinstance(getattr(parafusion, name), ModuleType), name
