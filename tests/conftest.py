import functools

import pytest

from tilerun.coherence import CacheDirectory

MUTATORS = ("acquire_input", "retire")


@pytest.fixture
def directory_invariants():
    """Every ``CacheDirectory`` re-checks its invariants after each call to
    a mutating method, whether the call returns or raises.

    The methods are patched on the class through a private ``MonkeyPatch``,
    so the checks hold for directories built inside ``run``/``Runtime`` and
    survive a test's own ``monkeypatch.undo()``.
    """

    def checked(method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            try:
                return method(self, *args, **kwargs)
            finally:
                self.check_invariants()

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in MUTATORS:
            mp.setattr(CacheDirectory, name, checked(getattr(CacheDirectory, name)))
        yield
