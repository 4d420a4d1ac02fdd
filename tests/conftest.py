import functools

import pytest

from tilerun.coherence import CacheDirectory

MUTATORS = ("acquire_input", "retire")


def tile_grid(x, t):
    """``x`` cut into tiles of size ``t``: ``grid[i][j]`` is the view
    ``x[i*t:(i+1)*t, j*t:(j+1)*t]``, ragged at the edges, and
    ``len(grid)``, ``len(grid[0])`` is the grid size.  The tests' tiling
    oracle: it shares no code with the library."""
    rows, cols = (-(-n // t) for n in x.shape)
    return [[x[i * t : (i + 1) * t, j * t : (j + 1) * t] for j in range(cols)]
            for i in range(rows)]


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
