"""The one registry of memo tables, each an lru_cache under its
module-qualified name such as "schur._product_terms".  `clear_all()` empties
every table."""

from functools import lru_cache, partial

MEMOS: dict = {}


def memo(fn=None, *, maxsize=None):
    """lru_cache(maxsize)(fn), recorded in MEMOS and returned unwrapped; used
    as @memo, or as @memo(maxsize=n) for a table of at most n entries."""
    if fn is None:
        return partial(memo, maxsize=maxsize)
    module = fn.__module__.rpartition(".")[2]
    MEMOS[f"{module}.{fn.__qualname__}"] = cached = lru_cache(maxsize=maxsize)(fn)
    return cached


def clear_all() -> None:
    for table in MEMOS.values():
        table.cache_clear()
