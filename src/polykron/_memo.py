"""The one registry of memo tables, each under its module-qualified name such
as "schur._product_terms".  The two dicts that the CLI's --cache file saves
are registered where they are defined.  `clear_all()` empties every table."""

from functools import lru_cache

MEMOS: dict = {}


def memo(fn):
    """lru_cache(maxsize=None)(fn), recorded in MEMOS and returned unwrapped."""
    module = fn.__module__.rpartition(".")[2]
    MEMOS[f"{module}.{fn.__qualname__}"] = cached = lru_cache(maxsize=None)(fn)
    return cached


def clear_all() -> None:
    for table in MEMOS.values():
        (table.clear if isinstance(table, dict) else table.cache_clear)()
