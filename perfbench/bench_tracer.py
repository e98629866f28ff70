"""Outside tracer: times calls into polykron's public functions by wrapping them.

Nothing under src/ is edited.  `Tracer.install` replaces every binding of each
listed function in every loaded ``polykron`` module (the package re-exports
them, and ``internal_product`` and ``sweeps`` import them by name), so a call
is timed whichever name it goes through.  Spans are aggregated in memory, per
function, and written out once by the caller at the end of the run.

Self time is a span's duration minus the time covered by its child spans.
Total time counts only the outermost span of a function, so recursion such
as ``mn_character`` calling itself is not counted twice.  A generator
function (``iter_contingency``) is timed per ``next()`` call, and the number
of items it yields is counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "yielded", "nonzero", "args")

    def __init__(self, distinct: bool):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.yielded = 0
        self.nonzero = 0
        self.args = set() if distinct else None


def _arg_key(value):
    """Hashable identity of an argument: partitions and compositions by parts."""
    for attr in ("parts", "entries"):
        inner = getattr(value, attr, None)
        if inner is not None:
            return inner
    return value


class Tracer:
    """Aggregated spans for a set of functions named ``module.function``."""

    def __init__(self, names, distinct_args=()):
        self.names = tuple(names)
        self.stats = {name: _Stat(name in distinct_args) for name in self.names}
        self.absent = []
        # Each open span is [start, time covered by its children].
        self._stack = []

    def install(self, package: str = "polykron") -> None:
        """Wrap every listed function; record the ones that do not exist."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name in self.names:
            mod_name, _, attr = name.rpartition(".")
            module = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        args_seen = stat.args

        def enter(args):
            stat.calls += 1
            stat.depth += 1
            if args_seen is not None:
                args_seen.add(tuple(_arg_key(a) for a in args))
            span = [perf_counter(), 0.0]
            stack.append(span)
            return span

        def leave(span):
            end = perf_counter()
            stack.pop()
            duration = end - span[0]
            stat.self_s += duration - span[1]
            stat.depth -= 1
            if stat.depth == 0:
                stat.total_s += duration
            if stack:
                stack[-1][1] += duration

        if inspect.isgeneratorfunction(fn):
            def next_span(gen):
                stat.depth += 1
                span = [perf_counter(), 0.0]
                stack.append(span)
                try:
                    item = next(gen)
                finally:
                    leave(span)
                stat.yielded += 1
                return item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = enter(args)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    leave(span)
                while True:
                    try:
                        item = next_span(gen)
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = enter(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span)
            if result:
                stat.nonzero += 1
            return result

        return wrapper

    def summary(self) -> dict:
        """Plain-data view of the aggregates, for writing out at the end."""
        out = {}
        for name, s in self.stats.items():
            out[name] = {
                "calls": s.calls,
                "self_s": s.self_s,
                "total_s": s.total_s,
                "yielded": s.yielded,
                "nonzero": s.nonzero,
                "distinct_args": None if s.args is None else len(s.args),
            }
        return {"functions": out, "absent": list(self.absent)}


def merge(summaries) -> dict:
    """Sum the summaries of several processes that traced the same list.

    Distinct-argument counts are summed too: each process starts with cold
    memo tables, so the sum counts distinct arguments per process.
    """
    functions, absent = {}, []
    for summary in summaries:
        absent.extend(n for n in summary["absent"] if n not in absent)
        for name, s in summary["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(s, 0))
            for key, value in s.items():
                if value is None:
                    acc[key] = None
                elif acc[key] is not None:
                    acc[key] += value
    return {"functions": functions, "absent": absent}
