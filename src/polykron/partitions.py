"""Partitions, compositions, skew shapes, and contingency-matrix enumeration.

All objects are immutable after construction and safe to share across
threads.  The one exception is internal: the slots of a row table are
filled on first read, each with a value that depends on its key alone, so
what a slot holds never depends on which walk filled it.
Enumeration orders are deterministic (descending lexicographic for
partitions, row-major lexicographic for matrices) so outputs are reproducible
byte for byte.  There is one partition enumerator, `_partitions_between`,
which lists the partitions of a size between two shapes; `partitions_of(d)`
reads it with the bounds () and (d, ..., d), and `one_box_moves` twice.  The
weights of `enumerate_compositions` are the rows of one `_walk_columns` call.

Contingency matrices are enumerated row by row.  The candidates for a row are
the descending-lex vectors that sum to its row sum and fit under what remains
of the column sums, each paired with what remains after it, so no remainder
is computed per matrix.  Each remainder has two row tables, made by the
memo `_row_tables` and filled slot by slot as walks read them: slot k of its
pair table holds the candidate pairs of a row of sum k, built once, and
slot k of its step table holds the same candidates, each with the tables of
what it leaves.  The walk reads row 0 from the tables of the column sums,
once per margin pair, and every later row from a slot of the tables that
the row above it carries, by one dict read.  The last row is the remainder
itself, so only rows 0..n-3 are walked: rows n-4 and n-3 in two plain
nested loops, the rows above them depth first in one generator frame,
`_prefixes`, and row n-2 closes each prefix from a pair table in a flat
loop.  Margins of two and three rows are the prefix walk at depth 0 and 1;
a walk of two rows reads one pair table slot and builds no steps.  That
core, `_contingency_rows`, works on plain tuples and yields each matrix as
its rows tuple; `iter_contingency` wraps each one in a ContingencyMatrix,
and callers that only flatten or count the matrices read the tuples.  The
module's memos are registered in `_memo`.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import chain
from operator import index

from ._memo import memo
from .errors import DegreeMismatchError


def _conjugate_parts(parts: tuple) -> tuple:
    """The conjugate of a partition given as a parts tuple."""
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        for i in range(p):
            cols[i] += 1
    return tuple(cols)


def _integers(values, what: str) -> tuple:
    """The values as a tuple of ints.  A float or any other value that is not
    an integer raises ValueError, where int() would truncate it."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _read_only(self, *_):
    raise AttributeError(f"{type(self).__name__} objects cannot be changed")


@total_ordering
class Partition:
    """A weakly decreasing sequence of positive integers.

    Trailing zeros are stripped on construction; the empty sequence is the
    unique partition of 0.
    """

    __slots__ = ("parts", "size", "_hash")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, parts=()):
        parts = _integers(parts, "partition parts")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, x in enumerate(parts):
            if x <= 0:
                raise ValueError(f"partition parts must be positive, got {parts}")
            if i and parts[i - 1] < x:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))
        object.__setattr__(self, "_hash", hash(parts))

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Partition, (self.parts,)

    def __lt__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def text(self) -> str:
        """Canonical comma-separated encoding; the empty partition is "0"."""
        return ",".join(str(x) for x in self.parts) if self.parts else "0"

    def row(self, i: int) -> int:
        """Part at 0-based index i, with implicit zeros past the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: result_i = #{j : parts_j >= i}."""
        return Partition(_conjugate_parts(self.parts))

    def contains(self, other: "Partition") -> bool:
        """Cell-wise containment of other's Young diagram in this one."""
        if len(other) > len(self.parts):
            return False
        return all(other.parts[i] <= self.parts[i] for i in range(len(other)))

    def outer_corners(self):
        """Cells (i, parts_i), 1-indexed, where the diagram steps down.

        The last row always carries a corner.  Raises on the empty partition,
        which has none.
        """
        if not self.parts:
            raise ValueError("the empty partition has no outer corners")
        corners = []
        for i, p in enumerate(self.parts):
            if i + 1 == len(self.parts) or self.parts[i + 1] < p:
                corners.append((i + 1, p))
        return corners

    def one_box_moves(self):
        """All partitions != self of the same size reachable by moving one box,
        descending lex: self less a corner (a partition of size - 1 inside
        self) is alpha, and alpha plus a box lies between alpha and
        (parts_1 + 1, alpha_1, alpha_2, ...).  Raises on the empty partition."""
        if not self.parts:
            raise ValueError("the empty partition has no outer corners")
        moves = set()
        for alpha in _partitions_between((), self.parts, self.size - 1):
            moves.update(_partitions_between(alpha, (self.parts[0] + 1,) + alpha, self.size))
        moves.discard(self.parts)
        return [Partition(p) for p in sorted(moves, reverse=True)]


class Composition:
    """A sequence of non-negative integers with explicit length.

    Zeros are significant: (1, 0, 1) and (1, 1) are different weights.
    """

    __slots__ = ("entries", "degree")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, entries=()):
        entries = _integers(entries, "composition entries")
        for x in entries:
            if x < 0:
                raise ValueError(f"composition entries must be non-negative, got {entries}")
        _set_entries(self, entries)
        _set_degree(self, sum(entries))

    @classmethod
    def _trusted(cls, entries: tuple, degree: int):
        # Fast path for callers that guarantee non-negative int entries summing to degree.
        self = object.__new__(cls)
        _set_entries(self, entries)
        _set_degree(self, degree)
        return self

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, Composition) and self.entries == other.entries

    def __hash__(self):
        return hash(("composition", self.entries))

    def __reduce__(self):
        return Composition, (self.entries,)

    def __repr__(self):
        return f"Composition({list(self.entries)})"

    def text(self) -> str:
        """Canonical comma-separated encoding; the empty composition is "0"."""
        return ",".join(str(x) for x in self.entries) if self.entries else "0"

    def sorted_parts(self) -> tuple:
        """The nonzero entries, sorted decreasingly: the parts of the
        partition that the composition permutes."""
        return tuple(sorted(filter(None, self.entries), reverse=True))


_set_entries, _set_degree = (getattr(Composition, n).__set__ for n in Composition.__slots__)


class SkewShape:
    """A pair of nested partitions outer/inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        if not outer.contains(inner):
            raise ValueError(f"inner shape {inner!r} not contained in outer {outer!r}")
        self.outer = outer
        self.inner = inner

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __eq__(self, other):
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer.parts, self.inner.parts))

    def __repr__(self):
        return f"SkewShape({self.outer!r}, {self.inner!r})"


class ContingencyMatrix:
    """A non-negative integer matrix with prescribed row and column sums."""

    __slots__ = ("rows", "row_sums", "col_sums")

    def __init__(self, rows, row_sums=None, col_sums=None):
        rows = tuple(_integers(row, "matrix entries") for row in rows)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must have equal length")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("matrix entries must be non-negative")
        m = len(rows[0]) if rows else (len(col_sums) if col_sums is not None else 0)
        actual_rows = Composition(sum(row) for row in rows)
        actual_cols = Composition(sum(row[j] for row in rows) for j in range(m))
        if row_sums is not None and Composition(row_sums) != actual_rows:
            raise ValueError("row sums do not match matrix entries")
        if col_sums is not None and Composition(col_sums) != actual_cols:
            raise ValueError("column sums do not match matrix entries")
        self.rows = rows
        self.row_sums = actual_rows
        self.col_sums = actual_cols

    @classmethod
    def _trusted(cls, rows, row_sums, col_sums):
        # Fast path for the enumerator, which guarantees the margins.
        self = object.__new__(cls)
        self.rows = rows
        self.row_sums = row_sums
        self.col_sums = col_sums
        return self

    @property
    def total(self) -> int:
        return self.row_sums.degree

    def flatten(self) -> Composition:
        """Row-major flattening: a weight of length n*m."""
        return Composition._trusted(tuple(chain.from_iterable(self.rows)), self.total)

    def transpose(self) -> "ContingencyMatrix":
        m = len(self.col_sums)
        cols = tuple(tuple(row[j] for row in self.rows) for j in range(m))
        return ContingencyMatrix._trusted(cols, self.col_sums, self.row_sums)

    def __eq__(self, other):
        # The margins count: a 0x0 and a 0x2 matrix both have rows ().
        return (
            isinstance(other, ContingencyMatrix)
            and self.rows == other.rows
            and self.row_sums == other.row_sums
            and self.col_sums == other.col_sums
        )

    def __hash__(self):
        return hash((self.rows, self.row_sums, self.col_sums))

    def __repr__(self):
        return f"ContingencyMatrix({[list(r) for r in self.rows]})"


@memo
def partitions_of(d: int):
    """All partitions of d, descending lexicographic, as a cached tuple."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return tuple(map(Partition, _partitions_between((), (d,) * d, d)))


@memo
def _partitions_between(lower: tuple, upper: tuple, size: int) -> tuple:
    """Partitions beta with lower <= beta <= upper cell-wise and |beta| = size,
    in descending lexicographic order, the order of partitions_of(size).

    The rows are walked depth first in one frame: acc[r] is row r's current
    part, tried from its largest value down to least[r], and `remaining` is
    what rows r, r + 1, ... still have to hold.  A row leaves the rows below
    it at least lower's cells there: on strip bounds, such as alpha below
    alpha plus a box, no prefix is then a dead end.
    """
    n = len(upper)
    m = len(lower)
    below = [0] * n  # below[r]: cells of upper in rows > r
    floor = [0] * n  # floor[r]: cells of lower in rows > r
    for r in range(n - 1, 0, -1):
        below[r - 1] = below[r] + upper[r]
        floor[r - 1] = floor[r] + (lower[r] if r < m else 0)
    acc = [0] * n
    least = [0] * n
    out = []
    row = 0
    prev = remaining = size
    while True:
        # Give rows row, row + 1, ... their largest parts until beta is
        # complete or a row has no part left.
        while remaining or row < m:
            if row == n:
                break
            lo = lower[row] if row < m else 1
            if remaining - below[row] > lo:
                lo = remaining - below[row]
            hi = remaining - floor[row]
            if upper[row] < hi:
                hi = upper[row]
            if prev < hi:
                hi = prev
            if hi < lo:
                break
            acc[row] = prev = hi
            least[row] = lo
            remaining -= hi
            row += 1
        else:
            out.append(tuple(acc[:row]))
        # Drop the rows at their least part; the row above them takes one
        # cell fewer, and the walk goes on below it.
        row -= 1
        while row >= 0 and acc[row] == least[row]:
            remaining += acc[row]
            row -= 1
        if row < 0:
            return tuple(out)
        acc[row] = prev = acc[row] - 1
        remaining += 1
        row += 1


def enumerate_compositions(d: int, length: int):
    """All weights of degree d with exactly `length` entries, descending lex."""
    if d < 0 or length < 0:
        raise ValueError("d and length must be non-negative")
    return [Composition._trusted(x, d) for x, _ in _walk_columns(d, (d,) * length)]


@memo
def _shared(vector: tuple) -> tuple:
    """The one stored copy of a row or remainder vector: the pair tables
    hold thousands of pairs but only hundreds of distinct vectors."""
    return vector


def _walk_columns(need: int, rem: tuple) -> tuple:
    """All pairs (x, rem - x) with 0 <= x_j <= rem_j and sum(x) = need,
    descending lex in x, built as plain tuples; the walk touches no memo.

    The columns are walked depth first in one frame: row[j] is tried from
    its largest value down to least[j], the value at which the columns after
    j can just hold what is left, and the last column takes what is left.
    """
    m = len(rem)
    if m == 0:
        return (((), ()),) if need == 0 else ()
    cap = [0] * (m + 1)  # cap[j] = rem[j] + ... + rem[m-1]
    for j in range(m - 1, -1, -1):
        cap[j] = cap[j + 1] + rem[j]
    if not 0 <= need <= cap[0]:
        return ()
    last = m - 1
    row = [0] * m
    rest = list(rem)
    least = [0] * m
    out = []
    j, left = 0, need
    while True:
        # Give columns j, j + 1, ... their largest entries; `left` is what
        # the columns from j on still have to hold.
        while j < last:
            x = rem[j] if rem[j] < left else left
            row[j] = x
            rest[j] = rem[j] - x
            least[j] = left - cap[j + 1] if left > cap[j + 1] else 0
            left -= x
            j += 1
        row[last] = left
        rest[last] = rem[last] - left
        out.append((tuple(row), tuple(rest)))
        # Drop the columns at their least entry; the column before them
        # takes one less, and the walk goes on after it.
        j = last - 1
        while j >= 0 and row[j] == least[j]:
            left += row[j]
            j -= 1
        if j < 0:
            return tuple(out)
        row[j] -= 1
        rest[j] += 1
        left += 1
        j += 1


class _PairTable(dict):
    """The pair table of a remainder `rest`: slot `need` holds the pairs
    `_walk_columns(need, rest)`, built when the slot is first read, with
    both vectors of each pair `_shared`.  This is the one place that keeps
    a vector.  What a slot holds is a function of its key alone, so it
    never depends on which walk filled it."""

    __slots__ = ("rest",)

    def __init__(self, rest: tuple) -> None:
        self.rest = rest

    def __missing__(self, need: int) -> tuple:
        walk = _walk_columns(need, self.rest)
        pairs = self[need] = tuple((_shared(x), _shared(r)) for x, r in walk)
        return pairs


class _StepTable(_PairTable):
    """The step table of a remainder `rest`: slot `need` holds, for each
    pair (x, r) of slot `need` of the pair table in its order, the step
    (x, pairs, steps), where (pairs, steps) = `_row_tables(r)`.  Only the
    memo's own step table builds its slots; any other, such as one that a
    walk still holds after a clear, copies them from the memo's.

    A zero row leaves `rest` as it is, so the one step of slot 0 would
    carry this table, a reference cycle.  It carries a new step table of
    `rest` instead."""

    __slots__ = ()

    def __missing__(self, need: int) -> tuple:
        pairs, steps = _row_tables(self.rest)
        if not need:
            ((zero, _),) = pairs[0]
            entry = ((zero, pairs, _StepTable(self.rest)),)
        elif steps is self:
            entry = tuple((x,) + _row_tables(r) for x, r in pairs[need])
        else:
            entry = steps[need]
        self[need] = entry
        return entry


@memo
def _row_tables(rest: tuple) -> tuple:
    """(pairs, steps): the pair table and the step table of a remainder.
    They are the memo of the contingency walk: a walk reads row 0 from the
    tables of the column sums, and each later row from the tables that the
    step of the row above it carries."""
    return _PairTable(rest), _StepTable(rest)


def _margin_degree(mu: Composition, lam: Composition) -> int:
    """The common degree of two margins; DegreeMismatchError if they differ."""
    if mu.degree != lam.degree:
        raise DegreeMismatchError(
            f"row sums have degree {mu.degree} but column sums have degree {lam.degree}"
        )
    return mu.degree


def _contingency_rows(sums: tuple, cols: tuple):
    """Yield the rows tuple of every matrix with row sums `sums` and column
    sums `cols`, in descending row-major lexicographic order; the caller
    guarantees that both margins have one degree.

    Each prefix of rows 0..n-3 is closed in one flat loop by a pair of its
    remainder, whose row is row n-2 and whose remainder is row n-1.  Below
    four rows the prefixes come from `_prefixes` (depth 0 for two rows, 1
    for three); from four rows on, rows n-4 and n-3 are walked in two plain
    nested loops under each prefix of rows 0..n-5 from it.  Row 0 is read
    from the tables of the column sums, by one memo lookup per call, and
    every later row from a slot of the tables that the row above it
    carries, by one dict read.  The walk stays lazy, with O(n) state: a
    list of all prefixes of (6^5) x (6^5) would hold millions.
    """
    n = len(sums)
    if n < 2:
        yield (cols,) if n else ()
        return
    close = n - 2
    need = sums[close]
    if n < 4:
        for head, pairs, _ in _prefixes(sums, cols, close):
            for pair in pairs[need]:
                yield head + pair
        return
    upper, mid = sums[close - 2], sums[close - 1]
    for head, _, steps in _prefixes(sums, cols, close - 2):
        for x, _, below in steps[upper]:
            for y, pairs, _ in below[mid]:
                prefix = head + (x, y)
                for pair in pairs[need]:
                    yield prefix + pair


def _prefixes(sums: tuple, cols: tuple, depth: int):
    """Yield (rows, pairs, steps) for every choice of rows 0..depth-1 under
    the margins, in descending lex order: `rows` is the tuple of those rows,
    and `pairs` and `steps` are the row tables of what they leave.

    The rows are walked depth first in this one frame: `its[i]` iterates
    the steps (row, pairs, steps) of row i, and `rows` holds the prefix.
    """
    if not depth:
        yield ((),) + _row_tables(cols)
        return
    last = depth - 1
    rows = [()] * depth
    its = [iter(_row_tables(cols)[1][sums[0]])] + [None] * last
    i = 0
    while i >= 0:
        for row, pairs, steps in its[i]:
            rows[i] = row
            if i < last:  # descend; the while resumes at row i + 1
                i += 1
                its[i] = iter(steps[sums[i]])
                break
            yield tuple(rows), pairs, steps
        else:  # row i is exhausted; resume row i - 1
            i -= 1


def iter_contingency(mu: Composition, lam: Composition):
    """Yield every matrix with row sums mu and column sums lam exactly once.

    Matrices appear in descending row-major lexicographic order of their
    flattened entries; each wraps a rows tuple of `_contingency_rows`.  The
    degree check runs on the first next().
    """
    _margin_degree(mu, lam)
    trusted = ContingencyMatrix._trusted
    for rows in _contingency_rows(mu.entries, lam.entries):
        yield trusted(rows, mu, lam)
