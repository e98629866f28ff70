"""Symmetric-group character theory: the independent verification path.

Character values come from the border-strip recursion (strip a rim hook whose
length is the largest remaining cycle, with sign (-1)^height, and recurse),
dimensions from hook lengths, and every multiplicity formula is an exact
class-function inner product.  All divisions are exact; a nonzero remainder
raises instead of rounding.

The recursion runs on `parts` tuples and builds no Partition.
`character_row(parts)` is one irreducible character as a tuple aligned with
`partitions_of(d)`; `mn_character` is the public query and reads the same
values.  The module's memos are registered in `_memo`.

A decomposition needs one class sum per target partition, and all of them
share the same factors.  So `kronecker_oracle_expansion` and
`internal_h_oracle` first compute the per-class weights w[rho] (class size
times the fixed characters) once per call, and then take one dot product with
the character row of each target.  A permutation character is the tuple
`perm_row(blocks)` aligned with `partitions_of(d)`: the value of the
permutation character of a weight nu at the i-th cycle type is
`perm_row(nu.sorted_parts())[i]`.  Each value is a flat count: the cycles
go into the blocks one at a time, and a dict maps the room left in each
block to the number of ways to reach it.
"""

from __future__ import annotations

from math import factorial
from operator import mul

from ._memo import memo
from .errors import ConsistencyError, DegreeMismatchError
from .partitions import Composition, Partition, partitions_of
from .schur import SchurExpansion


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod over part sizes i of i^m_i * m_i!."""
    z = 1
    mult = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


@memo
def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type rho: d!/z_rho."""
    d = rho.size
    z = centralizer_order(rho)
    q, r = divmod(factorial(d), z)
    if r:
        raise ConsistencyError(f"centralizer order {z} does not divide {d}!")
    return q


@memo
def _strip_removals(parts: tuple, length: int) -> tuple:
    """The (sign, smaller parts) pairs of the border strips of this length.

    Uses first-column hook lengths (beta numbers): removing a strip of the
    given length moves one beta number down by that length, provided the
    target is free; the sign is (-1)^(rows spanned - 1).  A strip that moves
    the beta of row i below those of rows i+1..j-1 spans rows i..j-1: each
    of rows i+1..j-1 moves up a row, one cell shorter, and row j-1 ends at
    the moved beta.  Memoised, since every cycle type that starts with a
    cycle of this length removes the same strips.
    """
    n = len(parts)
    betas = [p + n - 1 - i for i, p in enumerate(parts)]
    out = []
    for i, b in enumerate(betas):
        nb = b - length
        if nb < 0:
            break  # the betas decrease, so every later one moves below 0 too
        j = i + 1
        while j < n and betas[j] > nb:
            j += 1
        if j < n and betas[j] == nb:
            continue
        smaller = parts[:i] + tuple(p - 1 for p in parts[i + 1:j]) + (nb - n + j,) + parts[j:]
        while smaller and not smaller[-1]:
            smaller = smaller[:-1]
        out.append(((-1) ** (j - 1 - i), smaller))
    return tuple(out)


@memo
def _chi(lam: tuple, rho: tuple) -> int:
    """chi_lam(rho) for the parts tuples of two partitions of one size."""
    if not rho:
        return 1
    rest = rho[1:]
    value = 0
    for sign, smaller in _strip_removals(lam, rho[0]):
        value += sign * _chi(smaller, rest)
    return value


def mn_character(lam: Partition, rho: Partition) -> int:
    """Character value of the irreducible indexed by lam at cycle type rho."""
    if lam.size != rho.size:
        raise DegreeMismatchError(
            f"partition of {lam.size} evaluated at a cycle type of {rho.size}"
        )
    return _chi(lam.parts, rho.parts)


@memo
def character_row(parts: tuple) -> tuple:
    """The irreducible character of the partition with these parts, as a
    tuple aligned with partitions_of(sum(parts)); the tuple is the memo's own.
    """
    return tuple(_chi(parts, rho.parts) for rho in partitions_of(sum(parts)))


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible: d! divided by the product of hook lengths."""
    conj = lam.conjugate()
    hooks = 1
    for i, p in enumerate(lam.parts):
        for j in range(p):
            hooks *= p - j + conj.parts[j] - i - 1
    q, r = divmod(factorial(lam.size), hooks)
    if r:
        raise ConsistencyError(f"hook product {hooks} does not divide {lam.size}!")
    return q


def _perm_value(blocks: tuple, rho_parts: tuple) -> int:
    """Ways to put each cycle of rho into a block so that every block of the
    given sizes is filled exactly: the fixed tabloids of a permutation of
    cycle type rho.  The cycles go in one at a time, and the state maps the
    room left in each block to the number of ways to reach it."""
    rooms = {blocks: 1}
    for length in rho_parts:
        after = {}
        for room, ways in rooms.items():
            for i, left in enumerate(room):
                if left >= length:
                    key = room[:i] + (left - length,) + room[i + 1:]
                    after[key] = after.get(key, 0) + ways
        rooms = after
    return rooms.get((0,) * len(blocks), 0)


@memo
def perm_row(blocks: tuple) -> tuple:
    """The permutation character of the block sizes, as a tuple aligned with
    partitions_of(sum(blocks)).

    blocks are the nonzero sizes in descending order, so every composition
    with the same blocks shares one memo entry; the tuple is the memo's own.
    """
    return tuple(_perm_value(blocks, rho.parts) for rho in partitions_of(sum(blocks)))


def _class_sums(lam: Partition, values):
    """Yield (alpha, sum over rho of z(rho) chi_lam(rho) values[rho] chi_alpha(rho))
    for every alpha of lam's degree, where z(rho) is the class size and values
    are aligned with partitions_of(d).

    The weight of each class is computed once, and classes of weight zero
    are skipped, so each alpha costs one dot product with its character row.
    """
    shapes = partitions_of(lam.size)
    classes, weights = [], []
    for i, (rho, chi, v) in enumerate(zip(shapes, character_row(lam.parts), values)):
        w = class_size(rho) * chi * v
        if w:
            classes.append(i)
            weights.append(w)
    for alpha in shapes:
        row = character_row(alpha.parts)
        yield alpha, sum(map(mul, weights, map(row.__getitem__, classes)))


def _divided_class_sums(lam: Partition, values, what: str, factor: str) -> SchurExpansion:
    """The expansion whose coefficient at alpha is lam's class sum at alpha
    (see _class_sums) divided by d!.  A sum that d! does not divide raises,
    named by `what` and by `factor`, the text of the other factor."""
    d = lam.size
    d_fact = factorial(d)
    terms = {}
    for alpha, total in _class_sums(lam, values):
        q, r = divmod(total, d_fact)
        if r:
            raise ConsistencyError(
                f"{what} {total} is not divisible by {d}! "
                f"for ({lam.text()}, {factor}, {alpha.text()})"
            )
        if q:
            terms[alpha] = q
    return SchurExpansion(d, terms)


def kronecker_oracle_expansion(lam: Partition, mu: Partition) -> SchurExpansion:
    """The full tensor-product decomposition given by the class-sum formula."""
    d = lam.size
    if mu.size != d:
        raise DegreeMismatchError(f"partitions have sizes {d} and {mu.size}")
    return _divided_class_sums(lam, character_row(mu.parts), "kronecker class sum", mu.text())


def lr_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lam_{mu,nu} by induced-character inner product; no tableaux involved."""
    a, b = mu.size, nu.size
    if lam.size != a + b:
        raise DegreeMismatchError(
            f"outer partition has size {lam.size}, expected {a} + {b}"
        )
    total = 0
    for rho1, chi1 in zip(partitions_of(a), character_row(mu.parts)):
        if chi1 == 0:
            continue
        w1 = class_size(rho1)
        for rho2, chi2 in zip(partitions_of(b), character_row(nu.parts)):
            if chi2 == 0:
                continue
            w2 = class_size(rho2)
            union = tuple(sorted(rho1.parts + rho2.parts, reverse=True))
            total += w1 * w2 * chi1 * chi2 * _chi(lam.parts, union)
    q, r = divmod(total, factorial(a) * factorial(b))
    if r:
        raise ConsistencyError(
            f"induction class sum {total} is not divisible by {a}!*{b}! "
            f"for ({lam.text()}; {mu.text()}, {nu.text()})"
        )
    return q


def internal_h_oracle(lam: Partition, nu: Composition) -> SchurExpansion:
    """Decomposition of (irreducible lam) x (permutation module nu) by class sums."""
    d = lam.size
    if nu.degree != d:
        raise DegreeMismatchError(
            f"partition has size {d} but weight has degree {nu.degree}"
        )
    values = perm_row(nu.sorted_parts())
    return _divided_class_sums(lam, values, "class sum", f"weight {nu.text()}")
