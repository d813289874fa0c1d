"""The residue-grid kernel: integer polynomials at every point of (Z/mod)^n.

Every brute-force path (``eval_naive``, ``count_fibers(strategy="naive")``,
the preimage scan of ``stabilization_probe``) goes through ``grid_blocks``.
The grid is walked in lexicographic order (x1 slowest) in blocks of whole
x1 rows of about ``BLOCK_POINTS`` points, so memory stays bounded whatever
the grid size.  Within a block, monomials are grouped by the set of
variables they involve and each group is summed on its own axes: univariate
monomials sum into 1-D vectors, and only mixed monomials and the final sum
are broadcast over the block.  Values are reduced mod ``mod`` only where an
int64 could otherwise overflow.

Inside the kernel a point's value tuple is encoded as the key
``sum_j G_j(x) * mod**(r-1-j)`` with every ``G_j(x)`` reduced into [0, mod),
so keys sort like the value tuples; callers only ever see value tuples.
When ``mod > 2**31`` (a product of two residues no longer fits an int64) the
values and keys, and when ``mod**r > 2**62`` the keys, are exact Python
integers in object arrays; the walk is the same.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError
from .polymap import IntPoly

#: Grid points per block (a block is never less than one x1 row).
BLOCK_POINTS = 1 << 15

#: Largest key space tallied in a dense count array; wider ones are tallied
#: by a sort per block.
DENSE_KEYS = 1 << 18

#: Largest modulus whose values are computed in int64: a product of two
#: residues then stays below 2**62.  Larger moduli use Python integers.
INT64_MOD_MAX = 2**31

#: Largest key space encoded in int64; wider keys are Python integers.
INT64_KEYS_MAX = 2**62

_INT64_MAX = 2**63 - 1

#: A product is reduced before it could pass this bound, which leaves room to
#: add one more reduced residue without overflow.
_PRODUCT_MAX = 2**62


def _reduce(acc, bound: int, mod: int):
    """acc mod ``mod`` for entries in [0, bound]; may overwrite ``acc``.

    On int64 arrays this is acc - (acc // mod) * mod: numpy divides by a
    scalar without a hardware division, several times faster than
    np.remainder.
    """
    if bound < mod:
        return acc
    if isinstance(acc, np.ndarray) and acc.dtype == np.int64:
        quotient = acc // mod
        quotient *= mod
        acc -= quotient
        return acc
    return acc % mod


def _add(acc, acc_bound: int, term, bound: int, mod: int):
    """(acc + term, its bound), reducing both operands first where the sum
    could pass the int64 range.  Adds in place when ``acc`` already has the
    sum's shape; every array passed here is a temporary of the caller's."""
    if acc_bound + bound > _INT64_MAX:
        acc, acc_bound = _reduce(acc, acc_bound, mod), min(acc_bound, mod - 1)
        term, bound = _reduce(term, bound, mod), min(bound, mod - 1)
    shape = np.shape(acc)
    if isinstance(acc, np.ndarray) and np.broadcast_shapes(shape, np.shape(term)) == shape:
        acc += term
        return acc, acc_bound + bound
    return acc + term, acc_bound + bound


def _monomial_sum(terms, axes, mod: int):
    """sum c * prod_i x_i**e_i over ``terms``, which share one variable
    support, as (array or int, bound of its entries)."""
    acc, acc_bound = 0, 0
    for exp, c in terms:
        term, bound = c, c
        for i, e in enumerate(exp):
            if e:
                if bound * (mod - 1) > _PRODUCT_MAX:
                    term, bound = _reduce(term, bound, mod), mod - 1
                term = term * axes[i][e]
                bound *= mod - 1
        acc, acc_bound = _add(acc, acc_bound, term, bound, mod)
    return acc, acc_bound


def _block_values(groups, axes, shape, mod: int, dtype) -> np.ndarray:
    """One component on one block: flat values reduced into [0, mod)."""
    acc, acc_bound = 0, 0
    for terms in groups:
        part, bound = _monomial_sum(terms, axes, mod)
        acc, acc_bound = _add(acc, acc_bound, part, bound, mod)
    acc = _reduce(acc, acc_bound, mod)
    return np.broadcast_to(np.asarray(acc, dtype=dtype), shape).ravel()


def _support_groups(g: IntPoly) -> list[list]:
    """The terms of g grouped by the variables they involve, smaller supports
    first, so that each partial sum lives on as few axes as possible."""
    groups: dict[tuple[int, ...], list] = {}
    for exp, c in g.items():
        support = tuple(i for i, e in enumerate(exp) if e)
        groups.setdefault(support, []).append((exp, c))
    return [groups[s] for s in sorted(groups, key=lambda s: (len(s), s))]


def _power_axes(x: np.ndarray, max_e: int, mod: int, axis: int, n: int) -> list:
    """[x**e mod ``mod`` for e <= max_e], each shaped to broadcast on ``axis``."""
    shape = [1] * n
    shape[axis] = -1
    powers = [None, x]
    for _ in range(max_e - 1):
        powers.append(powers[-1] * x % mod)
    return [None] + [v.reshape(shape) for v in powers[1:]]


def grid_blocks(
    comps: Sequence[IntPoly], mod: int, n: int, budget: int
) -> Iterator[np.ndarray]:
    """Flat arrays of point keys over all of (Z/mod)^n, lexicographically.

    Coefficients must lie in [0, mod).  Consecutive blocks cover consecutive
    runs of x1, so the i-th key overall belongs to the i-th point of
    ``itertools.product(range(mod), repeat=n)``.  Raises
    BudgetExceededError before the first block when the grid has more than
    ``budget`` points.
    """
    if mod**n > budget:
        raise BudgetExceededError(mod**n, budget)
    dtype = np.int64 if mod <= INT64_MOD_MAX else object
    key_dtype = dtype if mod ** len(comps) <= INT64_KEYS_MAX else object
    max_e = [max((e[i] for g in comps for e in g), default=0) for i in range(n)]
    plans = [_support_groups(g) for g in comps]
    tail = [
        _power_axes(np.arange(mod, dtype=dtype), max_e[i], mod, i, n) for i in range(1, n)
    ]
    rows = max(1, BLOCK_POINTS // mod ** (n - 1))
    for start in range(0, mod, rows):
        x1 = np.arange(start, min(start + rows, mod), dtype=dtype)
        axes = [_power_axes(x1, max_e[0], mod, 0, n)] + tail
        shape = (len(x1),) + (mod,) * (n - 1)
        key = None
        for groups in plans:
            values = _block_values(groups, axes, shape, mod, dtype)
            if key_dtype is object:
                values = values.astype(object)
            key = values if key is None else key * mod + values
        yield key


def tally(
    comps: Sequence[IntPoly], mod: int, n: int, budget: int
) -> tuple[list[list[int]], list[int]]:
    """(the r value columns of the distinct value tuples, ascending, and
    their point counts) over the grid."""
    size = mod ** len(comps)
    if size <= DENSE_KEYS and mod <= INT64_MOD_MAX:
        counts = np.zeros(size, dtype=np.int64)
        for block in grid_blocks(comps, mod, n, budget):
            counts += np.bincount(block, minlength=size)
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        parts = [np.unique(b, return_counts=True) for b in grid_blocks(comps, mod, n, budget)]
        keys, where = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
        counts = np.zeros(len(keys), dtype=np.int64)
        np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    columns = []
    for _ in comps:
        columns.append((keys % mod).tolist())
        keys = keys // mod
    return columns[::-1], counts.tolist()


def find_points(
    comps: Sequence[IntPoly], mod: int, n: int, budget: int, values: Sequence[int], limit: int
) -> tuple[int, list[tuple[int, ...]]]:
    """(number of points whose values are ``values``, each in [0, mod), and
    the first ``limit`` of them in lexicographic order)."""
    target = 0
    for v in values:
        target = target * mod + v
    total = 0
    found: list[tuple[int, ...]] = []
    offset = 0
    for block in grid_blocks(comps, mod, n, budget):
        hits = np.flatnonzero(block == target)
        total += len(hits)
        digits = np.unravel_index(hits[: limit - len(found)] + offset, (mod,) * n)
        found.extend(zip(*(d.tolist() for d in digits)))
        offset += len(block)
    return total, found
