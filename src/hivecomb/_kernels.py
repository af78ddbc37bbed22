"""The lattice-point enumeration of hive polytopes: one schedule, two walks.

`frontier` walks the lattice points of hive polytopes: it fills the interior
entries of a batch of boundary rows one at a time, in the scan order of the
per-n rhombus plan `hive._plan`.  The schedule comes as CSR lists of bound
triples per interior entry: (a, b, c) means entry >= E[a]+E[b]-E[c] (lower)
or <= E[a]+E[b]-E[c] (upper), with every referenced slot filled earlier in
the scan.  Callers keep every entry within +-2^60, so no bound reaches the
+-2^62 sentinels and no width overflows.

`depth_first` walks the same schedule for one row in Python ints, where a
small polytope costs a few microseconds against the frontier's numpy call
overhead.  `count_assignments` counts one row with it, up to DFS_NODES
partial rows, and hands larger counts to `frontier`.
"""

import numpy as np

# numba is not used; perfbench's worker prints this in its environment line.
HAVE_NUMBA = False
# Nothing calls this: vertices are enumerated exactly in `lift._vertices`.
# perfbench's tracer still looks the name up, so it stays bound.
vertex_scan = None

#: Most children a frontier layer materialises at once.  A wider layer, or
#: a single parent with a wider range, is cut into blocks of at most this
#: many, finished depth-first one after the other, so memory stays
#: O(K * FRONTIER_ROWS) rows whatever the widths.
FRONTIER_ROWS = 1 << 14

#: Most partial rows (the boundary row included) `count_assignments` walks
#: depth-first before it counts the row again with `frontier`.  So a count
#: walks at most this many rows twice, and a large one keeps the batched
#: speed and memory bound.
DFS_NODES = 1 << 10

_SENTINEL = 1 << 62


def _layer(rows, k, lo_ptr, lo_abc, up_ptr, up_abc):
    """Lowest value of entry k in each row, and how many values it can take."""
    x = rows[:, lo_abc[lo_ptr[k]:lo_ptr[k + 1]]]
    lo = (x[..., 0] + x[..., 1] - x[..., 2]).max(axis=1, initial=-_SENTINEL)
    x = rows[:, up_abc[up_ptr[k]:up_ptr[k + 1]]]
    hi = (x[..., 0] + x[..., 1] - x[..., 2]).min(axis=1, initial=_SENTINEL)
    return lo, np.maximum(hi - lo + 1, 0)


def frontier(rows, iidx, lo_ptr, lo_abc, up_ptr, up_abc, ids=None,
             exists_only=False, keep_rows=False):
    """Complete the boundary rows `rows` (2-D int64) to every lattice hive.

    Returns (count, final rows).  count is an int, or, when `ids` tags each
    row with a boundary id, an int64 array of counts per id.  exists_only
    (for an untagged batch) stops at the first complete row and counts it
    as 1.  The final rows, in lexicographic order of the interior entries
    in scan order, come back only with keep_rows; otherwise the last entry
    is counted from its widths and never materialised.
    """
    K = iidx.shape[0]
    cap = FRONTIER_ROWS
    total = 0 if ids is None else np.zeros(int(ids.max()) + 1, np.int64)
    done = [rows[:0]]
    # (k, rows, ids, lo, width, ends, p, o): the children for entry k of
    # rows[p:] not yet made, the first taking value lo[p] + o; ends sums the
    # widths capped at cap + 1, so it cannot wrap
    stack = []
    k = 0
    while True:
        if k == K:
            total += rows.shape[0] if ids is None else np.bincount(
                ids, minlength=total.shape[0])
            done.append(rows)
        elif rows.shape[0]:
            lo, width = _layer(rows, k, lo_ptr, lo_abc, up_ptr, up_abc)
            if k == K - 1 and not keep_rows:
                # Python ints: a sum of int64 widths can wrap
                if ids is None:
                    total += sum(width.tolist())
                else:
                    np.add.at(total, ids, width)
            else:
                ends = np.minimum(width, cap + 1).cumsum()
                stack.append((k, rows, ids, lo, width, ends, 0, 0))
        if not stack or (exists_only and total):
            break
        k, rows, ids, lo, width, ends, p, o = stack.pop()
        if o or width[p] > cap:
            # a parent wider than cap is cut into blocks of its own
            size = min(int(width[p]) - o, cap)
            pick = np.full(size, p)
            value = np.arange(lo[p] + o, lo[p] + o + size)
            nxt = (p, o + size) if o + size < width[p] else (p + 1, 0)
        else:
            # otherwise a block is the longest run of whole parents that fits
            base = int(ends[p - 1]) if p else 0
            m = int(np.searchsorted(ends, base + cap, side="right"))
            take = width[p:m]
            pick = np.repeat(np.arange(m - p), take)
            value = np.arange(pick.shape[0]) + (lo[p:m] - ends[p:m] + base
                                                + take)[pick]
            pick += p
            nxt = (m, 0)
        if nxt[0] < width.shape[0]:
            stack.append((k, rows, ids, lo, width, ends, *nxt))
        rows = rows[pick]
        rows[:, iidx[k]] = value
        ids = None if ids is None else ids[pick]
        k += 1
    if exists_only:
        return min(total, 1), None
    return total, np.concatenate(done) if keep_rows else None


def depth_first(row, bounds, budget):
    """Number of lattice hives on `row` (a list of Python ints, filled in
    place), or None when the walk would make more than `budget` partial
    rows, the boundary row included.

    `bounds` is the frontier's schedule as Python ints (hive._Plan.bounds):
    per interior entry in scan order, its flat index and its lower and
    upper triples, each side flattened to a, b, c, a, b, c, ...  The same
    sentinels start each range, and the last entry is counted from its
    width, never filled.
    """
    last = len(bounds) - 1
    if budget < 1:
        return None
    if last < 0:
        return 1
    value = [0] * last  # per entry before the last: its value, its top
    top = [0] * last
    total = 0
    nodes = 1
    k = 0
    while True:
        _, lower, upper = bounds[k]
        lo = -_SENTINEL
        for i in range(0, len(lower), 3):
            x = row[lower[i]] + row[lower[i + 1]] - row[lower[i + 2]]
            if x > lo:
                lo = x
        hi = _SENTINEL
        for i in range(0, len(upper), 3):
            x = row[upper[i]] + row[upper[i + 1]] - row[upper[i + 2]]
            if x < hi:
                hi = x
        if k == last:
            if hi >= lo:
                total += hi - lo + 1
            k -= 1
        else:
            value[k] = lo - 1
            top[k] = hi
        # the deepest entry with a value left takes its next one
        while k >= 0 and value[k] >= top[k]:
            k -= 1
        if k < 0:
            return total
        nodes += 1
        if nodes > budget:
            return None
        value[k] += 1
        row[bounds[k][0]] = value[k]
        k += 1


def count_assignments(entries, iidx, lo_ptr, lo_abc, up_ptr, up_abc,
                      exists_only=False, bounds=None):
    """Number of lattice hives on the boundary row `entries` (1 or 0 with
    exists_only).

    A count given `bounds` (hive._Plan.bounds) is walked depth-first in
    Python ints; past DFS_NODES partial rows, and for exists_only, the row
    goes to `frontier` from the start.
    """
    if bounds is not None and not exists_only:
        count = depth_first(entries.tolist(), bounds, DFS_NODES)
        if count is not None:
            return count
    return frontier(entries[np.newaxis, :], iidx, lo_ptr, lo_abc, up_ptr,
                    up_abc, exists_only=exists_only)[0]
