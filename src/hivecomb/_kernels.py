"""int64 numpy kernels for the two enumeration hot loops.

`frontier` walks the lattice points of hive polytopes: it fills the interior
entries of a batch of boundary rows one at a time, in the scan order of the
per-n rhombus plan `hive._plan`.  The schedule comes as CSR lists of bound
triples per interior entry: (a, b, c) means entry >= E[a]+E[b]-E[c] (lower)
or <= E[a]+E[b]-E[c] (upper), with every referenced slot filled earlier in
the scan.  Callers keep every entry within +-2^60, so no bound reaches the
+-2^62 sentinels and no width overflows.

`vertex_scan` tests the stored square subsystems of a hive polytope for a
feasible nonintegral solution.
"""

import numpy as np

# numba is not used; perfbench's worker prints this in its environment line.
HAVE_NUMBA = False

#: Most children a frontier layer materialises at once.  A wider layer, or
#: a single parent with a wider range, is cut into blocks of at most this
#: many, finished depth-first one after the other, so memory stays
#: O(K * FRONTIER_ROWS) rows whatever the widths.
FRONTIER_ROWS = 1 << 14

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


def count_assignments(entries, iidx, lo_ptr, lo_abc, up_ptr, up_abc,
                      exists_only=False):
    """Number of lattice hives on the boundary row `entries` (1 or 0 with
    exists_only)."""
    return frontier(entries[np.newaxis, :], iidx, lo_ptr, lo_abc, up_ptr,
                    up_abc, exists_only=exists_only)[0]


def vertex_scan(coefs, consts, sub_rows, sub_adj, sub_det):
    """Index of the first stored subset giving a feasible nonintegral point.

    Rows read coef.x + const >= 0.  For subset s with row list R, the unique
    solution of coef[R].x = -const[R] is x = (adj @ -const[R]) / det with
    det > 0, so x is integral iff det divides every numerator.  Only subsets
    with det >= 2 are stored; callers keep max|consts| under the limit of
    `lift._vertex_plan`, so all stays inside int64.  Returns -1 when no
    stored subset gives a feasible nonintegral point; chunks bound memory.
    """
    chunk = 1 << 14
    S = sub_rows.shape[0]
    for lo in range(0, S, chunk):
        rows = sub_rows[lo:lo + chunk]
        adj = sub_adj[lo:lo + chunk].astype(np.int64)
        det = sub_det[lo:lo + chunk]
        numer = np.einsum("sij,sj->si", adj, -consts[rows])
        cand = np.nonzero((numer % det[:, None] != 0).any(axis=1))[0]
        if cand.size == 0:
            continue
        vals = numer[cand] @ coefs.T + np.outer(det[cand], consts)
        hits = cand[(vals >= 0).all(axis=1)]
        if hits.size:
            return lo + int(hits[0])
    return -1
