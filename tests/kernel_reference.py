"""Plain-Python references for the kernels in `hivecomb._kernels`.

Each loops one entry, subset or row at a time, so the numpy kernels can be
checked against a transcription that shares none of their array logic.
"""

import numpy as np


def count_dfs(entries, iidx, lo_ptr, lo_abc, up_ptr, up_abc, exists_only):
    """Depth-first count of the interior assignments of one boundary row.

    Same schedule and sentinels as `_kernels.frontier`; mutates `entries`.
    """
    K = iidx.shape[0]
    if K == 0:
        return 1
    hi = np.empty(K, np.int64)
    val = np.empty(K, np.int64)
    count = 0
    k = 0
    descend = True
    while k >= 0:
        if descend:
            l = -(1 << 62)
            h = 1 << 62
            for t in range(lo_ptr[k], lo_ptr[k + 1]):
                b = entries[lo_abc[t, 0]] + entries[lo_abc[t, 1]] - entries[lo_abc[t, 2]]
                if b > l:
                    l = b
            for t in range(up_ptr[k], up_ptr[k + 1]):
                b = entries[up_abc[t, 0]] + entries[up_abc[t, 1]] - entries[up_abc[t, 2]]
                if b < h:
                    h = b
            hi[k] = h
            val[k] = l
        else:
            val[k] += 1
        if val[k] > hi[k]:
            k -= 1
            descend = False
            continue
        entries[iidx[k]] = val[k]
        if k == K - 1:
            count += 1
            if exists_only:
                return 1
            descend = False
        else:
            k += 1
            descend = True
    return count


def vertex_scan_loop(coefs, consts, sub_rows, sub_adj, sub_det):
    """Index of the first stored subset giving a feasible nonintegral point,
    or -1; see `_kernels.vertex_scan`."""
    S = sub_rows.shape[0]
    m = coefs.shape[0]
    k = coefs.shape[1]
    numer = np.empty(k, np.int64)
    for s in range(S):
        det = sub_det[s]
        nonint = False
        for i in range(k):
            acc = np.int64(0)
            for j in range(k):
                acc -= sub_adj[s, i, j] * consts[sub_rows[s, j]]
            numer[i] = acc
            if acc % det != 0:
                nonint = True
        if not nonint:
            continue
        feasible = True
        for r in range(m):
            acc = consts[r] * det
            for i in range(k):
                acc += coefs[r, i] * numer[i]
            if acc < 0:
                feasible = False
                break
        if feasible:
            return s
    return -1
