"""Plain-Python reference for the frontier kernel in `hivecomb._kernels`.

It loops one entry at a time, so the numpy kernel can be checked against a
transcription that shares none of its array logic.
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

