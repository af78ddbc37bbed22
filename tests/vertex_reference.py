"""Dense reference for the vertex scanner `hivecomb.lift._vertices`.

The same double description, but every row is evaluated on every ray by a
dot product over all k + 1 coordinates, so the sparse-term evaluation of
the library can be checked against a transcription that skips no term.
"""

import math


def dense_vertices(rows, low):
    """(x, s, tight) per vertex of {x : coef.x + const >= 0 for all rows},
    in the order and with the bitmasks of `_vertices`."""
    k = len(rows[0][0])
    start = (1 << k + 1) - 1
    rays = [((low,) * k + (1,), start - 1)]
    rays += [(tuple(int(i == j) for j in range(k + 1)), start - (2 << i))
             for i in range(k)]
    for r, (coef, const) in enumerate(rows):
        a, bit = (*coef, const), 1 << k + 1 + r
        pos, neg, kept = [], [], []
        for ray, z in rays:
            v = sum(p * q for p, q in zip(a, ray))
            if v < 0:
                neg.append((v, ray, z))
                continue
            if v > 0:
                pos.append((v, ray, z))
            kept.append((ray, z if v else z | bit))
        masks = [z for _, z in rays]
        for vp, p, zp in pos:
            for vn, q, zq in neg:
                z = zp & zq
                if (z.bit_count() >= k - 1
                        and sum(z & zr == z for zr in masks) == 2):
                    ray = [vp * b - vn * c for c, b in zip(p, q)]
                    g = math.gcd(*ray)
                    kept.append((tuple(x // g for x in ray), z | bit))
        rays = kept
    return [(ray[:-1], ray[-1], z >> k + 1) for ray, z in rays]
