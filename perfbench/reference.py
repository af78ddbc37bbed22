"""Reference checks that do not run the code under test.

Counts come from the tableaux rule in `hivecomb.oracles` (or from a table
of values that rule produced), polytope vertices from its brute-force
enumerator.  Everything else -- the hive boundary, the rhombus
inequalities, the LP optimality certificate, vertex rank -- is recomputed
here in exact arithmetic from the definitions, without calling `hive`,
`lift` or `simplex`.

Each check returns None when the answer is right and a short reason when it
is wrong.
"""

from fractions import Fraction

from hivecomb import oracles
from hivecomb.weights import BoundaryTriple

#: Counts too large to run the tableaux rule on every benchmark run, with
#: the value that rule returned for them (in 171 s on the reference host).
PINNED_COUNTS = {
    (tuple(5 * x for x in (5, 4, 3, 2, 1, 0)),
     tuple(5 * x for x in (5, 4, 3, 2, 1, 0)),
     tuple(-5 * x for x in (2, 3, 4, 6, 7, 8))): 1337644,
}

#: The first fractional polytope vertex of the exhaustive n=5, bound-2 scan.
WITNESS = BoundaryTriple((2, 2, 1, 0, -1), (2, 1, 0, -1, -2),
                         (1, 0, -1, -2, -2))
WITNESS_ENTRIES = tuple(Fraction(v) for v in
                        (0, 2, 2, 4, 4, 4, 5, 6, 6, 5, 5, Fraction(13, 2),
                         Fraction(13, 2), Fraction(13, 2), 5, 4, 6, 7, 7, 6,
                         4))

# obtuse step -> the two acute corners, relative to the first obtuse corner
_APEX = (((0, 1), ((1, 0), (-1, 1))),
         ((1, 0), ((1, -1), (0, 1))),
         ((1, -1), ((0, -1), (1, 0))))


def _key(t):
    return (tuple(int(x) for x in t.lam), tuple(int(x) for x in t.mu),
            tuple(int(x) for x in t.nu))


def points(n):
    """The size-n triangle in antidiagonal order: row r is (r,0) .. (0,r)."""
    return [(r - p, p) for r in range(n + 1) for p in range(r + 1)]


def flat(i, j):
    r = i + j
    return r * (r + 1) // 2 + j


def rhombi(n):
    """(obtuse, obtuse, acute, acute) corner quadruples in scan order."""
    inside = set(points(n))
    out = []
    for p in points(n):
        for s, (a1, a2) in _APEX:
            quad = (p, (p[0] + s[0], p[1] + s[1]),
                    (p[0] + a1[0], p[1] + a1[1]),
                    (p[0] + a2[0], p[1] + a2[1]))
            if all(c in inside for c in quad):
                out.append(quad)
    return out


def interior(n):
    return sorted((i, j) for i, j in points(n)
                  if i >= 1 and j >= 1 and i + j <= n - 1)


def boundary(t):
    """Boundary entries as partial sums clockwise from the zero corner."""
    n = t.n
    out = {(0, 0): Fraction(0)}
    run = Fraction(0)
    for i in range(1, n + 1):
        run += t.lam[i - 1]
        out[(i, 0)] = run
    for s in range(1, n + 1):
        run += t.mu[s - 1]
        out[(n - s, s)] = run
    for k in range(1, n):
        run += t.nu[k - 1]
        out[(0, n - k)] = run
    assert run + t.nu[n - 1] == 0
    return out


def hive_problem(entries, t):
    """Why the flat entry list is not a hive over t, or None."""
    n = t.n
    if len(entries) != len(points(n)):
        return f"{len(entries)} entries for n={n}"
    for p, v in boundary(t).items():
        if entries[flat(*p)] != v:
            return f"boundary entry {p} is {entries[flat(*p)]}, expected {v}"
    for a, b, c, d in rhombi(n):
        if (entries[flat(*a)] + entries[flat(*b)]
                - entries[flat(*c)] - entries[flat(*d)]) < 0:
            return f"rhombus {a, b, c, d} is negative"
    return None


def lp_rows(t):
    """Rhombus rows over the interior entries: coef . x + const >= 0."""
    inter = interior(t.n)
    pos = {p: k for k, p in enumerate(inter)}
    bvals = boundary(t)
    rows = []
    for quad in rhombi(t.n):
        coef = [0] * len(inter)
        const = Fraction(0)
        for p, sign in zip(quad, (1, 1, -1, -1)):
            if p in pos:
                coef[pos[p]] += sign
            else:
                const += sign * bvals[p]
        rows.append((coef, const))
    return inter, rows


def rank(rows):
    """Exact rank of a list of integer rows."""
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


class Oracle:
    """Memoized tableaux-rule counts, keyed by the integral triple."""

    def __init__(self):
        self.counts = dict(PINNED_COUNTS)
        self.vertices = {}

    def trim(self, limit=4096):
        """Bound the memo: past `limit` entries, forget all but the pinned
        counts."""
        if len(self.counts) > limit:
            self.counts = dict(PINNED_COUNTS)

    def count(self, t):
        key = _key(t)
        if key not in self.counts:
            self.counts[key] = oracles.transcribed_lr_count(t)
        return self.counts[key]

    def all_vertices_integral(self, t):
        key = _key(t)
        if key not in self.vertices:
            self.vertices[key] = all(
                h.is_integral for h in oracles.enumerate_polytope_vertices(t))
        return self.vertices[key]


def dominant(n, lo, hi, total):
    """Weakly decreasing integer n-vectors in [lo, hi] summing to total.

    Kept apart from weights.dominant_vectors, which the decomposition under
    test uses.
    """
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(hi, lo - 1, -1):
        rest = total - v
        if (n - 1) * lo <= rest <= (n - 1) * v:
            for tail in dominant(n - 1, lo, v, rest):
                yield (v,) + tail


def check_count(oracle, t, got):
    want = oracle.count(t)
    return None if got == want else f"count {got}, oracle {want}"


def check_decompose(oracle, lam, mu, got):
    """Every sigma in the box [lam_n+mu_n, lam_1+mu_1] with the right size."""
    n = len(lam)
    want = {}
    for sigma in dominant(n, lam[-1] + mu[-1], lam[0] + mu[0],
                          sum(lam) + sum(mu)):
        nu = tuple(-x for x in reversed(sigma))
        c = oracle.count(BoundaryTriple(lam, mu, nu))
        if c:
            want[sigma] = c
    got = {tuple(int(x) for x in k): v for k, v in got.items()}
    return None if got == want else "decomposition differs from the oracle"


def check_enumerate(oracle, t, got):
    want = oracle.count(t)
    if len(got) != want:
        return f"{len(got)} hives, oracle count {want}"
    keys = [tuple(h.entries) for h in got]
    if len(set(keys)) != len(keys):
        return "repeated hive"
    if keys != sorted(keys):
        return "hives not sorted"
    for entries in keys:
        if any(Fraction(x).denominator != 1 for x in entries):
            return "nonintegral hive"
        why = hive_problem(entries, t)
        if why:
            return why
    return None


def check_feasible(oracle, t, got):
    want = oracle.count(t) > 0
    return None if got == (want,) * 3 else f"feasibility {got}, oracle {want}"


def _objective(n, weights):
    """Weighted-perimeter coefficients on every entry, from hexagon weights."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    w = {tuple(p): Fraction(v) for p, v in weights.items()}
    if set(w) != set(interior(n)):
        return None, "weights do not cover the hexagons"
    for p, v in w.items():
        around = sum(w.get((p[0] + a, p[1] + b), 0) for a, b in steps)
        if v <= 0 or 6 * v <= around:
            return None, f"weight at {p} not positive superharmonic"
    return {p: 6 * w.get(p, 0) - sum(w.get((p[0] + a, p[1] + b), 0)
                                     for a, b in steps)
            for p in points(n)}, None


def check_lift(t, rep, js):
    """Hive, exact optimality certificate, integrality and the structure."""
    entries = tuple(Fraction(x) for x in rep.hive.entries)
    why = hive_problem(entries, t)
    if why:
        return why
    if any(x.denominator != 1 for x in entries) or rep.integral is not True:
        return "nonintegral largest lift over an integral boundary"
    coeffs, why = _objective(t.n, rep.weight.values)
    if why:
        return why
    if rep.objective_value != sum(coeffs[p] * entries[flat(*p)]
                                  for p in points(t.n)):
        return "objective value does not match the hive"
    inter, rows = lp_rows(t)
    x = [entries[flat(*p)] for p in inter]
    u = [Fraction(v) for v in rep.certificate.multipliers]
    if len(u) != len(rows):
        return "certificate has the wrong number of multipliers"
    for ui, (coef, const) in zip(u, rows):
        slack = sum(c * xi for c, xi in zip(coef, x)) + const
        if ui < 0 or (ui != 0 and slack != 0):
            return "certificate multiplier on a slack row or negative"
    for j, p in enumerate(inter):
        if sum(ui * coef[j] for ui, (coef, _) in zip(u, rows)) != -coeffs[p]:
            return "certificate does not balance the objective"
    if "6-valent" in rep.vertex_kinds:
        return "6-valent vertex over a regular boundary"
    if rep.max_multiplicity != 1 or rep.acyclic is not True:
        return "multiplicity above 1 or cyclic post-elision graph"
    if (js["hive"]["entries"] != [str(v) for v in entries]
            or js["objective_value"] != str(rep.objective_value)
            or js["integral"] is not True or js["acyclic"] is not True
            or js["max_multiplicity"] != 1):
        return "report JSON disagrees with the report"
    return None


def check_hunt(oracle, n, t, got, js):
    """Hits are exact nonintegral vertices; n=4 misses match the oracle.

    Returns (reason or None, whether the answer was verified).
    """
    if got is None:
        if t == WITNESS:
            return "miss on the pinned witness", True
        if n > 4:
            return None, False
        if oracle.all_vertices_integral(t):
            return None, True
        return "miss, but the oracle finds a nonintegral vertex", True
    t_got, h = got
    if t_got != t:
        return "hit reported for another boundary", True
    entries = tuple(Fraction(x) for x in h.entries)
    why = hive_problem(entries, t)
    if why:
        return why, True
    if all(x.denominator == 1 for x in entries):
        return "reported vertex is integral", True
    inter, rows = lp_rows(t)
    x = [entries[flat(*p)] for p in inter]
    tight = [coef for coef, const in rows
             if sum(c * xi for c, xi in zip(coef, x)) + const == 0]
    if rank(tight) != len(inter):
        return "reported point is not a vertex", True
    if t == WITNESS and entries != WITNESS_ENTRIES:
        return "witness vertex differs from the pinned one", True
    if js["entries"] != [str(v) for v in entries]:
        return "hit JSON disagrees with the hive", True
    return None, True
