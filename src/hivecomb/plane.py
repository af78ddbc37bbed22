"""Exact geometry of the plane B = {(x,y,z) : x+y+z = 0}.

Everything here is exact: a coordinate, length or multiplicity is an int
when it is integral and a Fraction otherwise (`coord`), and no float ever
enters a geometric predicate.  Integral honeycombs, among them every largest
lift over an integral regular boundary, so run on Python ints.  Only the six
lattice directions are supported.

The shared lattice helpers live here: `coords_with` and `point_with` fill
in the third coordinate of a point from two fixed ones,
`Direction.multiple` reads a displacement as a multiple of a direction's
step, and `tension` sums the six steps weighted by multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def frac(v) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot coerce {v!r} to an exact rational")


def coord(v):
    """Coerce like frac, but to an int when the value is integral.

    The one coercion behind points, segment lengths and multiplicities;
    ints and Fractions of equal value compare and hash alike, and print the
    same.
    """
    if type(v) is int:
        return v
    v = frac(v)
    return v.numerator if v.denominator == 1 else v


class Infinity:
    """Dedicated +infinity tag for semi-infinite edge lengths.

    Not a number and never compared equal to one; it only orders above
    every finite length.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("hivecomb-infinity")

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self


INF = Infinity()


@dataclass(frozen=True)
class PlanePoint:
    """A point of B, all three coordinates stored to keep S3 symmetry literal.

    Coordinates are stored through `coord`: ints when integral.
    """

    x: object
    y: object
    z: object

    def __post_init__(self):
        object.__setattr__(self, "x", coord(self.x))
        object.__setattr__(self, "y", coord(self.y))
        object.__setattr__(self, "z", coord(self.z))
        if self.x + self.y + self.z != 0:
            raise ValueError(f"({self.x},{self.y},{self.z}) is not in the zero-sum plane")

    @classmethod
    def from_xy(cls, x, y) -> "PlanePoint":
        x, y = coord(x), coord(y)
        return cls(x, y, -x - y)

    def coords(self):
        return (self.x, self.y, self.z)

    def __getitem__(self, axis: int):
        return (self.x, self.y, self.z)[axis]

    def step(self, direction: "Direction", t) -> "PlanePoint":
        """The point  self + t * direction.step."""
        t = coord(t)
        dx, dy, dz = direction.step
        return PlanePoint(self.x + t * dx, self.y + t * dy, self.z + t * dz)

    def translate(self, vec) -> "PlanePoint":
        vx, vy, vz = vec
        return PlanePoint(self.x + coord(vx), self.y + coord(vy),
                          self.z + coord(vz))

    def __repr__(self):
        return f"({self.x},{self.y},{self.z})"


@dataclass(frozen=True)
class Direction:
    """One of the six unit lattice steps of B.

    Three attributes are derived from the step once, at construction:
    constant_axis, the coordinate that stays constant along the step;
    param_axis, the coordinate used as the canonical parameter on lines of
    that axis (x-lines are parametrized by y, y-lines by z, z-lines by x);
    and orientation, +1 if the canonical parameter increases along the step
    and -1 otherwise.
    """

    name: str
    step: tuple  # integer 3-tuple summing to 0
    constant_axis: int = field(init=False, compare=False)
    param_axis: int = field(init=False, compare=False)
    orientation: int = field(init=False, compare=False)

    def __post_init__(self):
        constant = self.step.index(0)
        param = (constant + 1) % 3
        object.__setattr__(self, "constant_axis", constant)
        object.__setattr__(self, "param_axis", param)
        object.__setattr__(self, "orientation",
                           1 if self.step[param] > 0 else -1)

    def multiple(self, delta):
        """t with delta == t * step, or None when delta is off this axis."""
        a, b, c = self.step
        t = delta[0] * a if a else delta[1] * b  # step entries are 0 or +-1
        if (delta[0], delta[1], delta[2]) != (t * a, t * b, t * c):
            return None
        return t

    def opposite(self) -> "Direction":
        return _OPPOSITE[self.name]

    def __repr__(self):
        return self.name


NE = Direction("NE", (0, 1, -1))   # x constant; lambda rays of a GL honeycomb
SW = Direction("SW", (0, -1, 1))
NW = Direction("NW", (1, 0, -1))   # y constant
SE = Direction("SE", (-1, 0, 1))   # mu rays
E = Direction("E", (-1, 1, 0))     # z constant
W = Direction("W", (1, -1, 0))     # nu rays

#: Census order for boundary types: clockwise starting north.
DIRECTION_ORDER = (NE, E, SE, SW, W, NW)

DIRECTIONS = {d.name: d for d in DIRECTION_ORDER}
_OPPOSITE = {"NE": SW, "SW": NE, "NW": SE, "SE": NW, "E": W, "W": E}

#: Canonical positive direction on lines of each constant axis
#: (the step that increases the canonical parameter).
AXIS_POSITIVE = {0: NE, 1: SE, 2: W}


def tension(mults) -> tuple:
    """Sum of the six unit steps weighted by mults (DIRECTION_ORDER); zero
    for a balanced vertex and for a type whose dual region closes.

    The steps NE, E, SE, SW, W, NW are written out, coordinate by
    coordinate.
    """
    ne, e, se, sw, w, nw = mults
    return (w + nw - e - se, ne + e - sw - w, se + sw - ne - nw)


def coords_with(a1, c1, a2, c2) -> tuple:
    """The coordinates with c1 on axis a1 and c2 on axis a2; the third is
    minus their sum."""
    coords = [None, None, None]
    coords[a1] = c1
    coords[a2] = c2
    coords[3 - a1 - a2] = -c1 - c2
    return tuple(coords)


def point_with(a1, c1, a2, c2) -> PlanePoint:
    """The point with coordinate c1 on axis a1 and c2 on axis a2."""
    return PlanePoint(*coords_with(a1, c1, a2, c2))


def perp_step(d: Direction) -> tuple:
    """Root-lattice step dual to an edge in direction d.

    The 90-degree rotation (x,y,z) -> (y-z, z-x, x-y) of B sends each unit
    direction to the step between the two dual-graph vertices separated by an
    edge of that direction.
    """
    x, y, z = d.step
    return (y - z, z - x, x - y)


@dataclass(frozen=True)
class SegmentOrRay:
    """A segment or ray along one of the six directions, with a multiplicity."""

    base: PlanePoint
    direction: Direction
    length: object  # positive int or Fraction (see coord), or INF
    multiplicity: object = 1

    def __post_init__(self):
        if self.length is not INF:
            object.__setattr__(self, "length", coord(self.length))
            if self.length <= 0:
                raise ValueError("segment length must be positive")
        object.__setattr__(self, "multiplicity", coord(self.multiplicity))
        if self.multiplicity <= 0:
            raise ValueError("multiplicity must be positive")

    @property
    def is_ray(self) -> bool:
        return self.length is INF

    @property
    def end(self) -> PlanePoint:
        if self.is_ray:
            raise ValueError("a ray has no finite endpoint")
        return self.base.step(self.direction, self.length)

    def constant(self):
        return self.base[self.direction.constant_axis]

    def interval(self):
        """(lo, hi) of the canonical line parameter covered, lo <= hi.

        Either bound may be None, meaning unbounded on that side.
        """
        return param_interval(self.base[self.direction.param_axis],
                              self.direction, self.length)

    def point_at_param(self, t) -> PlanePoint:
        """Point on the carrying line with canonical parameter t."""
        d = self.direction
        return point_with(d.constant_axis, self.constant(), d.param_axis, t)

    def __repr__(self):
        tail = "inf" if self.is_ray else str(self.length)
        m = f" x{self.multiplicity}" if self.multiplicity != 1 else ""
        return f"[{self.base} {self.direction} len={tail}{m}]"


def param_interval(t, d: Direction, length) -> tuple:
    """(lo, hi) of the canonical line parameter covered by a piece leaving
    parameter t along d, of the given length or INF; None is unbounded."""
    if d.orientation > 0:
        return (t, None if length is INF else t + length)
    return (None if length is INF else t - length, t)


def constant_coordinate(s: SegmentOrRay):
    """(axis index, value) of the coordinate held constant along s."""
    axis = s.direction.constant_axis
    return axis, s.base[axis]


def _interval_meet(a, b):
    """Intersection of two canonical-parameter intervals; None bounds = unbounded."""
    lo_a, hi_a = a
    lo_b, hi_b = b
    if lo_a is None:
        lo = lo_b
    elif lo_b is None:
        lo = lo_a
    else:
        lo = max(lo_a, lo_b)
    if hi_a is None:
        hi = hi_b
    elif hi_b is None:
        hi = hi_a
    else:
        hi = min(hi_a, hi_b)
    return lo, hi


def intersect(s1: SegmentOrRay, s2: SegmentOrRay):
    """Nothing (None), a transversal PlanePoint, or the collinear overlap.

    Overlaps come back as a multiplicity-1 SegmentOrRay; a single shared
    endpoint of collinear pieces comes back as a PlanePoint.
    """
    a1, c1 = constant_coordinate(s1)
    a2, c2 = constant_coordinate(s2)
    if a1 == a2:
        if c1 != c2:
            return None
        lo, hi = _interval_meet(s1.interval(), s2.interval())
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            if lo == hi:
                return s1.point_at_param(lo)
            return SegmentOrRay(s1.point_at_param(lo), AXIS_POSITIVE[a1], hi - lo)
        if lo is None and hi is None:
            # two full lines; SegmentOrRay inputs cannot reach this
            raise ValueError("overlap unbounded on both sides")
        if hi is None:
            return SegmentOrRay(s1.point_at_param(lo), AXIS_POSITIVE[a1], INF)
        return SegmentOrRay(s1.point_at_param(hi), AXIS_POSITIVE[a1].opposite(), INF)
    # transversal: the two constants pin the point
    p = point_with(a1, c1, a2, c2)
    if _contains_param(s1, p) and _contains_param(s2, p):
        return p
    return None


def _contains_param(s: SegmentOrRay, p: PlanePoint) -> bool:
    t = p[s.direction.param_axis]
    lo, hi = s.interval()
    if lo is not None and t < lo:
        return False
    if hi is not None and t > hi:
        return False
    return True


def contains_point(s: SegmentOrRay, p: PlanePoint) -> bool:
    """Whether p lies on s (endpoints included)."""
    axis = s.direction.constant_axis
    if p[axis] != s.constant():
        return False
    return _contains_param(s, p)
