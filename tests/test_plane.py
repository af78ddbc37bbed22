"""Zero-sum plane primitives: points, directions, segments, intersection."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivecomb import (AXIS_POSITIVE, DIRECTION_ORDER, DIRECTIONS, INF,
                      Direction, PlanePoint, SegmentOrRay, frac, intersect,
                      perp_step)
from hivecomb.plane import contains_point, point_with

F = Fraction
O = PlanePoint(0, 0, 0)

STEPS = {"NE": (0, 1, -1), "E": (-1, 1, 0), "SE": (-1, 0, 1),
         "SW": (0, -1, 1), "W": (1, -1, 0), "NW": (1, 0, -1)}


class TestPlanePoint:
    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            PlanePoint(1, 0, 0)

    def test_from_xy(self):
        p = PlanePoint.from_xy(F(1, 2), F(1, 3))
        assert p.coords() == (F(1, 2), F(1, 3), F(-5, 6))
        assert p[2] == F(-5, 6)

    def test_step_and_translate(self):
        p = O.step(DIRECTIONS["NE"], F(3, 2))
        assert p.coords() == (0, F(3, 2), F(-3, 2))
        assert p.translate((-1, 1, 0)).coords() == (-1, F(5, 2), F(-3, 2))

    def test_exact_arithmetic_only(self):
        with pytest.raises(TypeError):
            PlanePoint(0.5, 0.5, -1.0)

    def test_point_with_two_coordinates(self):
        assert point_with(2, 5, 0, F(1, 2)).coords() == (F(1, 2), F(-11, 2), 5)
        assert point_with(1, -1, 2, 3) == PlanePoint(-2, -1, 3)


class TestDirections:
    def test_step_table(self):
        assert tuple(d.name for d in DIRECTION_ORDER) == \
            ("NE", "E", "SE", "SW", "W", "NW")
        for d in DIRECTION_ORDER:
            assert d.step == STEPS[d.name]
            assert sum(d.step) == 0
            assert d.opposite().step == tuple(-c for c in d.step)

    def test_constant_and_param_axes(self):
        assert DIRECTIONS["NE"].constant_axis == 0
        assert DIRECTIONS["SE"].constant_axis == 1
        assert DIRECTIONS["W"].constant_axis == 2
        for d in DIRECTION_ORDER:
            assert d.step[d.constant_axis] == 0
            assert d.param_axis == (d.constant_axis + 1) % 3
            assert d.orientation == (1 if d.step[d.param_axis] > 0 else -1)

    def test_multiple(self):
        for d in DIRECTION_ORDER:
            assert d.multiple(tuple(F(-3, 2) * c for c in d.step)) == F(-3, 2)
            assert d.multiple((0, 0, 0)) == 0
        assert DIRECTIONS["NE"].multiple((1, 1, -2)) is None
        assert DIRECTIONS["E"].multiple((1, -2, 1)) is None

    def test_axis_positive(self):
        for axis, d in AXIS_POSITIVE.items():
            assert d.constant_axis == axis and d.orientation == 1

    def test_perp_steps_are_root_steps(self):
        assert perp_step(DIRECTIONS["NE"]) == (2, -1, -1)
        for d in DIRECTION_ORDER:
            s = perp_step(d)
            assert sum(s) == 0
            assert sum(c * c for c in s) == 6
            assert perp_step(d.opposite()) == tuple(-c for c in s)


class TestSegmentOrRay:
    def test_end_and_constant(self):
        s = SegmentOrRay(O, DIRECTIONS["NE"], 3)
        assert s.end.coords() == (0, 3, -3)
        assert s.constant() == 0
        assert not s.is_ray

    def test_ray_has_no_end(self):
        r = SegmentOrRay(O, DIRECTIONS["W"], INF)
        assert r.is_ray
        with pytest.raises(ValueError):
            r.end

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentOrRay(O, DIRECTIONS["NE"], 0)
        with pytest.raises(ValueError):
            SegmentOrRay(O, DIRECTIONS["NE"], -1)
        with pytest.raises(ValueError):
            SegmentOrRay(O, DIRECTIONS["NE"], 1, multiplicity=0)

    def test_interval_orientation(self):
        up = SegmentOrRay(O, DIRECTIONS["NE"], 2)
        down = SegmentOrRay(PlanePoint(0, 2, -2), DIRECTIONS["SW"], 2)
        assert up.interval() == (0, 2)
        assert down.interval() == (0, 2)
        ray = SegmentOrRay(O, DIRECTIONS["SW"], INF)
        assert ray.interval() == (None, 0)

    def test_point_at_param(self):
        s = SegmentOrRay(PlanePoint(1, -1, 0), DIRECTIONS["NE"], 5)
        p = s.point_at_param(F(3, 7))
        assert p.coords() == (1, F(3, 7), F(-10, 7))


class TestIntersect:
    def test_transversal(self):
        a = SegmentOrRay(O, DIRECTIONS["NE"], 3)
        b = SegmentOrRay(PlanePoint.from_xy(0, 2), DIRECTIONS["W"], INF)
        assert intersect(a, b) == PlanePoint(0, 2, -2)

    def test_transversal_miss(self):
        a = SegmentOrRay(O, DIRECTIONS["NE"], 1)
        b = SegmentOrRay(PlanePoint.from_xy(0, 2), DIRECTIONS["W"], INF)
        assert intersect(a, b) is None

    def test_collinear_overlap(self):
        a = SegmentOrRay(O, DIRECTIONS["NE"], 3)
        c = SegmentOrRay(PlanePoint(0, 1, -1), DIRECTIONS["NE"], 4)
        got = intersect(a, c)
        assert isinstance(got, SegmentOrRay)
        assert got.base == PlanePoint(0, 1, -1) and got.length == 2
        assert got.direction is DIRECTIONS["NE"]

    def test_collinear_touch_is_a_point(self):
        a = SegmentOrRay(O, DIRECTIONS["NE"], 1)
        c = SegmentOrRay(PlanePoint(0, 1, -1), DIRECTIONS["NE"], 1)
        assert intersect(a, c) == PlanePoint(0, 1, -1)

    def test_parallel_distinct_lines(self):
        a = SegmentOrRay(O, DIRECTIONS["NE"], 3)
        d = SegmentOrRay(PlanePoint(1, -1, 0), DIRECTIONS["NE"], 2)
        assert intersect(a, d) is None

    def test_contains_point(self):
        a = SegmentOrRay(O, DIRECTIONS["NE"], 3)
        assert contains_point(a, PlanePoint(0, 2, -2))
        assert contains_point(a, a.end)
        assert not contains_point(a, PlanePoint(0, 4, -4))
        assert not contains_point(a, PlanePoint(1, 1, -2))


class TestInfinity:
    def test_ordering(self):
        assert INF > 10 ** 12 and not INF < F(1, 3)
        assert INF == INF
        assert INF != 3


class TestFrac:
    def test_coercions(self):
        assert frac(3) == F(3) and frac("2/5") == F(2, 5)
        assert frac(F(1, 2)) == F(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.1)


@st.composite
def plane_points(draw):
    x = F(draw(st.integers(-30, 30)), draw(st.integers(1, 8)))
    y = F(draw(st.integers(-30, 30)), draw(st.integers(1, 8)))
    return PlanePoint.from_xy(x, y)


@given(plane_points(), st.sampled_from(DIRECTION_ORDER),
       st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_step_preserves_constant_axis(p, d, t):
    q = p.step(d, t)
    assert q[d.constant_axis] == p[d.constant_axis]
    assert sum(q.coords()) == 0


@given(plane_points(), st.sampled_from(DIRECTION_ORDER), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_segment_contains_its_param_points(p, d, length):
    s = SegmentOrRay(p, d, length)
    lo, hi = s.interval()
    mid = s.point_at_param(F(lo + hi, 2))
    assert contains_point(s, mid)
    assert contains_point(s, s.base) and contains_point(s, s.end)
