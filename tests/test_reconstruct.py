"""Rebuilding honeycombs from diagrams, overlays, elision, loop breathing."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivecomb import (DIRECTIONS, INF, BoundaryTriple, EpsilonTooLarge, Hive,
                      InflationVector, NotDominant, NotSimplyDegenerate,
                      PlanePoint, SegmentOrRay, build_gl_tinkertoy,
                      canonical_diagram, diagram, elide,
                      enumerate_lattice_hives, hive_indices,
                      hive_to_honeycomb, honeycomb_to_hive, inflate,
                      max_inflation, overlay, prv_witness, reconstruct,
                      standard_configuration)
from hivecomb.errors import NotADiagram
from hivecomb.reconstruct import breathe_loop

F = Fraction
O = PlanePoint(0, 0, 0)

ADJ = BoundaryTriple((1, 0, -1), (1, 0, -1), (1, 0, -1))

# the six trivalent vertices around the gl3 hexagon, counterclockwise
HEX_RING = [(2, -3, 1), (3, -4, 1), (4, -4, 0), (4, -3, -1), (3, -2, -1),
            (2, -2, 0)]


def tripod_honeycomb(a, b):
    t = BoundaryTriple((a,), (b,), (-a - b,))
    return hive_to_honeycomb(enumerate_lattice_hives(t)[0])


class TestReconstruct:
    def test_roundtrip_standard(self):
        for n in (1, 2, 3):
            h = standard_configuration(build_gl_tinkertoy(n))
            assert reconstruct(diagram(h)) == h

    def test_roundtrip_generic_rational(self):
        base = next(h for h in enumerate_lattice_hives(ADJ)
                    if h[(1, 1)] == 1)
        h = hive_to_honeycomb(inflate(base, (1, 1), F(1, 2)))
        assert reconstruct(diagram(h)) == h

    def test_failed_self_check_raises(self, monkeypatch):
        # the final check is no assert, so python -O keeps it
        module = importlib.import_module("hivecomb.reconstruct")
        m = diagram(standard_configuration(build_gl_tinkertoy(2)))
        monkeypatch.setattr(module, "diagram",
                            lambda h: m.translate((1, -1, 0)))
        with pytest.raises(RuntimeError):
            reconstruct(m)

    def test_fractional_multiplicity_rejected(self):
        pieces = [SegmentOrRay(O, DIRECTIONS[d], INF, multiplicity=F(3, 2))
                  for d in ("NE", "SE", "W")]
        m = canonical_diagram(pieces)
        with pytest.raises(NotADiagram) as ex:
            reconstruct(m)
        assert ex.value.reason == "nonintegral-multiplicity"


class TestOverlay:
    def test_two_tripods(self):
        combined = overlay(tripod_honeycomb(1, 1), tripod_honeycomb(3, 0))
        assert combined.tinkertoy.type == (2, 0, 2, 0, 2, 0)
        assert combined.boundary_conditions() == \
            BoundaryTriple((3, 1), (1, 0), (-2, -3))
        g = elide(diagram(combined))
        assert (len(g.nodes), len(g.edges), len(g.half_edges)) == (2, 0, 6)
        assert g.acyclic

    def test_boundaries_add(self):
        h2 = standard_configuration(build_gl_tinkertoy(2))
        h3 = standard_configuration(build_gl_tinkertoy(3))
        t2, t3 = h2.boundary_conditions(), h3.boundary_conditions()
        both = overlay(h2, h3).boundary_conditions()
        merged = sorted(t2.lam + t3.lam, reverse=True)
        assert list(both.lam) == merged


class TestPrvWitness:
    def test_identity_permutations(self):
        h = prv_witness((2, 0), (1, -1), (0, 1), (0, 1))
        assert h.tinkertoy.type == (2, 0, 2, 0, 2, 0)
        assert h.boundary_conditions() == \
            BoundaryTriple((2, 0), (1, -1), (1, -3))

    def test_permuted_pairing(self):
        h = prv_witness((2, 0), (1, -1), (1, 0), (0, 1))
        assert h.boundary_conditions() == \
            BoundaryTriple((2, 0), (1, -1), (-1, -1))

    def test_rejects_nondominant_sum(self):
        with pytest.raises(NotDominant):
            prv_witness((3, 0), (0, -2), (1, 0), (1, 0))

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValueError):
            prv_witness((2, 0), (1, -1), (0, 0), (0, 1))


class TestElide:
    def test_standard_gl2(self):
        g = elide(diagram(standard_configuration(build_gl_tinkertoy(2))))
        assert (len(g.nodes), len(g.edges), len(g.half_edges)) == (4, 3, 6)
        assert g.acyclic and not g.free_lines
        fams = {}
        for he in g.half_edges:
            fams.setdefault(he.direction.name, []).append(he.constant)
        assert {k: sorted(v) for k, v in fams.items()} == \
            {"NE": [1, 3], "SE": [-3, -1], "W": [-1, 1]}
        for e in g.edges:
            axis = e.direction.constant_axis
            assert g.nodes[e.a].location[axis] == g.nodes[e.b].location[axis]
            assert e.length > 0

    def test_standard_gl3_keeps_its_loop(self):
        g = elide(diagram(standard_configuration(build_gl_tinkertoy(3))))
        assert (len(g.nodes), len(g.edges), len(g.half_edges)) == (9, 9, 9)
        assert not g.acyclic

    def test_six_valent_vertex_is_fatal(self):
        h = next(h for h in enumerate_lattice_hives(ADJ) if h[(1, 1)] == 1)
        with pytest.raises(NotSimplyDegenerate):
            elide(diagram(hive_to_honeycomb(h)))


class TestBreatheLoop:
    def g3(self):
        return standard_configuration(build_gl_tinkertoy(3))

    def test_clockwise_grows_the_hexagon(self):
        h = self.g3()
        hv = honeycomb_to_hive(h)
        grown = breathe_loop(h, list(reversed(HEX_RING)), F(1, 2))
        assert grown.boundary_conditions() == h.boundary_conditions()
        hv2 = honeycomb_to_hive(grown)
        assert hv2[(1, 1)] - hv[(1, 1)] == F(1, 2)
        assert all(hv2[p] == hv[p] for p in hive_indices(3) if p != (1, 1))

    def test_counterclockwise_shrinks(self):
        hv2 = honeycomb_to_hive(breathe_loop(self.g3(), HEX_RING, F(1, 4)))
        assert hv2[(1, 1)] == honeycomb_to_hive(self.g3())[(1, 1)] - F(1, 4)

    def test_matches_hive_inflation(self):
        h = self.g3()
        eps = F(2, 3)
        via_loop = honeycomb_to_hive(
            breathe_loop(h, list(reversed(HEX_RING)), eps))
        via_hive = inflate(honeycomb_to_hive(h), (1, 1), eps)
        assert all(via_loop[p] == via_hive[p] for p in hive_indices(3))

    def test_epsilon_limits(self):
        for eps, bound in ((2, 1), (-2, -1)):
            with pytest.raises(EpsilonTooLarge) as ex:
                breathe_loop(self.g3(), HEX_RING, eps)
            assert ex.value.bound == bound
        breathe_loop(self.g3(), HEX_RING, 1)
        breathe_loop(self.g3(), HEX_RING, -1)

    def test_loop_validation(self):
        h = self.g3()
        with pytest.raises(ValueError):
            breathe_loop(h, HEX_RING[:2], F(1, 2))
        with pytest.raises(ValueError):
            breathe_loop(h, HEX_RING + HEX_RING[:1], F(1, 2))
        skip_one = HEX_RING[:2] + HEX_RING[3:]
        with pytest.raises(ValueError):
            breathe_loop(h, skip_one, F(1, 2))
        with pytest.raises(ValueError):
            breathe_loop(h, [(9, -9, 0)] + HEX_RING[1:], F(1, 2))

    def test_loop_through_crossings(self):
        # a loop around the two neighbouring hexagons (1,1) and (2,1) whose
        # sides pass straight through crossings of the diagram
        H = Hive(4, [0, 4, 6, 7, F(28, 3), 11, 9, F(37, 3), 14, 15, 9, 13,
                     16, 17, 17])
        h = hive_to_honeycomb(H)
        loop = [(F(2, 3), 3, F(-11, 3)), (2, F(5, 3), F(-11, 3)),
                (F(10, 3), F(5, 3), -5), (F(10, 3), 2, F(-16, 3)),
                (2, F(10, 3), F(-16, 3)), (F(2, 3), F(10, 3), -4)]
        pair = [(1, 1), (2, 1)]
        for eps in (F(1, 7), F(-1, 7)):
            assert breathe_loop(h, loop, eps) == \
                hive_to_honeycomb(inflate(H, pair, -eps))
        grown = honeycomb_to_hive(breathe_loop(h, loop[::-1], F(1, 7)))
        assert {p: grown[p] - H[p] for p in hive_indices(4)
                if grown[p] != H[p]} == {(1, 1): F(1, 7), (2, 1): F(1, 7)}
        down = InflationVector(4, (((1, 1), F(-1)), ((2, 1), F(-1))))
        for eps, bound in ((10, max_inflation(H, down)),
                           (-10, -max_inflation(H, pair))):
            with pytest.raises(EpsilonTooLarge) as ex:
                breathe_loop(h, loop, eps)
            assert ex.value.bound == bound
        assert (max_inflation(H, down), max_inflation(H, pair)) == \
            (F(1, 3), F(2, 3))

    def test_figure_eight_lobes_move_oppositely(self):
        H = Hive(4, [0, 6, 10, 10, F(47, 3), 19, 13, 19, F(67, 3), 24, 14,
                     20, 24, 26, 26])
        h = hive_to_honeycomb(H)
        loop = [(F(5, 3), 2, F(-11, 3)), (2, F(5, 3), F(-11, 3)),
                (F(10, 3), F(5, 3), -5), (F(10, 3), F(17, 3), -9),
                (4, F(17, 3), F(-29, 3)), (F(17, 3), 4, F(-29, 3)),
                (F(17, 3), F(10, 3), -9), (F(5, 3), F(10, 3), -5)]
        moved = honeycomb_to_hive(breathe_loop(h, loop, F(1, 10)))
        assert {p: moved[p] - H[p] for p in hive_indices(4)
                if moved[p] != H[p]} == {(1, 1): F(1, 10), (1, 2): F(-1, 10)}
        with pytest.raises(EpsilonTooLarge) as ex:
            breathe_loop(h, loop, 5)
        assert ex.value.bound == F(1, 3)


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=20, deadline=None)
def test_overlay_of_tripods_reads_off_sums(a, b):
    h = overlay(tripod_honeycomb(a, 0), tripod_honeycomb(b, 1))
    t = h.boundary_conditions()
    assert sorted(t.lam) == sorted((a, b))
    assert sorted(t.mu) == sorted((0, 1))


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_breathe_roundtrip(num, den):
    h = standard_configuration(build_gl_tinkertoy(3))
    eps = F(num, den + num)
    mid = breathe_loop(h, HEX_RING, eps)
    moved_ring = [mid.position(v) for v in HEX_RING]
    assert breathe_loop(mid, moved_ring, -eps) == h
