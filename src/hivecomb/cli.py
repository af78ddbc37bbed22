"""Command-line surface: JSON round-trips, SVG rendering, batch checks.

Every subcommand is deterministic given its flags; randomness only enters
through --seed (default 0, overridable by the HIVECOMB_SEED variable).
"""

import argparse
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from .diagram import canonical_diagram, diagram
from .errors import HivecombError, Infeasible, NotADiagram
from .hive import (Hive, count_lattice_hives, count_gt_patterns,
                   decompose_tensor_product, exists_lattice_hive,
                   hive_indices)
from .honeycomb import (Honeycomb, build_tinkertoy_from_type,
                        tinkertoy_size, validate_configuration)
from .lift import find_nonintegral_vertex, largest_lift, make_weight_function
from .oracles import transcribed_lr_count
from .plane import DIRECTIONS, INF, PlanePoint, SegmentOrRay, frac
from .reconstruct import overlay, prv_witness, reconstruct
from .weights import BoundaryTriple, boundary_grid, dominant_vectors

SCALE = 40.0
KIND_COLORS = {"Y": "#1b6ca8", "inverted-Y": "#48a14d", "crossing": "#888888",
               "rake": "#c97b2d", "5-valent": "#b03a9c", "6-valent": "#cc2936"}


def parse_weight(text):
    try:
        return tuple(frac(part.strip()) for part in text.split(","))
    except (TypeError, ValueError) as ex:
        raise ValueError(f"bad weight {text!r}: {ex}") from ex


def default_seed():
    return int(os.environ.get("HIVECOMB_SEED", "0"))


def weights_from_args(args, *texts):
    """Parse weight flags, each checked against -n when it is given."""
    ws = [parse_weight(text) for text in texts]
    for w in ws:
        if args.n is not None and len(w) != args.n:
            raise ValueError(f"weights have {len(w)} parts, -n says {args.n}")
    return ws


def triple_from_args(args):
    return BoundaryTriple(*weights_from_args(args, args.lam, args.mu, args.nu))


# ---------------------------------------------------------------- JSON I/O

def frac_str(v) -> str:
    return "inf" if v is INF else str(Fraction(v))


def hive_to_json(h: Hive) -> dict:
    return {"n": h.n, "entries": [str(h[p]) for p in hive_indices(h.n)]}


def hive_from_json(data) -> Hive:
    return Hive(int(data["n"]), data["entries"])


def honeycomb_to_json(h: Honeycomb) -> dict:
    verts = h.tinkertoy.sorted_vertices
    return {"type": list(h.tinkertoy.type),
            "positions": [[str(c) for c in h.position(v).coords()]
                          for v in verts]}


def point_from_json(p) -> PlanePoint:
    """A point written as a JSON array of exactly three exact numbers."""
    if (not isinstance(p, list) or len(p) != 3
            or any(isinstance(c, bool) for c in p)):
        raise ValueError(f"a point is an array of three numbers, not {p!r}")
    return PlanePoint(*map(frac, p))


def direction_from_json(name):
    try:
        return DIRECTIONS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown direction {name!r}; expected one of "
                         f"{', '.join(DIRECTIONS)}") from None


def honeycomb_from_json(data) -> Honeycomb:
    """The honeycomb of a saved type and positions.

    The position count is checked against the type before its tinkertoy is
    built, so a small file with a huge type is refused at once.
    """
    try:
        census = tuple(int(c) for c in data["type"])
        points = [point_from_json(p) for p in data["positions"]]
    except TypeError as ex:  # JSON of the wrong shape
        raise ValueError(f"not a honeycomb: {ex}") from ex
    expected = tinkertoy_size(census)
    if len(points) != expected:
        raise ValueError(f"expected {expected} positions, got {len(points)}")
    tk = build_tinkertoy_from_type(census)
    return validate_configuration(tk, dict(zip(tk.sorted_vertices, points)))


def diagram_to_json(m) -> list:
    return [{"base": [str(c) for c in s.base.coords()],
             "direction": s.direction.name,
             "length": frac_str(s.length),
             "multiplicity": str(s.multiplicity)} for s in m.segments]


def diagram_from_json(data):
    try:
        rows = [(point_from_json(row["base"]),
                 direction_from_json(row["direction"]),
                 INF if row["length"] == "inf" else frac(row["length"]),
                 frac(row.get("multiplicity", 1))) for row in data]
    except TypeError as ex:  # JSON of the wrong shape
        raise ValueError(f"not a diagram: {ex}") from ex
    return canonical_diagram([SegmentOrRay(*row) for row in rows])


def lift_report_to_json(rep) -> dict:
    return {"hive": hive_to_json(rep.hive),
            "integral": rep.integral,
            "vertex_kinds": {k: rep.vertex_kinds[k]
                             for k in sorted(rep.vertex_kinds)},
            "max_multiplicity": int(rep.max_multiplicity),
            "acyclic": rep.acyclic,
            "objective_value": str(rep.objective_value)}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ValueError(f"cannot read {path}: {ex}") from ex


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise ValueError(f"cannot write {out_path}: {ex}") from ex
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ------------------------------------------------------------------- SVG

def _project(p) -> tuple:
    """Planar chart with the x-constant (NE) direction pointing up."""
    return (-math.sqrt(3) / 2 * float(p[0]) * SCALE,
            (float(p[2]) - float(p[1])) / 2 * SCALE)


def _clip_ray(base, d, box):
    x0, y0, x1, y1 = box
    bx, by = base
    best = None
    for lo, hi, b, r in ((x0, x1, bx, d[0]), (y0, y1, by, d[1])):
        if r > 0:
            t = (hi - b) / r
        elif r < 0:
            t = (lo - b) / r
        else:
            continue
        best = t if best is None else min(best, t)
    assert best is not None and best > 0
    return (bx + best * d[0], by + best * d[1])


def render_svg(m, box_margin=2.0) -> str:
    """Static picture of a diagram: one path per segment, marks per vertex."""
    if not 0 < box_margin < math.inf:
        raise ValueError(f"box margin must be finite and positive, "
                         f"not {box_margin}")
    anchors = []
    for s in m.segments:
        anchors.append(_project(s.base))
        if not s.is_ray:
            anchors.append(_project(s.end))
    for v in m.vertices:
        anchors.append(_project(v.location))
    xs = [a[0] for a in anchors]
    ys = [a[1] for a in anchors]
    pad = box_margin * SCALE
    box = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="{box[0]:.1f} {box[1]:.1f} '
             f'{box[2] - box[0]:.1f} {box[3] - box[1]:.1f}">',
             '<style>path{stroke:#222;fill:none}text{font:12px sans-serif}'
             '</style>']
    labels = []
    for s in m.segments:
        a = _project(s.base)
        if s.is_ray:
            step = s.direction.step
            b = _clip_ray(a, _project(step), box)
        else:
            b = _project(s.end)
        width = 1.5 + 1.5 * (float(s.multiplicity) - 1)
        parts.append(f'<path d="M {a[0]:.2f} {a[1]:.2f} L {b[0]:.2f} '
                     f'{b[1]:.2f}" stroke-width="{width:.1f}"/>')
        if s.multiplicity != 1:
            mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
            labels.append(f'<text x="{mx:.2f}" y="{my - 4:.2f}">'
                          f'{s.multiplicity}</text>')
    for v in m.vertices:
        cx, cy = _project(v.location)
        color = KIND_COLORS.get(v.kind, "#000")
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
                     f'fill="{color}"><title>{v.kind}</title></circle>')
    parts.extend(labels)
    parts.append("</svg>")
    return "\n".join(parts)


# ------------------------------------------------------------ subcommands

def cmd_lr_count(args) -> int:
    t = triple_from_args(args)
    if not t.integral:
        raise ValueError("counting needs integral weights")
    count = count_lattice_hives(t)
    if args.verify:
        oracle = transcribed_lr_count(t)
        if oracle != count:
            print(f"verification failed: hive count {count}, "
                  f"tableaux oracle {oracle}", file=sys.stderr)
            return 3
    print(count)
    return 0


def cmd_decompose(args) -> int:
    table = decompose_tensor_product(*weights_from_args(args, args.lam,
                                                        args.mu))
    lines = []
    for sigma in sorted(table, reverse=True):
        sig = ",".join(str(x) for x in sigma)
        lines.append(f"{sig}: {table[sigma]}")
    _emit("\n".join(lines) + ("\n" if lines else ""), args.output)
    return 0


def cmd_lift(args) -> int:
    t = triple_from_args(args)
    w = make_weight_function(t.n, seed=args.seed)
    rep = largest_lift(t, w, max_retries=args.max_retries)
    if t.integral and t.regular and not rep.integral:
        print("verification failed: regular integral boundary produced "
              "a nonintegral hive", file=sys.stderr)
        return 3
    _emit(json.dumps(lift_report_to_json(rep), indent=2), args.output)
    return 0


def cmd_overlay(args) -> int:
    h1 = honeycomb_from_json(_load_json(args.first))
    h2 = honeycomb_from_json(_load_json(args.second))
    combined = overlay(h1, h2)
    if reconstruct(diagram(combined)) != combined:
        print("verification failed: the overlay does not reconstruct from "
              "its diagram", file=sys.stderr)
        return 3
    _emit(json.dumps(honeycomb_to_json(combined), indent=2), args.output)
    return 0


def cmd_prv(args) -> int:
    h = prv_witness(*weights_from_args(args, args.lam, args.mu),
                    [int(x) for x in args.w.split(",")],
                    [int(x) for x in args.v.split(",")])
    _emit(json.dumps(honeycomb_to_json(h), indent=2), args.output)
    return 0


def cmd_render(args) -> int:
    data = _load_json(args.input)
    if isinstance(data, dict):
        m = diagram(honeycomb_from_json(data))
    else:
        m = diagram_from_json(data)
    _emit(render_svg(m, box_margin=args.box), args.output)
    return 0


def cmd_saturate_check(args) -> int:
    n, factor = args.n, args.N
    if factor < 1:
        raise ValueError("the stretch factor must be a positive integer")
    if args.max_entry < 0 or args.samples < 0:
        raise ValueError("--max-entry and --samples must not be negative")
    if args.samples:
        rng = random.Random(args.seed)
        lams = dominant_vectors(n, -args.max_entry, args.max_entry)
        triples = []
        while len(triples) < args.samples:
            lam, mu = rng.choice(lams), rng.choice(lams)
            nus = dominant_vectors(n, -n * args.max_entry,
                                   n * args.max_entry,
                                   -(sum(lam) + sum(mu)))
            if nus:
                triples.append(BoundaryTriple(lam, mu, rng.choice(nus)))
    else:
        triples = boundary_grid(n, args.max_entry, n * args.max_entry)
    checked = 0
    for t in triples:
        before = exists_lattice_hive(t)
        after = exists_lattice_hive(t.scaled(factor))
        if before != after:
            print(f"saturation violated at lambda={t.lam} mu={t.mu} "
                  f"nu={t.nu} N={factor}: {before} vs {after}",
                  file=sys.stderr)
            return 3
        checked += 1
    print(f"checked {checked} triples (n={n}, N={factor}): "
          f"feasibility is scale-invariant")
    return 0


def cmd_gt_count(args) -> int:
    print(count_gt_patterns(parse_weight(args.lam)))
    return 0


def cmd_find_nonintegral_vertex(args) -> int:
    got = find_nonintegral_vertex(args.n, args.entry_bound, seed=args.seed,
                                  limit=args.limit)
    if got is None:
        print("none")
        return 0
    t, h = got
    out = {"boundary": {"lambda": [str(x) for x in t.lam],
                        "mu": [str(x) for x in t.mu],
                        "nu": [str(x) for x in t.nu]},
           "hive": hive_to_json(h)}
    _emit(json.dumps(out, indent=2), args.output)
    return 0


# ------------------------------------------------------------------ main

def _add_triple_flags(sub, nu=True):
    sub.add_argument("-n", type=int, default=None)
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="comma-separated entries, weakly decreasing")
    sub.add_argument("--mu", required=True)
    if nu:
        sub.add_argument("--nu", required=True)


#: Lets values like "-1,-2,-3" or "-1/2" pass as arguments, not flags.
_NEGATIVE_WEIGHT = re.compile(r"^-\d+([,/.]|$)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hivecomb",
        description="Tensor-product counts and extremal honeycombs, exactly.")
    top._negative_number_matcher = _NEGATIVE_WEIGHT
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lr-count", help="count lattice hives over a triple")
    _add_triple_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the tableaux rule")
    p.set_defaults(run=cmd_lr_count)

    p = subs.add_parser("decompose", help="full tensor product decomposition")
    _add_triple_flags(p, nu=False)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_decompose)

    p = subs.add_parser("lift", help="largest lift of a boundary triple")
    _add_triple_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_lift)

    p = subs.add_parser("overlay", help="sum the diagrams of two honeycombs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_overlay)

    p = subs.add_parser("prv", help="overlay of paired-weight tripods")
    _add_triple_flags(p, nu=False)
    p.add_argument("--w", required=True, help="permutation of 0..n-1")
    p.add_argument("--v", required=True, help="permutation of 0..n-1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_prv)

    p = subs.add_parser("render", help="draw a saved honeycomb or diagram")
    p.add_argument("input")
    p.add_argument("--box", type=float, default=2.0,
                   help="ray clip margin, lattice units past the vertices")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_render)

    p = subs.add_parser("saturate-check",
                        help="feasibility is invariant under stretching")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-entry", type=int, default=2)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--samples", type=int, default=0,
                   help="random triples to draw; 0 means the full grid")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=cmd_saturate_check)

    p = subs.add_parser("gt-count",
                        help="integer triangular patterns below a weight")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(run=cmd_gt_count)

    p = subs.add_parser("find-nonintegral-vertex",
                        help="hunt fractional vertices of hive polytopes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--entry-bound", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=cmd_find_nonintegral_vertex)

    for sub in subs.choices.values():
        sub._negative_number_matcher = _NEGATIVE_WEIGHT
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = default_seed()
    try:
        return args.run(args)
    except Infeasible as ex:
        print(f"infeasible: {ex}", file=sys.stderr)
        return 4
    except NotADiagram as ex:
        print(f"malformed diagram: {ex}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, HivecombError) as ex:
        print(f"invalid input: {ex}", file=sys.stderr)
        return 2
    except RecursionError as ex:
        print(f"input too large: {ex}", file=sys.stderr)
        return 2
    except ArithmeticError as ex:
        print(f"arithmetic out of range: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
