"""Drive the command line in-process and pin its transcripts."""

import dataclasses
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hivecomb import cli, lift
from hivecomb.diagram import canonical_diagram, diagram
from hivecomb.hive import Hive, enumerate_lattice_hives
from hivecomb.honeycomb import build_gl_tinkertoy, standard_configuration
from hivecomb.weights import BoundaryTriple, dominant_vectors

ADJ = BoundaryTriple((2, 1, 0), (2, 1, 0), (-1, -2, -3))
WIDE = ",".join(["0"] * 1100)  # deeper than Python's recursion limit


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def one_line_exit_2(result):
    code, out, err = result
    return (code, out) == (2, "") and err.count("\n") == 1


def deep_recursion_exit_2(result):
    return one_line_exit_2(result) and "input too large" in result[2]


def std(n):
    return standard_configuration(build_gl_tinkertoy(n))


def save(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLrCount:
    def test_adjoint_square(self):
        code, out, _ = run("lr-count", "-n", "3", "--lambda", "2,1,0",
                           "--mu", "2,1,0", "--nu", "-1,-2,-3", "--verify")
        assert (code, out) == (0, "2\n")

    def test_gl1(self):
        code, out, _ = run("lr-count", "-n", "1", "--lambda", "5",
                           "--mu", "-2", "--nu", "-3")
        assert (code, out) == (0, "1\n")

    def test_zero_sum_failure(self):
        code, _, err = run("lr-count", "-n", "2", "--lambda", "3,0",
                           "--mu", "1,0", "--nu", "0,-1")
        assert code == 2
        assert "invalid input" in err

    def test_fractional_weights_rejected(self):
        code, _, err = run("lr-count", "-n", "2", "--lambda", "1/2,0",
                           "--mu", "1,0", "--nu", "-1/2,-1")
        assert code == 2
        assert "integral" in err

    def test_increasing_weight_names_its_entries(self):
        assert run("lr-count", "--lambda", "0,1", "--mu", "1,0",
                   "--nu=-1,-1") == (2, "", "invalid input: (0, 1) is not "
                                     "weakly decreasing\n")
        _, _, err = run("gt-count", "--lambda", "1/2,1")
        assert err == "invalid input: (1/2, 1) is not weakly decreasing\n"

    def test_part_count_mismatch(self):
        code, _, _ = run("lr-count", "-n", "4", "--lambda", "2,1,0",
                         "--mu", "2,1,0", "--nu", "-1,-2,-3")
        assert code == 2

    @pytest.mark.parametrize("shift", [61, 62])
    def test_huge_twist_counts(self, shift):
        # a determinant twist of ADJ: only the spread of the weights matters
        big = 1 << shift
        code, out, _ = run(
            "lr-count", "--lambda", f"{big + 2},{big + 1},{big}",
            "--mu", "2,1,0", "--nu", f"{-big - 1},{-big - 2},{-big - 3}")
        assert (code, out) == (0, "2\n")

    def test_overflow_exits_2(self):
        # lambda spreads over 2^61, past the 2^60 bound of the kernels
        big = 1 << 61
        code, out, err = run(
            "lr-count", "--lambda", f"{big},0,0", "--mu", "0,0,0",
            "--nu", f"0,0,{-big}")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "out of range" in err

    def test_deep_oracle_count_verifies(self):
        # 3,000 boxes: the tableaux oracle places them without recursion
        assert run("lr-count", "-n", "2", "--lambda", "1500,0", "--mu",
                   "1500,0", "--nu=-1500,-1500", "--verify") == (0, "1\n", "")

    def test_recursion_error_exits_2(self, monkeypatch):
        def deep(t):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "count_lattice_hives", deep)
        assert deep_recursion_exit_2(run("lr-count", "-n", "3", "--lambda",
                                         "2,1,0", "--mu", "2,1,0", "--nu",
                                         "-1,-2,-3"))

    def test_oracle_mismatch_exits_3(self, monkeypatch):
        monkeypatch.setattr(cli, "transcribed_lr_count", lambda t: 99)
        code, _, err = run("lr-count", "-n", "3", "--lambda", "2,1,0",
                           "--mu", "2,1,0", "--nu", "-1,-2,-3", "--verify")
        assert code == 3
        assert "verification failed" in err


class TestDecompose:
    def test_adjoint_square_table(self):
        code, out, _ = run("decompose", "-n", "3", "--lambda", "2,1,0",
                           "--mu", "2,1,0")
        assert code == 0
        assert out == ("4,2,0: 1\n4,1,1: 1\n3,3,0: 1\n"
                       "3,2,1: 2\n2,2,2: 1\n")

    def test_gl2_square(self):
        code, out, _ = run("decompose", "--lambda", "1,0", "--mu", "1,0")
        assert (code, out) == (0, "2,0: 1\n1,1: 1\n")

    def test_zero_mu(self):
        code, out, _ = run("decompose", "--lambda", "3,1", "--mu", "0,0")
        assert (code, out) == (0, "3,1: 1\n")

    def test_n_disagreeing_with_weights_exits_2(self):
        assert one_line_exit_2(run("decompose", "-n", "4", "--lambda",
                                   "2,1,0", "--mu", "2,1,0"))

    def test_unequal_lengths_exit_2(self):
        assert one_line_exit_2(run("decompose", "--lambda", "2,1,0",
                                   "--mu", "1,0"))

    def test_nonintegral_weight_exits_2(self):
        assert one_line_exit_2(run("decompose", "--lambda", "1/2,0",
                                   "--mu", "1,0"))

    @pytest.mark.parametrize("lam, mu", [(f"{2 ** 61},0", "0,0"),
                                         (f"{2 ** 60},0,0", "0,0,0")])
    def test_oversized_exits_2_at_once(self, lam, mu):
        t0 = time.perf_counter()
        result = run("decompose", "--lambda", lam, "--mu", mu)
        assert time.perf_counter() - t0 < 2.0
        assert one_line_exit_2(result)
        assert "arithmetic out of range" in result[2]

    def test_deep_recursion_exits_2(self):
        assert deep_recursion_exit_2(run("decompose", "--lambda", WIDE,
                                         "--mu", WIDE))


class TestGtCount:
    def test_adjoint(self):
        assert run("gt-count", "--lambda", "2,1,0") == (0, "8\n", "")

    def test_gl2(self):
        assert run("gt-count", "--lambda", "1,0") == (0, "2\n", "")

    def test_wide_zero_weight_counts_one(self):
        assert run("gt-count", "--lambda", WIDE) == (0, "1\n", "")


class TestLift:
    ARGS = ("lift", "-n", "3", "--lambda", "4,1,0", "--mu", "4,1,0",
            "--nu", "-2,-3,-5")

    def test_report_shape(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(*self.ARGS, "-o", str(out))
        assert code == 0
        rep = json.loads(out.read_text())
        assert sorted(rep) == ["acyclic", "hive", "integral",
                               "max_multiplicity", "objective_value",
                               "vertex_kinds"]
        assert rep["integral"] is True
        assert all("/" not in e for e in rep["hive"]["entries"])
        assert rep["max_multiplicity"] == 1
        assert rep["acyclic"] is True
        assert "6-valent" not in rep["vertex_kinds"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(*self.ARGS, "-o", str(a))
        run(*self.ARGS, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(*self.ARGS, "--seed", "9", "-o", str(a))
        monkeypatch.setenv("HIVECOMB_SEED", "9")
        run(*self.ARGS, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", ["abc", "1.5", ""])
    def test_bad_env_seed_exits_2(self, monkeypatch, seed):
        monkeypatch.setenv("HIVECOMB_SEED", seed)
        result = run(*self.ARGS)
        assert one_line_exit_2(result) and "HIVECOMB_SEED" in result[2]

    def test_optimum_tied_every_time_exits_2(self, monkeypatch):
        solve = lift.lp_maximize
        monkeypatch.setattr(
            lift, "lp_maximize",
            lambda objective, t: dataclasses.replace(
                solve(objective, t), direction=(Fraction(1),)))
        result = run(*self.ARGS, "--max-retries", "0")
        assert one_line_exit_2(result) and "not unique" in result[2]

    def test_infeasible_exits_4(self):
        code, _, err = run("lift", "-n", "2", "--lambda", "1,0",
                           "--mu", "1,0", "--nu", "1,-3")
        assert code == 4
        assert "infeasible" in err

    def test_negative_max_retries_exits_2(self):
        assert one_line_exit_2(run(*self.ARGS, "--max-retries", "-3"))

    def test_nonintegral_regular_exits_3(self, monkeypatch):
        fake = SimpleNamespace(integral=False)
        monkeypatch.setattr(cli, "largest_lift", lambda t, w, **kw: fake)
        code, _, err = run(*self.ARGS)
        assert code == 3
        assert "nonintegral" in err


class TestJsonRoundtrips:
    def test_hive(self):
        for h in enumerate_lattice_hives(ADJ):
            d = cli.hive_to_json(h)
            assert Hive(d["n"], d["entries"]) == h

    def test_fractional_hive(self):
        h = Hive(2, [0, 1, 2, Fraction(3, 2), 2, 1])
        d = cli.hive_to_json(h)
        assert Hive(d["n"], d["entries"]) == h
        assert "3/2" in cli.hive_to_json(h)["entries"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_honeycomb(self, n):
        h = std(n)
        assert cli.honeycomb_from_json(cli.honeycomb_to_json(h)) == h

    def test_diagram(self):
        m = diagram(std(3))
        assert cli.diagram_from_json(cli.diagram_to_json(m)) == m

    def test_ray_length_is_inf(self):
        data = cli.diagram_to_json(diagram(std(2)))
        assert sum(1 for row in data if row["length"] == "inf") == 6


class TestRender:
    def test_standard_tau2_counts(self, tmp_path):
        path = save(tmp_path, "h.json", cli.honeycomb_to_json(std(2)))
        out = tmp_path / "h.svg"
        code, _, _ = run("render", path, "-o", str(out))
        assert code == 0
        svg = out.read_text()
        assert svg.count("<path") == 9
        assert svg.count("<circle") == 4

    def test_one_path_per_segment(self):
        for n in (2, 3):
            m = diagram(std(n))
            svg = cli.render_svg(m)
            assert svg.count("<path") == len(m.segments)

    def test_diagram_input(self, tmp_path):
        path = save(tmp_path, "d.json", cli.diagram_to_json(diagram(std(2))))
        out = tmp_path / "d.svg"
        assert run("render", path, "-o", str(out))[0] == 0
        assert out.read_text().count("<path") == 9

    def test_multiplicity_labels(self):
        m = diagram(std(2))
        doubled = canonical_diagram(list(m.segments) + list(m.segments))
        svg = cli.render_svg(doubled)
        assert svg.count(">2</text>") == svg.count("<path")
        assert 'stroke-width="3.0"' in svg

    def test_vertex_kind_titles(self):
        svg = cli.render_svg(diagram(std(2)))
        assert svg.count("<title>Y</title>") == 3
        assert svg.count("<title>inverted-Y</title>") == 1

    def test_rays_stay_inside_viewbox(self):
        svg = cli.render_svg(diagram(std(3)), box_margin=2.0)
        x0, y0, w, h = map(float, re.search(
            r'viewBox="([^"]+)"', svg).group(1).split())
        for path in re.finditer(r'd="M (\S+) (\S+) L (\S+) (\S+)"', svg):
            ax, ay, bx, by = map(float, path.groups())
            for x, y in ((ax, ay), (bx, by)):
                assert x0 - 0.1 <= x <= x0 + w + 0.1
                assert y0 - 0.1 <= y <= y0 + h + 0.1

    @pytest.mark.parametrize("box", ["0", "-5", "nan", "inf", "1e308"])
    def test_bad_box_exits_2(self, tmp_path, box):
        path = save(tmp_path, "h.json", cli.honeycomb_to_json(std(2)))
        assert one_line_exit_2(run("render", path, "--box", box,
                                   "-o", "/dev/null"))

    def test_broken_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run("render", str(path), "-o", "/dev/null")[0] == 2

    @pytest.mark.parametrize("payload", [
        [1], "abc",
        [{"base": ["0", "0"], "direction": "NE", "length": "2"}],
        [{"base": ["0", "0", "0"], "direction": ["NE"], "length": "2"}],
        [{"base": ["0", "0", "0"], "direction": "NE", "length": 2.5}],
        {"type": 5, "positions": []},
        {"type": [1, 0, 1, 0, 1, 0], "positions": [["0", "0"]]},
        {"type": [1.9, 0, True, 0, "1", 0], "positions": [["0", "0", "0"]]},
        {"type": [True, 0, 1, 0, 1, 0], "positions": [["0", "0", "0"]]},
        {"type": ["1/2", 0, 1, 0, 1, 0], "positions": [["0", "0", "0"]]},
    ])
    def test_wrong_shape_exits_2(self, tmp_path, payload):
        path = save(tmp_path, "bad.json", payload)
        assert one_line_exit_2(run("render", path, "-o", "/dev/null"))

    @pytest.mark.parametrize("payload", [
        {"type": [1, 0, 1, 0, 1, 0], "positions": ["000"]},
        {"type": [1, 0, 1, 0, 1, 0], "positions": [[True, False, -1]]},
        {"type": [1, 0, 1, 0, 1, 0], "positions": [["0", "0", "0", "0"]]},
        [{"base": "000", "direction": "NE", "length": "2"}],
        [{"base": [0, False, 0], "direction": "NE", "length": "2"}],
        [{"base": ["0", "0", "0"], "direction": d, "length": "inf",
          "multiplicity": True} for d in ("NE", "SE", "W")],
        [{"base": ["0", "0", "0"], "direction": "NE", "length": True}],
    ])
    def test_point_of_wrong_shape_exits_2(self, tmp_path, payload):
        path = save(tmp_path, "bad.json", payload)
        assert one_line_exit_2(run("render", path, "-o", "/dev/null"))

    def test_unknown_direction_is_named(self, tmp_path):
        path = save(tmp_path, "bad.json", [
            {"base": ["0", "0", "0"], "direction": "N", "length": "2"}])
        result = run("render", path, "-o", "/dev/null")
        assert one_line_exit_2(result)
        assert "unknown direction 'N'" in result[2]

    @pytest.mark.parametrize("command", ["render", "overlay"])
    def test_huge_type_refused_before_building(self, tmp_path, command):
        path = save(tmp_path, "huge.json", {
            "type": [10 ** 5, 0, 10 ** 5, 0, 10 ** 5, 0], "positions": []})
        argv = (path, "-o", "/dev/null") if command == "render" else (
            path, path)
        start = time.perf_counter()
        result = run(command, *argv)
        assert time.perf_counter() - start < 1
        assert one_line_exit_2(result)
        assert "expected 10000000000 positions" in result[2]

    def test_loose_end_exits_5(self, tmp_path):
        path = save(tmp_path, "loose.json",
                    [{"base": ["0", "0", "0"], "direction": "NE",
                      "length": "2", "multiplicity": "1"}])
        code, _, err = run("render", path, "-o", "/dev/null")
        assert code == 5
        assert "malformed diagram" in err


class TestOverlayCli:
    def test_self_overlay(self, tmp_path):
        path = save(tmp_path, "h.json", cli.honeycomb_to_json(std(2)))
        out = tmp_path / "ov.json"
        code, _, _ = run("overlay", path, path, "-o", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["type"] == [4, 0, 4, 0, 4, 0]
        m = diagram(std(2))
        back = cli.honeycomb_from_json(data)
        assert diagram(back) == canonical_diagram(
            list(m.segments) + list(m.segments))

    def test_missing_file_exits_2(self, tmp_path):
        path = save(tmp_path, "h.json", cli.honeycomb_to_json(std(2)))
        assert run("overlay", path, str(tmp_path / "nope.json"))[0] == 2

    def test_failed_verification_exits_3(self, tmp_path, monkeypatch):
        path = save(tmp_path, "h.json", cli.honeycomb_to_json(std(2)))
        monkeypatch.setattr(cli, "reconstruct", lambda m: std(2))
        code, out, err = run("overlay", path, path)
        assert (code, out) == (3, "")
        assert err.startswith("verification failed")

    def test_wrong_shape_exits_2(self, tmp_path):
        path = save(tmp_path, "h.json", cli.honeycomb_to_json(std(2)))
        bad = save(tmp_path, "bad.json", [1])
        assert one_line_exit_2(run("overlay", path, bad))


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ("decompose", "--lambda", "1,0", "--mu", "1,0"),
        ("lift", "-n", "3", "--lambda", "2,1,0", "--mu", "2,1,0",
         "--nu", "-1,-2,-3"),
    ])
    def test_unwritable_output_exits_2(self, tmp_path, argv):
        out = str(tmp_path / "missing" / "x.json")
        assert one_line_exit_2(run(*argv, "-o", out))


class TestPrvCli:
    def test_witness_boundary(self, tmp_path):
        out = tmp_path / "w.json"
        code, _, _ = run("prv", "-n", "2", "--lambda", "2,0", "--mu", "2,1",
                         "--w", "0,1", "--v", "0,1", "-o", str(out))
        assert code == 0
        h = cli.honeycomb_from_json(json.loads(out.read_text()))
        bc = h.boundary_conditions()
        assert (bc.lam, bc.mu, bc.nu) == ((2, 0), (2, 1), (-1, -4))

    def test_nondominant_sum_exits_2(self):
        code, _, _ = run("prv", "-n", "2", "--lambda", "2,0", "--mu", "2,1",
                         "--w", "1,0", "--v", "0,1")
        assert code == 2

    def test_bad_permutation_exits_2(self):
        code, _, _ = run("prv", "-n", "2", "--lambda", "2,0", "--mu", "2,1",
                         "--w", "0,0", "--v", "0,1")
        assert code == 2

    def test_n_disagreeing_with_weights_exits_2(self):
        assert one_line_exit_2(run("prv", "-n", "3", "--lambda", "2,0",
                                   "--mu", "2,1", "--w", "0,1", "--v", "0,1"))


class TestSaturateCheck:
    def test_gl2_grid(self):
        code, out, _ = run("saturate-check", "-n", "2", "--max-entry", "2")
        assert code == 0
        assert "scale-invariant" in out

    def test_grid_nu_range(self):
        """The grid lets nu reach n times the entry bound."""
        code, out, _ = run("saturate-check", "-n", "2", "--max-entry", "2")
        assert code == 0
        assert "checked 795 triples" in out

    def test_sampled(self):
        code, out, _ = run("saturate-check", "-n", "4", "--samples", "25",
                           "--N", "3", "--seed", "1")
        assert code == 0
        assert "checked 25 triples" in out

    def test_samples_draw_as_the_full_listing_did(self, monkeypatch):
        """The reference lists every nu and draws one with rng.choice."""
        checked = []
        monkeypatch.setattr(cli, "exists_lattice_hive",
                            lambda t: checked.append(t) or True)
        for n in range(2, 7):
            for seed in range(5):
                checked.clear()
                assert run("saturate-check", "-n", str(n), "--samples", "4",
                           "--seed", str(seed))[0] == 0
                rng = random.Random(seed)
                lams = dominant_vectors(n, -2, 2)
                want = []
                while len(want) < 4:
                    lam, mu = rng.choice(lams), rng.choice(lams)
                    nus = dominant_vectors(n, -2 * n, 2 * n,
                                           -(sum(lam) + sum(mu)))
                    if nus:
                        want.append(BoundaryTriple(lam, mu, rng.choice(nus)))
                assert checked[::2] == want, (n, seed)

    def test_bad_factor_exits_2(self):
        assert run("saturate-check", "-n", "2", "--N", "0")[0] == 2

    @pytest.mark.parametrize("flags", [("--samples", "5", "--max-entry", "-1"),
                                       ("--samples", "-5")])
    def test_negative_flags_exit_2(self, flags):
        assert one_line_exit_2(run("saturate-check", "-n", "2", *flags))

    @pytest.mark.parametrize("flags", [(), ("--samples", "3")])
    def test_negative_rank_exits_2(self, flags):
        assert one_line_exit_2(run("saturate-check", "-n", "-1", *flags))

    def test_violation_exits_3(self, monkeypatch):
        flips = iter([True, False])
        monkeypatch.setattr(cli, "exists_lattice_hive",
                            lambda t: next(flips))
        code, _, err = run("saturate-check", "-n", "2", "--max-entry", "1")
        assert code == 3
        assert "saturation violated" in err


class TestFindNonintegralVertexCli:
    def test_small_rank_certifies_none(self):
        assert run("find-nonintegral-vertex", "-n", "3") == (0, "none\n", "")

    @pytest.mark.parametrize("flags", [("-n", "0"), ("-n", "-2"),
                                       ("-n", "4", "--entry-bound", "-1"),
                                       ("-n", "4", "--limit", "-3")])
    def test_unscanned_ranges_exit_2(self, flags):
        assert one_line_exit_2(run("find-nonintegral-vertex", *flags))

    def test_witness_serialization(self, monkeypatch, tmp_path):
        t = BoundaryTriple((1, 0), (1, 0), (-1, -1))
        h = Hive(2, [0, 1, 2, Fraction(3, 2), 2, 1])
        monkeypatch.setattr(cli, "find_nonintegral_vertex",
                            lambda *a, **kw: (t, h))
        out = tmp_path / "w.json"
        code, _, _ = run("find-nonintegral-vertex", "-n", "2",
                         "-o", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["boundary"]["lambda"] == ["1", "0"]
        assert "3/2" in data["hive"]["entries"]

    def test_rank_six_certifies_none(self):
        code, out, err = run("find-nonintegral-vertex", "-n", "6",
                             "--entry-bound", "1", "--limit", "25")
        assert (code, out, err) == (0, "none\n", "")


class TestSeedPlumbing:
    def test_default_seed_reads_env(self, monkeypatch):
        monkeypatch.delenv("HIVECOMB_SEED", raising=False)
        assert cli.default_seed() == 0
        monkeypatch.setenv("HIVECOMB_SEED", "42")
        assert cli.default_seed() == 42

    def test_negative_weights_parse(self):
        args = cli.build_parser().parse_args(
            ["lr-count", "-n", "3", "--lambda", "2,1,0", "--mu", "2,1,0",
             "--nu", "-1,-2,-3"])
        assert args.nu == "-1,-2,-3"
