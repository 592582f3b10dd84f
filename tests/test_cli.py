"""End-to-end tests of the command-line front end.

Each test drives main() with an argv list and checks the exit-code
contract: 0 success, 1 domain error, 2 usage error.
"""

import json
import random
import sys

import pytest

from skewper import cli, incidence, isomorphism
from skewper.classify import InstanceKey, build_instance
from skewper.cli import main
from skewper.constructions import grassmannian, perspective, veblen, veblen_label, veronesian
from skewper.formats import emit_psts, parse_psts
from skewper.incidence import make_config, relabel
from skewper.isomorphism import (
    CanonicalCertificate,
    are_isomorphic,
    automorphism_group,
    canonical_certificate,
)
from skewper.perms import parse_cycles
from skewper.skews import zeta

from oracles import random_partial_linear


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture()
def grass_instance_file(tmp_path):
    path = tmp_path / "m451.psts"
    path.write_text(emit_psts(perspective(4, zeta(4), grassmannian(4)).config))
    return str(path)


class TestBuild:
    def test_build_grassmannian(self, run):
        code, out, _ = run("build", "grassmannian", "--n", "4")
        assert code == 0
        config = parse_psts(out)
        assert config.num_points == 6
        assert len(config.lines) == 4
        assert config.labels is not None

    def test_build_grassmannian_domain_error(self, run):
        code, out, err = run("build", "grassmannian", "--n", "2")
        assert code == 1
        assert "error" in err

    def test_build_veronesian(self, run):
        code, out, _ = run("build", "veronesian", "--k", "5")
        assert code == 0
        config = parse_psts(out)
        assert config.num_points == 21
        assert len(config.lines) == 35

    def test_build_perspective_matches_library(self, run):
        code, out, _ = run(
            "build",
            "perspective",
            "--n",
            "4",
            "--phi",
            "[(1,3),(1,2)]",
            "--axis",
            "v5:(1)(2)(3)(4)",
        )
        assert code == 0
        expected = emit_psts(perspective(4, zeta(4), grassmannian(4)).config)
        assert out == expected

    def test_build_perspective_axis_keywords(self, run):
        code, out, _ = run(
            "build", "perspective", "--phi", "[(2,3),()]", "--axis", "grassmannian"
        )
        assert code == 0
        assert parse_psts(out).num_points == 15
        code, out, _ = run(
            "build", "perspective", "--phi", "[(1,2,3),()]", "--axis", "veronesian"
        )
        assert code == 0
        assert parse_psts(out).num_points == 15

    def test_build_perspective_row_count_mismatch(self, run):
        code, _, err = run(
            "build",
            "perspective",
            "--n",
            "5",
            "--phi",
            "[(1,3),(1,2)]",
            "--axis",
            "grassmannian",
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("axis", ["foo", "v7:()"])
    def test_build_perspective_unknown_axis(self, run, axis):
        code, out, err = run(
            "build", "perspective", "--phi", "[(1,3),(1,2)]", "--axis", axis
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: unknown axis {axis!r}; use grassmannian, veronesian,"
            " v5:<cycles>, or v6:<cycles>\n"
        )

    def test_build_perspective_empty_phi_entry(self, run):
        code, out, err = run(
            "build", "perspective", "--phi", "[(1,2),]", "--axis", "grassmannian"
        )
        assert (code, out) == (1, "")
        assert err == "error: empty entry in '[(1,2),]'\n"

    @pytest.mark.parametrize(
        "phi, axis, message",
        [
            ("[((1,2)),()]", "grassmannian", "nested parenthesis in '((1,2))'"),
            ("[(1,2)),()]", "grassmannian", "unbalanced parentheses in '[(1,2)),()]'"),
            ("[1(2,3),()]", "grassmannian", "digit outside parenthesis in '1(2,3)'"),
            ("[(1,2,3),(]", "grassmannian", "unbalanced parentheses in '[(1,2,3),(]'"),
            ("[(1,3),(1,2)]", "v5:(1,2", "unbalanced parenthesis in '(1,2'"),
            ("[(1,3),(1,2)]", "v5:(0,1)", "elements must be positive in '(0,1)'"),
            ("[]", "veronesian", "need k >= 3, got 2"),
        ],
    )
    def test_build_perspective_malformed_text(self, run, phi, axis, message):
        code, out, err = run("build", "perspective", "--phi", phi, "--axis", axis)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_out_file_matches_stdout(self, run, tmp_path):
        target = tmp_path / "g.psts"
        code, _, _ = run("build", "grassmannian", "--n", "4", "--out", str(target))
        assert code == 0
        code2, out, _ = run("build", "grassmannian", "--n", "4")
        assert code2 == 0
        assert target.read_text() == out

    def test_usage_errors(self, run):
        assert run("build", "grassmannian")[0] == 2  # missing --n
        assert run("build", "veronesian")[0] == 2  # missing --k
        assert run("build", "perspective", "--phi", "[(1,3),(1,2)]")[0] == 2  # no --axis
        assert run("build", "perspective", "--axis", "grassmannian")[0] == 2  # no --phi
        assert run("frobnicate")[0] == 2  # unknown verb
        assert run()[0] == 2  # no verb

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("grassmannian", "--n", "3", "--k", "2"), "--k"),
            (("grassmannian", "--n", "4", "--phi", "[(1,3),(1,2)]"), "--phi"),
            (("grassmannian", "--n", "4", "--axis", "grassmannian"), "--axis"),
            (("veronesian", "--k", "1", "--n", "9"), "--n"),
            (("veronesian", "--k", "3", "--axis", "veronesian"), "--axis"),
            (("perspective", "--phi", "[(1,3),(1,2)]", "--axis", "grassmannian", "--k", "2"), "--k"),
        ],
    )
    def test_option_that_does_not_apply(self, run, argv, option):
        code, out, err = run("build", *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: build {argv[0]} does not take {option}\n"


class TestIntegerOptions:
    """--n, --k, --cliques and --seed take an optional "-" and ASCII
    digits, the integer rule of psts files."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "grassmannian", "--n", "４"),  # fullwidth digit
            ("build", "grassmannian", "--n", "1_0"),
            ("build", "grassmannian", "--n", "+5"),
            ("build", "veronesian", "--k", "٣"),
            ("analyze", "unread.psts", "--seed", "٣"),  # Arabic-Indic digit
            ("analyze", "unread.psts", "--cliques", "1_0"),
        ],
    )
    def test_other_digits_are_a_usage_error(self, run, argv):
        # what int() alone would read as 4, 10, 5 or 3 is a usage error,
        # decided before any file is read
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert f"expected an integer (optional '-' and ASCII digits), got {argv[-1]!r}" in err

    def test_plain_digits(self, run):
        assert run("build", "grassmannian", "--n", "5") == (
            0, emit_psts(grassmannian(5)), ""
        )
        assert run("build", "grassmannian", "--n", "-5")[:2] == (1, "")  # range error


class TestAnalyze:
    def test_basic_parameters(self, run, grass_instance_file):
        code, out, _ = run("analyze", grass_instance_file)
        assert code == 0
        assert "15 points" in out
        assert "20 lines" in out
        assert "binomial" in out

    def test_cliques(self, run, grass_instance_file):
        code, out, _ = run("analyze", grass_instance_file, "--cliques", "5")
        assert code == 0
        assert "free 5-cliques: 3" in out

    def test_aut(self, run, grass_instance_file):
        code, out, _ = run("analyze", grass_instance_file, "--aut")
        assert code == 0
        assert "automorphism group order 1" in out

    @staticmethod
    def shuffled(config, seed):
        images = list(range(config.num_points))
        random.Random(seed).shuffle(images)
        return relabel(config, dict(enumerate(images)))

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: TestAnalyze.shuffled(grassmannian(5), 0), id="relabelled-G(2,5)"),
            pytest.param(lambda: veronesian(5), id="V(5)"),
            pytest.param(lambda: build_instance(InstanceKey(4, 5, 12)).config, id="(4,5,12)"),
            pytest.param(lambda: make_config(6, []), id="psts-6-0"),
        ],
    )
    def test_aut_matches_automorphism_group(self, run, tmp_path, build):
        path = tmp_path / "in.psts"
        path.write_text(emit_psts(build()))
        code, out, _ = run("analyze", str(path), "--aut")
        group = automorphism_group(parse_psts(path.read_text()))
        assert code == 0
        assert out.splitlines()[-1] == (
            f"automorphism group order {group.order} ({len(group.generators)} generators)"
        )

    def test_selfcheck_deterministic_per_seed(self, run, grass_instance_file):
        code, out, _ = run(
            "analyze", grass_instance_file, "--selfcheck", "--seed", "11"
        )
        assert code == 0
        assert "selfcheck passed" in out
        code2, out2, _ = run(
            "analyze", grass_instance_file, "--selfcheck", "--seed", "11"
        )
        assert code2 == 0
        assert out2 == out

    @pytest.mark.parametrize("flags", [(), ("--aut",)])
    def test_selfcheck_searches_each_structure_once(
        self, run, grass_instance_file, monkeypatch, flags
    ):
        full = []
        leaves = isomorphism._leaves

        def counted(config, trace=None):
            if trace is None:
                full.append(config)
            return leaves(config, trace)

        monkeypatch.setattr(isomorphism, "_leaves", counted)
        code, out, _ = run("analyze", grass_instance_file, *flags, "--selfcheck")
        assert code == 0
        assert out.endswith("\nselfcheck passed (3 random relabelings, seeded)\n")
        # the input and its three relabelings
        assert len(full) == 4

    def test_selfcheck_reports_a_moved_certificate(
        self, run, grass_instance_file, monkeypatch
    ):
        def moved(config):
            cert = canonical_certificate(config)
            return CanonicalCertificate(cert.canonical_lines[1:], cert.relabeling)

        monkeypatch.setattr(cli, "canonical_certificate", moved)
        code, out, _ = run("analyze", grass_instance_file, "--selfcheck")
        assert code == 1
        assert out.endswith("\nselfcheck FAILED at relabeling 1\n")

    def test_selfcheck_reports_a_failed_witness(
        self, run, grass_instance_file, monkeypatch
    ):
        def unrelabeled(config):
            cert = canonical_certificate(config)
            return CanonicalCertificate(cert.canonical_lines, tuple(range(config.num_points)))

        monkeypatch.setattr(cli, "canonical_certificate", unrelabeled)
        code, out, _ = run("analyze", grass_instance_file, "--selfcheck")
        assert code == 1
        assert out.endswith("\nselfcheck FAILED to produce a witness 1\n")

    def test_missing_file(self, run, tmp_path):
        code, _, err = run("analyze", str(tmp_path / "absent.psts"))
        assert code == 1
        assert "error" in err

    def test_malformed_file(self, run, tmp_path):
        bad = tmp_path / "bad.psts"
        bad.write_text("psts 3 1\n0 1\n")
        code, _, err = run("analyze", str(bad))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("psts a b\n", "bad header 'psts a b'; expected 'psts <points> <lines>'"),
            ("psts 3 1\n0 1 x\n", "bad line '0 1 x'; expected three point ids"),
        ],
    )
    def test_non_integer_field_is_named(self, run, tmp_path, text, message):
        bad = tmp_path / "bad.psts"
        bad.write_text(text)
        code, out, err = run("analyze", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_negative_clique_size_is_an_error(self, run, grass_instance_file):
        code, out, err = run("analyze", grass_instance_file, "--cliques", "-2")
        assert code == 1
        assert out == ""
        assert err == "error: clique size must be non-negative, got -2\n"

    @pytest.mark.parametrize(
        "text, violation",
        [
            ("psts 4 2\n0 1 2\n0 1 3\n", "share 2 points (0, 1)"),
            (
                "psts 3 1\n0 1 2\n# label 0 x\n# label 1 x\n# label 2 y\n",
                "labels are not pairwise distinct",
            ),
        ],
    )
    def test_invalid_configuration(self, run, tmp_path, text, violation):
        # rejected as iso and export reject it: one stderr line, no stdout
        path = tmp_path / "invalid.psts"
        path.write_text(text)
        code, out, err = run("analyze", str(path))
        assert (code, out) == (1, "")
        # the Config's texts are pinned in test_incidence; here, the one line
        with pytest.raises(ValueError) as exc:
            parse_psts(text)
        assert str(exc.value).startswith("invalid configuration: ")
        assert err == f"error: {exc.value}\n"
        assert err.endswith(f"{violation}\n")

    def test_validates_once(self, run, tmp_path, monkeypatch):
        """The file's Config checks itself once, when it is parsed."""
        calls = []
        check = incidence.Config.__post_init__

        def counted(config):
            calls.append(config)
            check(config)

        path = tmp_path / "v6.psts"
        path.write_text(emit_psts(veronesian(6)))
        monkeypatch.setattr(incidence.Config, "__post_init__", counted)
        code, out, _ = run("analyze", str(path))
        assert code == 0 and "binomial parameters" in out
        assert len(calls) == 1

    def test_not_binomial(self, run, tmp_path):
        path = tmp_path / "one_line.psts"
        path.write_text("psts 4 1\n0 1 2\n")
        code, out, _ = run("analyze", str(path))
        assert code == 0
        assert "not a binomial configuration" in out
        assert "binomial parameters" not in out


class TestIso:
    def test_self_iso_identity_witness(self, run, grass_instance_file):
        code, out, _ = run("iso", grass_instance_file, grass_instance_file)
        assert code == 0
        assert "isomorphic" in out
        for i in range(15):
            assert f"{i} -> {i}" in out

    def test_relabeled_pair(self, run, tmp_path, grass_instance_file):
        from skewper.incidence import relabel

        config = parse_psts(open(grass_instance_file).read())
        moved = relabel(config, {i: (i + 4) % 15 for i in range(15)})
        other = tmp_path / "moved.psts"
        other.write_text(emit_psts(moved))
        code, out, _ = run("iso", grass_instance_file, str(other))
        assert code == 0

    def test_non_isomorphic_exits_one(self, run, tmp_path, grass_instance_file):
        # the triangle and Pasch counts differ: answered before any search
        from paper_claims import identity_skew

        other_cfg = perspective(
            4, identity_skew(4), veblen(veblen_label(6, parse_cycles("()", 4)))
        ).config
        other = tmp_path / "other.psts"
        other.write_text(emit_psts(other_cfg))
        result = run("iso", grass_instance_file, str(other))
        assert result == (1, "not isomorphic\n", "")

    def test_non_isomorphic_after_search_exits_one(self, run, tmp_path):
        # catalog classes 8 and 9 agree on the counts, so the search answers
        from skewper.classify import InstanceKey, build_instance

        paths = []
        for key in (InstanceKey(2, 5, 6), InstanceKey(2, 5, 7)):
            path = tmp_path / f"m{key.f}{key.s}{key.i}.psts"
            path.write_text(emit_psts(build_instance(key).config))
            paths.append(str(path))
        result = run("iso", *paths)
        assert result == (1, "not isomorphic\n", "")

    @pytest.mark.parametrize("text", ["psts 0 0\n", "psts 3 1\n0 1 2\n"])
    def test_smallest_files(self, run, tmp_path, text):
        path = tmp_path / "small.psts"
        path.write_text(text)
        num_points = int(text.split()[1])
        code, out, err = run("iso", str(path), str(path))
        assert (code, err) == (0, "")
        assert out == "isomorphic; witness:\n" + "".join(
            f"  {x} -> {x}\n" for x in range(num_points)
        )

    def test_deep_search_meets_no_recursion_limit(self, run, tmp_path):
        # a line-free file is one root cell, and the search individualizes
        # one point per level down to a leaf 1,100 levels deep
        num_points = 1100
        assert num_points > sys.getrecursionlimit()
        empty = make_config(num_points, [])
        assert are_isomorphic(empty, make_config(num_points, [])) == {
            x: x for x in range(num_points)
        }
        path = tmp_path / "empty.psts"
        path.write_text(f"psts {num_points} 0\n")
        code, out, err = run("iso", str(path), str(path))
        assert (code, err) == (0, "")
        assert out == "isomorphic; witness:\n" + "".join(
            f"  {x} -> {x}\n" for x in range(num_points)
        )

    def test_invalid_configuration_is_an_error(self, run, tmp_path):
        path = tmp_path / "two_shared.psts"
        path.write_text("psts 4 2\n0 1 2\n0 1 3\n")
        code, out, err = run("iso", str(path), str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid configuration:")
        assert "share 2 points" in err

    def test_out_of_range_point_is_an_error(self, run, tmp_path, grass_instance_file):
        config = parse_psts(open(grass_instance_file).read())
        lines = list(config.lines)
        lines[0] = (lines[0][0], lines[0][1], config.num_points)
        bad = tmp_path / "bad.psts"
        bad.write_text(
            f"psts {config.num_points} {len(lines)}\n"
            + "".join(f"{a} {b} {c}\n" for a, b, c in lines)
        )
        code, out, err = run("iso", str(bad), grass_instance_file)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_negative_header_is_an_error(self, run, tmp_path, grass_instance_file):
        bad = tmp_path / "negative.psts"
        bad.write_text("psts -3 0\n")
        code, out, err = run("iso", str(bad), grass_instance_file)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad header 'psts -3 0'")


class TestClassify:
    def test_golden_reports_failures_and_exits_one(self, run):
        code, out, _ = run("classify", "--golden")
        assert code == 1
        assert "[FAIL]" in out
        assert "two-free-clique class count" in out
        assert "47" in out

    def test_plain_prints_the_golden_text_and_exits_zero(self, run):
        code, out, _ = run("classify")
        golden_code, golden_out, _ = run("classify", "--golden")
        assert (code, golden_code) == (0, 1)
        assert out == golden_out

    def test_threads_flag_is_a_usage_error(self, run):
        code, out, err = run("classify", "--threads", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: skewper")
        assert "error: unrecognized arguments: --threads 1" in err


# The `export --dot --stp` text of perspective(4, zeta(4), axis) over
# grassmannian(4) and over veblen(veblen_label(5, (1,2))); the rows differ
# in the order of the axial points {i,4} and so in the a4 and b4 matchings
GRASS_STP_DOT = """\
graph stp {
  layout=neato;
  node [shape=circle];
  n0_0 [label="a1", pos="0.0,-0.0!"];
  n0_1 [label="a2", pos="2.0,-0.0!"];
  n0_2 [label="a3", pos="4.0,-0.0!"];
  n1_0 [label="b2", pos="0.0,-1.6!"];
  n1_1 [label="b1", pos="2.0,-1.6!"];
  n1_2 [label="b3", pos="4.0,-1.6!"];
  n2_0 [label="c{1,4}", pos="0.0,-3.2!"];
  n2_1 [label="c{2,4}", pos="2.0,-3.2!"];
  n2_2 [label="c{3,4}", pos="4.0,-3.2!"];
  n0_0 -- n0_1;
  n0_1 -- n0_2;
  n0_0 -- n0_2;
  n1_0 -- n1_1;
  n1_1 -- n1_2;
  n1_0 -- n1_2;
  n2_0 -- n2_1;
  n2_1 -- n2_2;
  n2_0 -- n2_2;
  n0_0 -- n1_1 [style=dashed, label="p"];
  n0_0 -- n2_0 [style=dashed, label="a4"];
  n0_1 -- n1_0 [style=dashed, label="p"];
  n0_1 -- n2_1 [style=dashed, label="a4"];
  n0_2 -- n1_2 [style=dashed, label="p"];
  n0_2 -- n2_2 [style=dashed, label="a4"];
  n1_0 -- n2_1 [style=dashed, label="b4"];
  n1_1 -- n2_2 [style=dashed, label="b4"];
  n1_2 -- n2_0 [style=dashed, label="b4"];
}
"""

VEBLEN_STP_DOT = """\
graph stp {
  layout=neato;
  node [shape=circle];
  n0_0 [label="a1", pos="0.0,-0.0!"];
  n0_1 [label="a2", pos="2.0,-0.0!"];
  n0_2 [label="a3", pos="4.0,-0.0!"];
  n1_0 [label="b2", pos="0.0,-1.6!"];
  n1_1 [label="b1", pos="2.0,-1.6!"];
  n1_2 [label="b3", pos="4.0,-1.6!"];
  n2_0 [label="c{2,4}", pos="0.0,-3.2!"];
  n2_1 [label="c{1,4}", pos="2.0,-3.2!"];
  n2_2 [label="c{3,4}", pos="4.0,-3.2!"];
  n0_0 -- n0_1;
  n0_1 -- n0_2;
  n0_0 -- n0_2;
  n1_0 -- n1_1;
  n1_1 -- n1_2;
  n1_0 -- n1_2;
  n2_0 -- n2_1;
  n2_1 -- n2_2;
  n2_0 -- n2_2;
  n0_0 -- n1_1 [style=dashed, label="p"];
  n0_0 -- n2_1 [style=dashed, label="a4"];
  n0_1 -- n1_0 [style=dashed, label="p"];
  n0_1 -- n2_0 [style=dashed, label="a4"];
  n0_2 -- n1_2 [style=dashed, label="p"];
  n0_2 -- n2_2 [style=dashed, label="a4"];
  n1_0 -- n2_0 [style=dashed, label="b4"];
  n1_1 -- n2_2 [style=dashed, label="b4"];
  n1_2 -- n2_1 [style=dashed, label="b4"];
}
"""


class TestExport:
    def test_psts_round_trip_byte_identical(self, run, grass_instance_file):
        code, out, _ = run("export", "--psts", grass_instance_file)
        assert code == 0
        assert out == open(grass_instance_file).read()

    def test_json(self, run, grass_instance_file):
        code, out, _ = run("export", "--json", grass_instance_file)
        assert code == 0
        assert json.loads(out)["num_points"] == 15

    def test_dot(self, run, grass_instance_file):
        code, out, _ = run("export", "--dot", grass_instance_file)
        assert code == 0
        assert out.startswith("graph")
        assert '"p"' in out

    def test_stp_layout(self, run, grass_instance_file):
        code, out, err = run("export", "--dot", "--stp", grass_instance_file)
        assert (code, out, err) == (0, GRASS_STP_DOT, "")

    def test_stp_layout_over_a_veblen_axis(self, run, tmp_path):
        persp = perspective(4, zeta(4), veblen(veblen_label(5, parse_cycles("(1,2)", 4))))
        path = tmp_path / "veblen.psts"
        path.write_text(emit_psts(persp.config))
        code, out, err = run("export", "--dot", "--stp", str(path))
        assert (code, out, err) == (0, VEBLEN_STP_DOT, "")

    def test_stp_requires_dot(self, run, grass_instance_file):
        code, _, err = run("export", "--psts", "--stp", grass_instance_file)
        assert code == 1
        assert "error" in err

    def test_stp_rejected_without_third_clique(self, run, tmp_path):
        cfg = perspective(
            4, zeta(4), veblen(veblen_label(6, parse_cycles("()", 4)))
        ).config
        path = tmp_path / "nostar.psts"
        path.write_text(emit_psts(cfg))
        code, _, err = run("export", "--dot", "--stp", str(path))
        assert code == 1
        assert "error" in err

    def test_stp_rejects_a_repeated_center_label(self, run, tmp_path, grass_instance_file):
        # an isolated extra point also named p: no Config holds it, so the
        # file is written as text
        config = parse_psts(open(grass_instance_file).read())
        lines = "".join(f"{x} {y} {z}\n" for x, y, z in config.lines)
        names = config.labels + ("p",)
        labels = "".join(f"# label {i} {name}\n" for i, name in enumerate(names))
        path = tmp_path / "two_centers.psts"
        path.write_text(f"psts {len(names)} {len(config.lines)}\n{lines}{labels}")
        code, out, err = run("export", "--dot", "--stp", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "labels" in err

    def test_stp_rejects_lines_of_no_perspective(self, run, tmp_path, grass_instance_file):
        # swap the axial points of {a1,a2,c{1,2}} and {a1,a3,c{1,3}}: the
        # b-side and axial lines still read as a skew and an axis
        config = parse_psts(open(grass_instance_file).read())
        a1, a2, a3, c12, c13 = (
            config.labels.index(name) for name in ("a1", "a2", "a3", "c{1,2}", "c{1,3}")
        )
        swapped = {
            tuple(sorted((a1, a2, c12))): (a1, a2, c13),
            tuple(sorted((a1, a3, c13))): (a1, a3, c12),
        }
        lines = [swapped.get(L, L) for L in config.lines]
        path = tmp_path / "swapped.psts"
        path.write_text(emit_psts(make_config(config.num_points, lines, config.labels)))
        code, out, err = run("export", "--dot", "--stp", str(path))
        assert (code, out) == (1, "")
        assert err == "error: labeled lines do not match a perspective construction\n"

    def test_stp_rejected_for_unlabeled(self, run, tmp_path):
        cfg = make_config(6, [(0, 1, 2), (0, 3, 4)])
        path = tmp_path / "plain.psts"
        path.write_text(emit_psts(cfg))
        code, _, err = run("export", "--dot", "--stp", str(path))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "form", [["--psts"], ["--json"], ["--dot"], ["--dot", "--stp"]]
    )
    def test_invalid_configuration_is_an_error(self, run, tmp_path, form):
        path = tmp_path / "two_shared.psts"
        path.write_text("psts 4 2\n0 1 2\n0 1 3\n")
        code, out, err = run("export", *form, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid configuration:")
        assert "share 2 points" in err

    def test_repeated_label_is_an_error(self, run, tmp_path):
        path = tmp_path / "relabeled.psts"
        path.write_text("psts 3 1\n0 1 2\n# label 0 a\n# label 0 b\n# label 1 c\n# label 2 d\n")
        code, out, err = run("export", str(path), "--psts")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_label_without_name_is_an_error(self, run, tmp_path):
        path = tmp_path / "unnamed.psts"
        path.write_text("psts 3 1\n0 1 2\n# label 0\n")
        code, out, err = run("export", str(path), "--psts")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_format_flag_required(self, run, grass_instance_file):
        assert run("export", grass_instance_file)[0] == 2


FUZZ_TOKENS = ("0", "1", "7", "9", "-", " ", "\n", "\t", "#", "x", "psts", "# label 0 x\n", "8 1 2\n")
FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def fuzz_sources():
    """Small valid psts texts: labeled and unlabeled, with and without
    lines, all on at most eight points."""
    rng = random.Random(4)
    return [
        emit_psts(grassmannian(4)),
        emit_psts(veblen(veblen_label(5, parse_cycles("(1,2)", 4)))),
        emit_psts(make_config(7, FANO_LINES)),
        emit_psts(random_partial_linear(rng, 8, 6)),
        emit_psts(make_config(3, [])),
    ]


def mutate(rng: random.Random, text: str) -> str:
    """Delete a span, insert a token, or shuffle the rows below the first,
    once or twice."""
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(3)
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 4):]
        elif op == 1:
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(FUZZ_TOKENS) + text[i:]
        else:
            head, *rows = text.split("\n")
            rng.shuffle(rows)
            text = "\n".join([head, *rows])
    return text


class TestFuzz:
    MAX_POINTS = 8  # the canonizer's tree is factorial in the points of one cell

    def test_every_verb_on_mutated_files(self, run, tmp_path):
        rng = random.Random(20260503)
        sources = fuzz_sources()
        source_path = tmp_path / "source.psts"
        path = tmp_path / "mutated.psts"
        for trial in range(150):
            source = rng.choice(sources)
            text = mutate(rng, source)
            try:
                if parse_psts(text).num_points > self.MAX_POINTS:
                    continue
            except ValueError:
                pass
            source_path.write_text(source)
            path.write_text(text)
            calls = [
                ("analyze", str(path), "--cliques", str(rng.randint(-1, 4)), "--aut"),
                ("iso", str(path), str(source_path)),
                ("export", str(path), "--psts"),
                ("export", str(path), "--json"),
                ("export", str(path), "--dot"),
                ("export", str(path), "--dot", "--stp"),
            ]
            for argv in calls:
                code, _, _ = run(*argv)
                assert code in (0, 1), (trial, argv, text)
