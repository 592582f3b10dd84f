"""Round-trip and determinism tests for the text, JSON, and DOT emitters."""

import itertools
import json
import random
import re
from dataclasses import dataclass

import pytest

from skewper.incidence import make_config
from skewper.formats import (
    emit_dot,
    emit_json,
    emit_psts,
    emit_stp_dot,
    parse_psts,
)


def random_psts(rng: random.Random):
    """A random small partial Steiner triple system, greedily built."""
    nu = rng.randint(3, 12)
    lines = []
    used_pairs = set()
    for _ in range(rng.randint(0, 10)):
        cand = tuple(sorted(rng.sample(range(nu), 3)))
        pairs = set(itertools.combinations(cand, 2))
        if pairs & used_pairs:
            continue
        used_pairs |= pairs
        lines.append(cand)
    labels = None
    if rng.random() < 0.5:
        labels = tuple(f"v{i} name" if rng.random() < 0.3 else f"v{i}" for i in range(nu))
    return make_config(nu, lines, labels)


class TestPstsFormat:
    def test_header_and_shape(self):
        c = make_config(4, [(0, 1, 2), (0, 3, 1)][:1])
        text = emit_psts(c)
        first = text.splitlines()[0]
        assert first == "psts 4 1"

    def test_round_trip_exact(self):
        rng = random.Random(99)
        for _ in range(100):
            c = random_psts(rng)
            assert parse_psts(emit_psts(c)) == c

    def test_round_trip_byte_identical(self):
        rng = random.Random(100)
        for _ in range(50):
            c = random_psts(rng)
            once = emit_psts(c)
            assert emit_psts(parse_psts(once)) == once

    def test_labels_with_spaces(self):
        c = make_config(3, [(0, 1, 2)], labels=("a^2 b^0 c^1", "x", "y z"))
        assert parse_psts(emit_psts(c)).labels == c.labels

    @pytest.mark.parametrize(
        "name", ["", "a ", " a", "\ta", "a\nb", "a\rb", "a\x85b", "a\u2028b", "a\n"]
    )
    def test_label_psts_cannot_hold_is_refused(self, name):
        # empty, padded with whitespace, or spanning lines: the parser
        # would reject the line or read back another name
        c = make_config(3, [(0, 1, 2)], labels=("x", name, "y"))
        message = f"point 1 has label {name!r}, which psts cannot hold"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            emit_psts(c)

    def test_every_label_written_reads_back(self):
        """A label is written exactly when the parser reads it back
        unchanged: a hand-written line holding a refused label does not."""
        rng = random.Random(7)
        alphabet = "ab #\té中" + "\n\r\x85\u2028\x0c\x1c"
        written = set()
        for _ in range(2000):
            name = "".join(rng.choices(alphabet, k=rng.randint(0, 5)))
            c = make_config(3, [(0, 1, 2)], labels=("p1", name, "p2"))
            try:
                text = emit_psts(c)
            except ValueError:
                by_hand = f"psts 3 1\n0 1 2\n# label 0 p1\n# label 1 {name}\n# label 2 p2\n"
                try:
                    assert parse_psts(by_hand).labels != c.labels, name
                except ValueError:
                    pass
                continue
            assert parse_psts(text).labels == c.labels, name
            written.add(name)
        # internal spaces and tabs, "#" and non-ASCII names are all written
        assert all(any(ch in name[1:-1] for name in written) for ch in " \t#é中")

    def test_unlabeled(self):
        c = make_config(5, [(0, 2, 4)])
        text = emit_psts(c)
        assert "label" not in text
        assert parse_psts(text).labels is None

    def test_partial_labels_rejected(self):
        text = "psts 3 1\n0 1 2\n# label 0 x\n"
        with pytest.raises(ValueError, match="label"):
            parse_psts(text)

    def test_repeated_label_rejected(self):
        text = "psts 3 1\n0 1 2\n# label 0 a\n# label 0 b\n# label 1 c\n# label 2 d\n"
        with pytest.raises(ValueError, match="bad label '# label 0 b'; point 0 is already labeled"):
            parse_psts(text)

    @pytest.mark.parametrize(
        "comment", ["# label 0", "# label", "#label", "# label x y", "# label 1.5 y"]
    )
    def test_malformed_label_rejected(self, comment):
        text = f"psts 3 1\n0 1 2\n{comment}\n"
        with pytest.raises(ValueError, match="bad label"):
            parse_psts(text)

    def test_plain_comments_ignored(self):
        text = "psts 3 1\n# just a note\n0 1 2\n"
        assert parse_psts(text) == make_config(3, [(0, 1, 2)])

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_psts("nope 3 1\n0 1 2\n")

    @pytest.mark.parametrize("header", ["psts -3 0", "psts 3 -1", "psts -1 -1"])
    def test_negative_counts_rejected(self, header):
        with pytest.raises(ValueError, match="bad header.*non-negative"):
            parse_psts(f"{header}\n")

    def test_line_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 2"):
            parse_psts("psts 3 2\n0 1 2\n")

    def test_repeated_line_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            parse_psts("psts 4 2\n0 1 2\n2 1 0\n")

    @pytest.mark.parametrize("line", ["0 1 4", "0 1 -1", "0 1 1"])
    def test_bad_point_ids_rejected(self, line):
        # the Config the parser builds refuses them
        with pytest.raises(ValueError, match=r"invalid configuration: line \("):
            parse_psts(f"psts 4 1\n{line}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("psts 3 1\n0 1 2\n# label 0\n", "bad label '# label 0'; expected '# label <id> <name>'"),
            (
                "psts 3 1\n0 1 2\n# label 0 a\n# label 0 b\n",
                "bad label '# label 0 b'; point 0 is already labeled",
            ),
            ("nope 3 1\n0 1 2\n", "bad header 'nope 3 1'; expected 'psts <points> <lines>'"),
            ("psts 3\n", "bad header 'psts 3'; expected 'psts <points> <lines>'"),
            ("0 1 2\npsts 3 1\n", "bad header '0 1 2'; expected 'psts <points> <lines>'"),
            ("psts -3 0\n", "bad header 'psts -3 0'; counts must be non-negative"),
            ("psts 3 1\n0 1\n", "bad line '0 1'; expected three point ids"),
            (
                "psts 3 1\n0 1 1\n",
                "invalid configuration: line (0, 1, 1) does not consist of 3 distinct points",
            ),
            ("psts 4 1\n0 1 4\n", "invalid configuration: line (0, 1, 4) uses point 4 outside 0..3"),
            (
                "psts 4 1\n0 1 -1\n",
                "invalid configuration: line (-1, 0, 1) uses point -1 outside 0..3",
            ),
            ("psts 4 2\n0 1 2\n2 1 0\n", "invalid configuration: line list repeats line (0, 1, 2)"),
            ("", "missing header"),
            ("# just a note\n", "missing header"),
            ("psts 3 2\n0 1 2\n", "expected 2 lines, found 1"),
            (
                "psts 3 1\n0 1 2\n# label 0 x\n# label 1 y\n# label 3 z\n",
                "label comments must cover every point exactly once or be absent",
            ),
        ],
    )
    def test_rejection_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_psts(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("psts a b\n", "bad header 'psts a b'; expected 'psts <points> <lines>'"),
            ("psts 3 1.5\n", "bad header 'psts 3 1.5'; expected 'psts <points> <lines>'"),
            ("psts 3 1\n0 1 x\n", "bad line '0 1 x'; expected three point ids"),
            ("psts 3 1\n0 1 2.0\n", "bad line '0 1 2.0'; expected three point ids"),
            ("psts 1_5 0\n", "bad header 'psts 1_5 0'; expected 'psts <points> <lines>'"),
            ("psts +3 1\n", "bad header 'psts +3 1'; expected 'psts <points> <lines>'"),
            ("psts ３ 1\n", "bad header 'psts ３ 1'; expected 'psts <points> <lines>'"),
            ("psts --3 0\n", "bad header 'psts --3 0'; expected 'psts <points> <lines>'"),
            ("psts - 0\n", "bad header 'psts - 0'; expected 'psts <points> <lines>'"),
            ("psts 4 1\n0 1 +2\n", "bad line '0 1 +2'; expected three point ids"),
            ("psts 4 1\n0 1 ３\n", "bad line '0 1 ３'; expected three point ids"),
            ("psts 4 1\n0 1 ²\n", "bad line '0 1 ²'; expected three point ids"),
            ("psts 4 1\n0 1 1_0\n", "bad line '0 1 1_0'; expected three point ids"),
            (
                "psts 3 1\n0 1 2\n# label +0 a\n",
                "bad label '# label +0 a'; expected '# label <id> <name>'",
            ),
            (
                "psts 3 1\n0 1 2\n# label ０ a\n",
                "bad label '# label ０ a'; expected '# label <id> <name>'",
            ),
        ],
    )
    def test_non_integer_fields_are_named(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_psts(text)
        assert str(info.value) == message

    def test_ascii_integers_parse_as_before(self):
        text = "psts 005 02\n0 01 2\n-0 3 4\n# label 00 a\n# label 1 b\n"
        text += "# label 2 c\n# label 03 d\n# label 4 e\n"
        assert parse_psts(text) == make_config(5, [(0, 1, 2), (0, 3, 4)], tuple("abcde"))

    def test_lines_sorted_whatever_the_file_order(self):
        c = parse_psts("psts 6 2\n5 4 3\n2 0 1\n")
        assert c == make_config(6, [(0, 1, 2), (3, 4, 5)])
        assert c.lines == ((0, 1, 2), (3, 4, 5))

    def test_emission_independent_of_input_order(self):
        a = make_config(5, [(2, 1, 0), (4, 3, 0)])
        b = make_config(5, [(0, 3, 4), (0, 1, 2)])
        assert emit_psts(a) == emit_psts(b)


class TestJsonFormat:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            c = random_psts(rng)
            doc = json.loads(emit_json(c))
            assert doc["num_points"] == c.num_points
            assert [tuple(L) for L in doc["lines"]] == list(c.lines)
            assert doc["labels"] == (list(c.labels) if c.labels is not None else None)

    def test_deterministic(self):
        c = make_config(4, [(0, 1, 3)], labels=("a", "b", "c", "d"))
        assert emit_json(c) == emit_json(c)

    def test_fields_present(self):
        doc = json.loads(emit_json(make_config(3, [(0, 1, 2)])))
        assert doc["num_points"] == 3
        assert doc["lines"] == [[0, 1, 2]]
        assert doc["labels"] is None


class TestDotFormat:
    def test_levi_graph_counts(self):
        c = make_config(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5)], labels=tuple("uvwxyz"))
        dot = emit_dot(c)
        assert dot.count(" -- ") == 9  # one edge per incidence
        for name in "uvwxyz":
            assert f'"{name}"' in dot
        assert dot.startswith("graph")
        assert dot.rstrip().endswith("}")

    def test_deterministic(self):
        c = make_config(4, [(1, 2, 3)])
        assert emit_dot(c) == emit_dot(c)


@dataclass(frozen=True)
class FakeDiagram:
    rows: tuple
    matching: tuple


class TestStpDot:
    def test_nine_cells_and_matching_edges(self):
        labels = ("p",) + tuple(f"x{i}" for i in range(9))
        c = make_config(10, [], labels=labels)
        rows = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        matching = (((0, 0), (1, 0), 0), ((0, 1), (1, 1), 0))
        dot = emit_stp_dot(FakeDiagram(rows, matching), c)
        for i in range(1, 10):
            assert f'"x{i - 1}"' in dot
        # row triangles contribute 3 edges per row; matching adds 2 more
        assert dot.count(" -- ") == 9 + 2
        assert dot.count("pos=") == 9
