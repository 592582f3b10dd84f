"""Tests that the benchmark's checks reject wrong outputs.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import skewper as sk  # noqa: E402
import workloads as W  # noqa: E402

STORED = W.catalog_rows()


@pytest.fixture(scope="module")
def lines_of():
    return {
        (k.f, k.s, k.i): sk.classify.build_instance(k).config.lines
        for k in sk.classify.ALL_KEYS
    }


def _moved(config, seed):
    return W.relabelled(sk, config, seed, "test", 0, "x")


def test_witness_checked_and_corruption_caught():
    config = sk.classify.build_instance(sk.classify.InstanceKey(3, 5, 8)).config
    moved, images = _moved(config, 1)
    assert checks.check_witness(images, config.lines, moved.lines) == []
    broken = list(images)
    broken[0], broken[1] = broken[1], broken[0]
    assert checks.check_witness(broken, config.lines, moved.lines)
    stdout = "isomorphic; witness:\n" + "".join(f"  {p} -> {q}\n" for p, q in enumerate(broken))
    result = {"rc": 0, "stdout": stdout, "stderr": "", "exc": None}
    assert checks.check_iso_query(15, config.lines, 15, moved.lines, result)


def test_wrong_negative_answer_caught():
    config = sk.classify.build_instance(sk.classify.InstanceKey(2, 6, 4)).config
    moved, _ = _moved(config, 2)
    result = {"rc": 1, "stdout": "not isomorphic\n", "stderr": "", "exc": None}
    assert checks.check_iso_query(15, config.lines, 15, moved.lines, result)


def test_group_checked_and_extra_element_caught():
    moved, images = _moved(sk.constructions.grassmannian(5), 3)
    group = sk.isomorphism.automorphism_group(moved)
    elements = [list(g) for g in group.elements]
    generators = [list(g) for g in group.generators]
    assert checks.check_group(10, moved.lines, group.order, elements, generators) == []
    induced = W.grassmannian_induced(5, images, sk.constructions.grassmannian(5).labels)
    assert checks.check_grassmannian_group(5, group.order, elements, induced) == []
    extra = list(range(10))
    extra[0], extra[1] = 1, 0
    assert checks.check_group(10, moved.lines, group.order + 1, elements + [extra], generators)
    assert checks.check_group(10, moved.lines, group.order, elements[:-1] + [extra], generators)
    assert checks.check_group_order(10, moved.lines, group.order + 1)


def test_merged_catalog_class_caught(lines_of):
    rows = [list(r) for r in STORED]
    assert checks.check_catalog_table(rows, STORED) == []
    assert checks.check_catalog_proofs(rows, lines_of, seed=0) == []
    a, b = W.hard_negative_class_pairs(W.load_catalog())[0]
    merged = [r[:5] + [a if r[5] == b else r[5]] for r in rows]
    assert checks.check_catalog_table(merged, STORED)
    assert checks.check_catalog_proofs(merged, lines_of, seed=0)


def test_wrong_clique_count_caught(lines_of):
    rows = [list(r) for r in STORED]
    rows[7][3] += 1
    assert checks.check_catalog_table(rows, STORED)
    assert checks.check_catalog_proofs(rows, lines_of, seed=0)


def test_host_cliques_checked():
    persp = W.host(sk, 5)
    moved, images = _moved(persp.config, 4)
    expected = W.host_free_cliques(persp, images)
    found = [sorted(c.vertices) for c in sk.analysis.enumerate_free_cliques(moved, 6)]
    assert checks.check_free_cliques(moved.lines, found, expected) == []
    assert checks.check_free_cliques(moved.lines, found[:-1], expected)
    assert all(oracle.is_free_clique(moved.lines, c) for c in expected)


def test_malformed_answer_graded():
    assert checks.malformed_ok({"rc": 1, "stdout": "", "stderr": "error: bad\n", "exc": None})
    assert not checks.malformed_ok({"rc": None, "stdout": "", "stderr": "", "exc": "IndexError: x"})
    assert not checks.malformed_ok({"rc": 0, "stdout": "isomorphic", "stderr": "", "exc": None})
