"""Tests for the AggregateTrie compact layout and probing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import cellid
from repro.core.trie import NODE_BYTES, TrieBuilder
from repro.errors import BuildError, QueryError

WIDTH = 4  # count + sum/min/max of one column


def _record(value: float) -> np.ndarray:
    return np.asarray([value, value, value, value], dtype=np.float64)


@pytest.fixture()
def root() -> int:
    return cellid.make_id(4, 7)


class TestLayout:
    def test_node_is_eight_bytes(self):
        assert NODE_BYTES == 8

    def test_children_allocated_four_at_a_time(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        child = cellid.child(root, 2)
        builder.insert(child, _record(1.0))
        trie = builder.finish()
        # Root + one block of four children.
        assert trie.num_nodes == 5
        assert trie.memory_bytes() == 5 * NODE_BYTES + WIDTH * 8

    def test_deep_insert_allocates_per_level(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        deep = cellid.parent(cellid.range_min(root), 8)  # 4 levels below the root
        builder.insert(deep, _record(2.0))
        trie = builder.finish()
        assert trie.num_nodes == 1 + 4 * 4
        assert trie.num_cached == 1

    def test_null_offsets_encode_absence(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        builder.insert(cellid.child(root, 1), _record(3.0))
        trie = builder.finish()
        # The sibling slots exist but have neither children nor records.
        probe = trie.probe(cellid.child(root, 0))
        assert probe.status == "miss"


class TestProbing:
    def test_hit(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        cell = cellid.child(root, 3)
        builder.insert(cell, _record(7.0))
        trie = builder.finish()
        probe = trie.probe(cell)
        assert probe.status == "hit"
        assert probe.record[0] == 7.0

    def test_miss_outside_root(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        trie = builder.finish()
        foreign = cellid.make_id(6, 0)
        assert not cellid.contains(root, foreign)
        assert trie.probe(foreign).status == "miss"

    def test_partial_with_cached_children(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        parent = cellid.child(root, 0)
        kids = cellid.children(parent)
        builder.insert(kids[0], _record(1.0))
        builder.insert(kids[2], _record(2.0))
        trie = builder.finish()
        probe = trie.probe(parent)
        assert probe.status == "partial"
        assert len(probe.child_records) == 2
        assert sorted(probe.uncached_children) == sorted([kids[1], kids[3]])

    def test_hit_preferred_over_children(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        parent = cellid.child(root, 0)
        builder.insert(parent, _record(9.0))
        builder.insert(cellid.child(parent, 1), _record(1.0))
        trie = builder.finish()
        assert trie.probe(parent).status == "hit"

    def test_root_probe(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        builder.insert(root, _record(5.0))
        trie = builder.finish()
        assert trie.probe(root).status == "hit"

    def test_cached_cells_introspection(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=10_000)
        cells = [cellid.child(root, 1), cellid.parent(cellid.range_min(root), 7)]
        for index, cell in enumerate(cells):
            builder.insert(cell, _record(float(index)))
        trie = builder.finish()
        assert sorted(trie.cached_cells()) == sorted(cells)


class TestBudget:
    def test_would_fit_accounts_path_cost(self, root):
        record_bytes = WIDTH * 8
        # Root exists (8B); inserting a child costs one 4-node block
        # (32B) plus the record.
        builder = TrieBuilder(root, WIDTH, budget_bytes=NODE_BYTES + 4 * NODE_BYTES + record_bytes)
        assert builder.would_fit(cellid.child(root, 0))
        builder.insert(cellid.child(root, 0), _record(1.0))
        # A sibling fits only its record now (block already allocated).
        assert not builder.would_fit(cellid.parent(cellid.range_min(root), 9))
        assert builder.would_fit(cellid.child(root, 1)) is False  # record exceeds budget

    def test_zero_budget_fits_nothing(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=0)
        assert not builder.would_fit(cellid.child(root, 0))


class TestValidation:
    def test_wrong_record_width(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=1000)
        with pytest.raises(BuildError):
            builder.insert(cellid.child(root, 0), np.zeros(WIDTH + 1))

    def test_insert_outside_root(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=1000)
        with pytest.raises(QueryError):
            builder.insert(cellid.make_id(6, 0), _record(0.0))

    def test_duplicate_insert(self, root):
        builder = TrieBuilder(root, WIDTH, budget_bytes=1000)
        cell = cellid.child(root, 0)
        builder.insert(cell, _record(0.0))
        with pytest.raises(BuildError):
            builder.insert(cell, _record(1.0))
