"""Unit and property tests for the InteractionMatrix data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.interactions import InteractionMatrix
from repro.utils.exceptions import DataError


def pairs_strategy(max_users=8, max_items=10, max_pairs=40):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=max_users - 1),
            st.integers(min_value=0, max_value=max_items - 1),
        ),
        max_size=max_pairs,
    )


class TestConstruction:
    def test_from_pairs_basic(self, tiny_matrix):
        assert tiny_matrix.n_users == 4
        assert tiny_matrix.n_items == 6
        assert tiny_matrix.n_interactions == 6

    def test_from_pairs_deduplicates(self):
        matrix = InteractionMatrix.from_pairs([(0, 1), (0, 1), (0, 1)], 1, 3)
        assert matrix.n_interactions == 1

    def test_from_pairs_empty(self):
        matrix = InteractionMatrix.from_pairs([], n_users=3, n_items=4)
        assert matrix.n_interactions == 0
        assert matrix.density == 0.0

    def test_from_pairs_infers_dimensions(self):
        matrix = InteractionMatrix.from_pairs([(2, 5)])
        assert (matrix.n_users, matrix.n_items) == (3, 6)

    def test_from_pairs_rejects_out_of_range(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs([(5, 0)], n_users=2, n_items=3)
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs([(0, 9)], n_users=2, n_items=3)

    def test_from_pairs_rejects_negative(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs([(-1, 0)], n_users=2, n_items=2)

    def test_from_pairs_rejects_bad_shape(self):
        with pytest.raises(DataError):
            InteractionMatrix.from_pairs(np.zeros((3, 3)))

    def test_from_dense_roundtrip(self, tiny_matrix):
        rebuilt = InteractionMatrix.from_dense(tiny_matrix.to_dense())
        assert rebuilt == tiny_matrix

    def test_empty_constructor(self):
        matrix = InteractionMatrix.empty(3, 5)
        assert matrix.n_interactions == 0
        assert matrix.positives(0).size == 0

    def test_invalid_indptr_rejected(self):
        with pytest.raises(DataError):
            InteractionMatrix(2, 3, np.array([0, 2]), np.array([0, 1]))
        with pytest.raises(DataError):
            InteractionMatrix(2, 3, np.array([1, 1, 2]), np.array([0, 1]))
        with pytest.raises(DataError):
            InteractionMatrix(2, 3, np.array([0, 2, 1]), np.array([0]))


class TestAccessors:
    def test_positives_sorted_per_user(self, tiny_matrix):
        assert tiny_matrix.positives(0).tolist() == [0, 1, 2]
        assert tiny_matrix.positives(1).tolist() == [2, 3]
        assert tiny_matrix.positives(3).tolist() == []

    def test_n_positives(self, tiny_matrix):
        assert [tiny_matrix.n_positives(u) for u in range(4)] == [3, 2, 1, 0]

    def test_user_counts(self, tiny_matrix):
        assert tiny_matrix.user_counts().tolist() == [3, 2, 1, 0]

    def test_item_counts(self, tiny_matrix):
        assert tiny_matrix.item_counts().tolist() == [1, 1, 2, 1, 0, 1]

    def test_contains(self, tiny_matrix):
        assert tiny_matrix.contains(0, 1)
        assert not tiny_matrix.contains(0, 3)
        assert not tiny_matrix.contains(3, 0)

    def test_contains_batch_matches_scalar(self, tiny_matrix):
        items = np.arange(6)
        for user in range(4):
            expected = [tiny_matrix.contains(user, i) for i in items]
            assert tiny_matrix.contains_batch(user, items).tolist() == expected

    def test_pairs_roundtrip(self, tiny_matrix):
        rebuilt = InteractionMatrix.from_pairs(tiny_matrix.pairs(), 4, 6)
        assert rebuilt == tiny_matrix

    def test_iter_users_skips_empty(self, tiny_matrix):
        users = [user for user, _ in tiny_matrix.iter_users()]
        assert users == [0, 1, 2]

    def test_density(self, tiny_matrix):
        assert tiny_matrix.density == pytest.approx(6 / 24)

    def test_repr_mentions_shape(self, tiny_matrix):
        assert "n_users=4" in repr(tiny_matrix)

    def test_not_hashable(self, tiny_matrix):
        with pytest.raises(TypeError):
            hash(tiny_matrix)


class TestSetAlgebra:
    def test_union(self, tiny_matrix):
        other = InteractionMatrix.from_pairs([(3, 0), (0, 0)], 4, 6)
        union = tiny_matrix.union(other)
        assert union.n_interactions == 7
        assert union.contains(3, 0)

    def test_difference(self, tiny_matrix):
        other = InteractionMatrix.from_pairs([(0, 0), (1, 3)], 4, 6)
        diff = tiny_matrix.difference(other)
        assert diff.n_interactions == 4
        assert not diff.contains(0, 0)
        assert diff.contains(0, 1)

    def test_intersects(self, tiny_matrix):
        assert tiny_matrix.intersects(InteractionMatrix.from_pairs([(2, 5)], 4, 6))
        assert not tiny_matrix.intersects(InteractionMatrix.from_pairs([(2, 4)], 4, 6))

    def test_shape_mismatch_raises(self, tiny_matrix):
        other = InteractionMatrix.empty(4, 7)
        with pytest.raises(DataError):
            tiny_matrix.union(other)

    @pytest.mark.parametrize("op", ["difference", "intersects"])
    def test_set_ops_reject_a_shape_mismatch(self, tiny_matrix, op):
        for other in (InteractionMatrix.empty(4, 7), InteractionMatrix.empty(5, 6)):
            with pytest.raises(DataError, match="shape mismatch"):
                getattr(tiny_matrix, op)(other)

    @pytest.mark.parametrize("shape", [(4, 6), (0, 6), (4, 0), (0, 0)])
    def test_set_ops_on_empty_matrices(self, shape):
        empty = InteractionMatrix.empty(*shape)
        assert not empty.intersects(empty)
        assert empty.difference(empty) == empty

    @given(mine=pairs_strategy(), theirs=pairs_strategy())
    @settings(max_examples=80, deadline=None)
    def test_set_ops_match_a_set_reference(self, mine, theirs):
        left = InteractionMatrix.from_pairs(mine, n_users=8, n_items=10)
        right = InteractionMatrix.from_pairs(theirs, n_users=8, n_items=10)
        expected = set(mine) - set(theirs)
        assert left.intersects(right) == bool(set(mine) & set(theirs))
        assert left.difference(right) == InteractionMatrix.from_pairs(sorted(expected), 8, 10)


class TestProperties:
    @given(pairs=pairs_strategy())
    @settings(max_examples=50, deadline=None)
    def test_from_pairs_matches_dense_semantics(self, pairs):
        matrix = InteractionMatrix.from_pairs(pairs, n_users=8, n_items=10)
        dense = np.zeros((8, 10), dtype=int)
        for user, item in pairs:
            dense[user, item] = 1
        assert np.array_equal(matrix.to_dense(), dense)
        assert matrix.n_interactions == dense.sum()

    @given(pairs=pairs_strategy())
    @settings(max_examples=50, deadline=None)
    def test_positives_are_sorted_unique(self, pairs):
        matrix = InteractionMatrix.from_pairs(pairs, n_users=8, n_items=10)
        for user in range(8):
            row = matrix.positives(user)
            assert np.all(np.diff(row) > 0)

    @given(pairs=pairs_strategy(), other_pairs=pairs_strategy())
    @settings(max_examples=30, deadline=None)
    def test_union_difference_identity(self, pairs, other_pairs):
        a = InteractionMatrix.from_pairs(pairs, 8, 10)
        b = InteractionMatrix.from_pairs(other_pairs, 8, 10)
        # (a ∪ b) \ b == a \ b
        assert a.union(b).difference(b) == a.difference(b)
