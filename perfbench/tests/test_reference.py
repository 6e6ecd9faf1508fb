import numpy as np

from perfbench.reference import check_ranking, reference_topk


def test_reference_orders_by_score_then_id_and_skips_excluded():
    scores = np.array([0.5, 0.9, 0.9, 0.1, 0.7])
    assert reference_topk(scores, np.array([4]), 3).tolist() == [1, 2, 0]


def test_exact_and_near_tie_rankings_pass():
    scores = np.array([0.5, 0.9, 0.9 - 1e-9, 0.1, 0.7])
    assert check_ranking([1, 2, 4], scores, np.array([], dtype=np.int64), 3) == (True, True, "")
    valid, exact, _ = check_ranking([2, 1, 4], scores, np.array([], dtype=np.int64), 3)
    assert valid and not exact


def test_wrong_rankings_fail():
    scores = np.array([0.5, 0.9, 0.8, 0.1, 0.7])
    none = np.array([], dtype=np.int64)
    assert not check_ranking([2, 1, 4], scores, none, 3)[0]  # out of order
    assert not check_ranking([1, 2, 0], scores, none, 3)[0]  # 4 beats 0
    assert not check_ranking([1, 2, 4], scores, np.array([4]), 3)[0]  # excluded item
    assert not check_ranking([1, 1, 2], scores, none, 3)[0]  # duplicate
