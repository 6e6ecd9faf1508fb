import numpy as np

from perfbench.schedule import COLD, FEEDBACK, HISTORY_LEN, WARM, Mix, make_schedule


def schedule(seed, stream=0, n=2000):
    return make_schedule(
        seed, n, stream=stream, warm_users=np.arange(50, 350), n_items=400, zipf_s=1.1,
        mix=Mix(warm=0.8, cold=0.1, feedback=0.1), rate_per_s=200.0, cold_user_base=1000,
    )


def arrays(s):
    return (s.kind, s.user, s.arrival_s, s.items, s.n_items)


def test_same_seed_same_schedule():
    for a, b in zip(arrays(schedule(7)), arrays(schedule(7))):
        assert np.array_equal(a, b)


def test_other_seed_or_stream_differs():
    base = schedule(7)
    for other in (schedule(8), schedule(7, stream=1)):
        assert not np.array_equal(base.user, other.user)
        assert not np.array_equal(base.arrival_s, other.arrival_s)


def test_mix_users_and_items_are_well_formed():
    s = schedule(3)
    shares = np.bincount(s.kind, minlength=3) / len(s)
    assert abs(shares[WARM] - 0.8) < 0.05 and abs(shares[COLD] - 0.1) < 0.03
    assert abs(shares[FEEDBACK] - 0.1) < 0.03
    warm = s.kind != COLD
    assert s.user[warm].min() >= 50 and s.user[warm].max() < 350
    assert np.array_equal(s.user[s.kind == COLD], 1000 + np.arange((s.kind == COLD).sum()))
    assert s.items.min() >= 0 and s.items.max() < 400
    assert all(len(set(row)) == HISTORY_LEN for row in s.items.tolist())
    assert np.all(np.diff(s.arrival_s) > 0)
    assert abs(len(s) / s.arrival_s[-1] - 200.0) < 20.0


def test_streams_share_the_seeds_popular_users():
    def top_users(s):
        users, counts = np.unique(s.user[s.kind == WARM], return_counts=True)
        return set(users[np.argsort(counts)[::-1][:5]].tolist())

    assert top_users(schedule(7, stream=0, n=20000)) == top_users(schedule(7, stream=1, n=20000))
    assert top_users(schedule(7, n=20000)) != top_users(schedule(8, n=20000))


def test_zipf_concentrates_on_few_users():
    s = schedule(5, n=20000)
    _, counts = np.unique(s.user[s.kind == WARM], return_counts=True)
    top = np.sort(counts)[::-1]
    assert top[:10].sum() > 0.3 * top.sum()
