"""The seeded load: the open-loop schedule and the fan-out stream."""

from loadgen import SESSIONS, schedule

KEYS = ["a", "b", "c"]
WEIGHTS = [0.5, 0.3, 0.2]


def test_same_seed_gives_the_same_schedule():
    assert schedule(7, 200.0, 5.0, KEYS, WEIGHTS) == schedule(
        7, 200.0, 5.0, KEYS, WEIGHTS
    )


def test_another_seed_gives_another_schedule():
    assert schedule(7, 200.0, 5.0, KEYS, WEIGHTS) != schedule(
        8, 200.0, 5.0, KEYS, WEIGHTS
    )


def test_schedule_covers_the_window_at_the_offered_rate():
    plans = schedule(3, 400.0, 20.0, KEYS, WEIGHTS)
    assert len(plans) == SESSIONS
    for plan in plans:
        dues = [due for due, _ in plan]
        assert dues == sorted(dues)
        assert 0.0 <= dues[0] and dues[-1] < 20.0
        # 200/s per session over 20 s: 4000 expected, sd about 63.
        assert 3700 < len(plan) < 4300
        assert {key for _, key in plan} <= set(KEYS)


def test_fanout_publish_stream_is_seeded():
    import itertools

    import numpy as np
    from fanout import PUBLISHERS, _publishes

    def take(seed):
        # More than one batch (PUBLISH_BATCH), so a boundary is covered.
        return list(itertools.islice(_publishes(np.random.default_rng(seed)),
                                     3000))

    assert take(5) == take(5)
    assert take(5) != take(6)
    assert len({publisher for publisher, _ in take(5)}) <= PUBLISHERS
