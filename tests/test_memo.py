import gc
import threading
import time
import weakref

import numpy as np

from twistblocks.liecore import RootDatum
from twistblocks.util import memo

THREADS = 4


def run_together(fn):
    """fn() in THREADS threads released together by one barrier; their results."""
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = []

    def work(k):
        try:
            barrier.wait()
            results[k] = fn()
        except Exception as exc:    # surfaced below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def test_racing_misses_all_get_the_first_stored_value():
    computed = []

    @memo
    def slow(key):
        value = object()
        computed.append(value)
        time.sleep(0.05)    # every thread misses before the first one stores
        return value

    results = run_together(lambda: slow(7))
    assert all(r is results[0] for r in results)
    assert results[0] in computed
    assert slow.cache == {(7,): results[0]}
    assert slow(7) is results[0]


def test_shared_datum_hands_every_thread_one_object():
    rd = RootDatum("C", 3)    # a private instance: every call below starts cold
    vec, lam, mu = (2, 1, 3), (1, 0, 1), (0, 1, 0)

    def calls():
        return (rd._walk_rho(), rd.weight_system(lam), rd._tensor(lam, mu),
                rd.tensor_multiplicities(lam, mu), list(rd._orbit_chunks(vec)))

    results = run_together(calls)
    for got in results:
        for a, b in zip(got[:3], results[0][:3]):
            assert a is b

    serial = RootDatum("C", 3)
    want = list(serial._orbit_chunks(vec))
    for got in results:
        # an orbit is streamed, not cached: equal chunks, not one object
        assert len(got[4]) == len(want)
        for (orbit, signs), (want_orbit, want_signs) in zip(got[4], want):
            assert np.array_equal(orbit, want_orbit) and np.array_equal(signs, want_signs)
    assert results[0][1] == serial.weight_system(lam)
    for got in results:
        assert got[3] == serial.tensor_multiplicities(lam, mu)


def test_only_rhos_orbit_outlives_its_caller():
    rd = RootDatum("E", 6)    # a private instance; its orbits stream in 13 chunks
    walked = rd._walk_rho()
    # rho's walk is cached as its steps alone: one int32 parent per orbit row
    # but the first, and no orbit row
    parents = [p for layer in walked for _, p in layer]
    assert all(type(i) is int for layer in walked for i, _ in layer)
    assert all(p.dtype == np.int32 and p.ndim == 1 for p in parents)
    assert sum(map(len, parents)) == 51840 - 1
    # no chunk of a stream outlives its consumer, rho's included
    for vec in ((2, 1, 3, 1, 1, 2), rd.rho):
        refs = []
        for orbit, signs in rd._orbit_chunks(vec):
            refs.append(weakref.ref(orbit))
        del orbit, signs
        gc.collect()
        assert len(refs) > 1 and all(ref() is None for ref in refs)
    assert rd._walk_rho() is walked
