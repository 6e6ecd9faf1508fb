import math
import threading

from perfbench.calibrate import NOMINAL_S, Reference, at_reference_speed, speed
from perfbench.stats import median


def test_speed_scales_by_the_median_kernel_time():
    assert math.isclose(speed([NOMINAL_S] * 3), 1.0)
    # A host twice as slow: each measured second is worth half a
    # reference-speed second.
    assert math.isclose(speed([NOMINAL_S, 2 * NOMINAL_S, 3 * NOMINAL_S]), 0.5)


def test_each_unit_is_scaled_by_its_own_kernel_runs():
    groups = [[NOMINAL_S], [2 * NOMINAL_S, 2 * NOMINAL_S], [NOMINAL_S / 2]]
    scaled = at_reference_speed([1.0, 1.0, 1.0], groups)
    assert [round(s, 12) for s in scaled] == [1.0, 0.5, 2.0]


def test_measure_keeps_every_timing():
    reference = Reference()
    taken = reference.measure(2)
    reference.measure()
    assert len(taken) == 2 and all(t > 0 for t in taken)
    assert reference.samples[:2] == taken and len(reference.samples) == 3
    assert [len(group) for group in reference.groups] == [2, 1]
    assert len(reference.foreign_cpu) == 3


def test_a_busy_thread_shows_as_foreign_cpu():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    quiet = Reference()
    quiet.measure(3)
    busy = Reference()
    thread = threading.Thread(target=spin)
    thread.start()
    try:
        busy.measure(3)
    finally:
        stop.set()
        thread.join()
    assert median(quiet.foreign_cpu) < median(busy.foreign_cpu)
