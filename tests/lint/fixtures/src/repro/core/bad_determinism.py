"""Planted determinism violations; tests pin these exact lines."""

import os
import random
import time

import numpy as np


def wallclock():
    return time.time()  # line 11: det-wallclock


def entropy():
    return os.urandom(8)  # line 15: det-urandom


def unseeded():
    return np.random.default_rng()  # line 19: det-unseeded-rng


def legacy_global():
    return np.random.random()  # line 23: det-unseeded-rng


def stdlib_draw():
    return random.random()


def other_clocks():
    import datetime

    return (
        time.monotonic(),  # line 34: det-wallclock
        time.monotonic_ns(),  # line 35: det-wallclock
        time.clock_gettime(time.CLOCK_MONOTONIC),  # line 36: det-wallclock
        time.process_time(),  # line 37: det-wallclock
        datetime.datetime.now(),  # line 38: det-wallclock
        datetime.datetime.utcnow(),  # line 39: det-wallclock
        time.perf_counter(),  # line 40: allowed (obs timers)
    )
