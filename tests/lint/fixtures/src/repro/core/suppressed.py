"""Suppression-semantics fixture; tests pin these exact lines."""

import numpy as np


def allowed():
    return np.random.default_rng()  # repro: allow[det-unseeded-rng]


def misspelled():
    return np.random.default_rng()  # repro: allow[no-such-rule]


def one_of_two(total, cap, ws):
    # The allow silences only det-unseeded-rng; the divide-before-multiply
    # on the same line must still be reported.
    return np.random.default_rng().random() / total * cap  # repro: allow[det-unseeded-rng]


def not_a_comment():
    return "# repro: allow[det-unseeded-rng] inside a string is inert"
