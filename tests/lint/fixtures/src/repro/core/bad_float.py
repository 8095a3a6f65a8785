"""Planted float-safety violations; tests pin these exact lines."""

import numpy as np


def share(weights, total, capacity):
    return weights / total * capacity  # line 7: float-div-before-mul


def make_ledger(n):
    return np.zeros((n, n))  # line 11: dense, but sim-dense-alloc is scoped to sim/


def fine_forms(weights, total, capacity):
    safe = weights * capacity / total
    ratio = capacity * (weights / total)
    unit = capacity / 8.0 * total
    return safe, ratio, unit
