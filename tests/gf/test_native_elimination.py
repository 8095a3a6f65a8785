"""The compiled elimination steps against their numpy bodies.

A table field's or the tower's screening (``is_invertible``) and the
decoder's arrival step (``arrival_step``) run in ``_gfmul.c`` when the
library is live.
Here both backends see the same inputs and must agree verdict for
verdict, pivot for pivot and bit for bit.  The decoder-level comparison
(every offer of a stream, both backends) is
``tests/rlnc/test_native_arrival.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.gf import GF, bitmatmul, is_invertible, linalg, random_invertible
from repro.obs import observability

KERNEL = bitmatmul.load()
needs_native = pytest.mark.skipif(KERNEL is None, reason="native GF kernel not live")
FIELDS = {p: GF(p) for p in (4, 8, 16, 32)}
SIZES = (1, 2, 16, 64, 130)


def _random(field, shape, rng):
    """Random elements; for the tower three in eight of them with a zero
    or a repeated half, the edge cases of its product and norm map."""
    x = field.random(shape, rng)
    if field.p == 32:
        kind = rng.integers(8, size=x.shape)
        x[kind == 0] &= np.uint32(0xFFFF)
        x[kind == 1] &= np.uint32(0xFFFF0000)
        x[kind == 2] = (x[kind == 2] >> np.uint32(16)) * np.uint32(0x10001)
    return x


def _screen_stack(field, k, count, planted, seed):
    """``count`` random ``(k, k)`` blocks; the ``planted`` positions made
    singular by a repeated row, a zero column or a row in the span of
    the others, in turn (at k = 1, by a zero)."""
    rng = np.random.default_rng(seed)
    stack = _random(field, (count, k, k), rng)
    for n, pos in enumerate(sorted(planted) if count else ()):
        block = stack[pos % count]
        kind = n % 3 if k > 1 else 1
        if kind == 0:
            block[-1] = block[0]
        elif kind == 1:
            block[:, int(rng.integers(k))] = 0
        else:
            block[-1] = field.combine(_random(field, k - 1, rng), block[:-1])
    return stack


@given(
    p=st.sampled_from(sorted(FIELDS)),
    k=st.sampled_from(SIZES),
    count=st.integers(0, 5),
    planted=st.sets(st.integers(0, 9), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_screening_verdicts_agree(every_backend, p, k, count, planted, seed):
    field = FIELDS[p]
    stack = _screen_stack(field, k, count, planted, seed)
    before = stack.copy()
    verdicts = every_backend(lambda: is_invertible(field, stack).tolist())
    assert len(set(map(tuple, verdicts.values()))) == 1, verdicts
    assert np.array_equal(stack, before)  # the caller's stack is never reduced
    for pos in planted if count else ():
        assert verdicts["numpy"][pos % count] is False


@pytest.mark.parametrize("p", sorted(FIELDS))
def test_screening_full_rank_blocks(backend, p):
    field = FIELDS[p]
    rng = np.random.default_rng(p)
    for k in SIZES:
        stack = np.stack([random_invertible(field, k, rng) for _ in range(3)])
        stack[1, [0, k - 1]] = stack[1, [k - 1, 0]]  # a row swap keeps the rank
        assert is_invertible(field, stack).tolist() == [True] * 3


def _arrivals(field, k, seed):
    """Coefficient rows as a decoder's work row receives them: fresh
    rows, repeats, combinations of earlier rows and zero rows, until
    rank ``k`` is certain to be reached."""
    rng = np.random.default_rng(seed)
    sent = []
    for turn in range(3 * k + 8):
        kind = int(rng.integers(4)) if turn < 2 * k else 0
        if kind == 1 and sent:
            yield sent[int(rng.integers(len(sent)))]
        elif kind == 2 and sent:
            yield field.combine(_random(field, len(sent), rng), np.stack(sent))
        elif kind == 3:
            yield field.zeros(k)
        else:
            sent.append(_random(field, k, rng))
            yield sent[-1]


@given(p=st.sampled_from(sorted(FIELDS)), k=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
@needs_native
def test_arrival_steps_agree(every_backend, p, k, seed):
    """Both steps on one stream: same pivot or -1, same matrix after
    every arrival — the kept rows, and the work row's ``t`` part the
    residual check reads."""
    field = FIELDS[p]
    binders = every_backend(lambda: linalg.arrival_step(field))
    mats = [np.zeros((k, 2 * k), dtype=np.uint32) for _ in range(2)]
    pivots = [np.zeros(k, dtype=np.intp) for _ in range(2)]
    steps = [binders[name](mat, piv) for name, mat, piv in zip(("numpy", "native"), mats, pivots)]
    assert steps[0].func is linalg.eliminate_arrival
    rank = 0
    for coeffs in _arrivals(field, k, seed):
        if rank == k:
            break
        results = []
        for step, mat in zip(steps, mats):
            mat[rank, :k], mat[rank, k:] = coeffs, 0
            results.append(step(rank))
        assert results[0] == results[1]
        assert mats[0].tobytes() == mats[1].tobytes()
        if results[0] >= 0:
            for piv in pivots:
                piv[rank] = results[0]
            rank += 1
    assert rank == k
    # the kept e parts are the identity in pivot order
    e = mats[0][:, :k]
    assert np.array_equal(e[np.arange(k), pivots[0]], np.ones(k, dtype=np.uint32))
    assert np.count_nonzero(e) == k


def test_non_square_stacks_are_all_false(backend):
    field = FIELDS[8]
    assert is_invertible(field, field.zeros((3, 4))) is False
    for shape in ((3, 2, 4), (2, 3, 4, 2), (0, 2, 3)):
        verdicts = is_invertible(field, field.ones(shape))
        assert verdicts.dtype == bool and verdicts.shape == shape[:-2]
        assert not verdicts.any()
    assert is_invertible(field, field.ones(4)) is False


def test_clmul_stays_in_numpy_and_tower_is_compiled():
    """The C steps read a table field's tables: the table fields' own, or
    the tower's base's.  A clmul field has none."""
    for p in (8, 32):
        field = GF(p, impl="clmul")
        assert linalg._compiled(field) is None
        step = linalg.arrival_step(field)(field.zeros((4, 8)), np.zeros(4, dtype=np.intp))
        assert step.func is linalg.eliminate_arrival
    assert linalg._compiled(GF(32)) is KERNEL
    logz, expz, c = linalg._tables(GF(32))
    assert logz is GF(32).base._logz and expz is GF(32).base._expz and c == GF(32).c


@needs_native
class TestCompiledFacade:
    def test_counter_says_which_kernel_ran(self, monkeypatch):
        for field in (FIELDS[16], FIELDS[32]):
            stack = field.random((2, 5, 5), np.random.default_rng(3))
            with observability(reset=True) as obs:
                with monkeypatch.context() as patch:
                    patch.setitem(native._LOADED, "gfmul", (None, "numpy forced by the test suite"))
                    is_invertible(field, stack)
                    linalg.arrival_step(field)(field.ones((2, 4)), np.zeros(2, dtype=np.intp))(0)
                assert obs.snapshot()["repro.gf.eliminate.native"]["value"] == 0
                is_invertible(field, stack)
                mat, piv = field.zeros((2, 4)), np.zeros(2, dtype=np.intp)
                mat[0, :2] = [3, 1]
                assert linalg.arrival_step(field)(mat, piv)(0) == 0
                assert obs.snapshot()["repro.gf.eliminate.native"]["value"] == 2

    def test_facade_rejects_what_it_cannot_pass_to_c(self):
        field = FIELDS[8]
        logz, expz = field._logz, field._expz
        blocks = field.zeros((2, 3, 3))
        with pytest.raises(ValueError):  # not square
            KERNEL.full_rank(field.zeros((2, 3, 4)), logz, expz)
        with pytest.raises(ValueError):  # not uint32
            KERNEL.full_rank(blocks.astype(np.int64), logz, expz)
        with pytest.raises(ValueError):  # another field's antilog table
            KERNEL.full_rank(blocks, logz, FIELDS[4]._expz)
        with pytest.raises(ValueError):  # logs as uint32, a copy away from intp
            KERNEL.full_rank(blocks, field._log, expz)
        mat, piv = field.zeros((3, 6)), np.zeros(3, dtype=np.intp)
        for bad in (
            (field.zeros((3, 5)), piv),  # not (k, 2k)
            (mat, piv.astype(np.int32)),  # pivots not intp
            (mat, np.zeros(4, dtype=np.intp)),  # pivots not k long
            (np.zeros((3, 12), dtype=np.uint32)[:, ::2], piv),  # strided
        ):
            with pytest.raises(ValueError):
                KERNEL.arrival_step(logz, expz, *bad)
        step = KERNEL.arrival_step(logz, expz, mat, piv)
        for rank in (-1, 3):  # no work row there
            with pytest.raises(ValueError):
                step(rank)
        base = FIELDS[32].base
        for tables, c in (
            ((logz, expz), 3),  # a tower over GF(2^8)
            ((base._logz, base._expz), 1 << 16),  # c outside GF(2^16)
            ((base._logz, base._expz), -1),
        ):
            with pytest.raises(ValueError):
                KERNEL.full_rank(blocks, *tables, c)
            with pytest.raises(ValueError):
                KERNEL.arrival_step(*tables, mat, piv, c)


@needs_native
class TestOneBitOff:
    """A library whose elimination is wrong anywhere never goes live;
    the matmul half being right does not save it."""

    @pytest.fixture
    def unresolved(self, monkeypatch):
        monkeypatch.delitem(native._LOADED, "gfmul", raising=False)

    def test_one_flipped_verdict_is_refused(self, monkeypatch, unresolved):
        class OneVerdictOff(bitmatmul.GF2Kernel):
            def full_rank(self, blocks, logz, expz, c=0):
                full = super().full_rank(blocks, logz, expz, c)
                full[-1] ^= True
                return full

        monkeypatch.setattr(bitmatmul, "GF2Kernel", OneVerdictOff)
        assert bitmatmul.load() is None
        assert native.status()["gfmul"] == "self-check failed"
        field = FIELDS[8]
        assert is_invertible(field, field.zeros((2, 3, 3))).tolist() == [False, False]

    def test_one_flipped_bit_in_an_arrival_is_refused(self, monkeypatch, unresolved):
        class OneBitOff(bitmatmul.GF2Kernel):
            def arrival_step(self, logz, expz, reduced, pivots, c=0):
                step = super().arrival_step(logz, expz, reduced, pivots, c)

                def off(rank):
                    pivot = step(rank)
                    reduced[rank, -1] ^= 1
                    return pivot

                return off

        monkeypatch.setattr(bitmatmul, "GF2Kernel", OneBitOff)
        assert bitmatmul.load() is None
        assert native.status()["gfmul"] == "self-check failed"
        step = linalg.arrival_step(FIELDS[8])(FIELDS[8].zeros((4, 8)), np.zeros(4, dtype=np.intp))
        assert step.func is linalg.eliminate_arrival

    def test_one_flipped_bit_in_a_tower_arrival_is_refused(self, monkeypatch, unresolved):
        """Right at every table field, one high-half bit off at p = 32."""

        class TowerBitOff(bitmatmul.GF2Kernel):
            def arrival_step(self, logz, expz, reduced, pivots, c=0):
                step = super().arrival_step(logz, expz, reduced, pivots, c)
                if not c:
                    return step

                def off(rank):
                    pivot = step(rank)
                    reduced[rank, -1] ^= 1 << 16
                    return pivot

                return off

        monkeypatch.setattr(bitmatmul, "GF2Kernel", TowerBitOff)
        assert bitmatmul.load() is None
        assert native.status()["gfmul"] == "self-check failed"
        field = FIELDS[32]
        step = linalg.arrival_step(field)(field.zeros((4, 8)), np.zeros(4, dtype=np.intp))
        assert step.func is linalg.eliminate_arrival
