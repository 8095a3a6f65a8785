"""Unit tests for FaultPlan / PeerFault parsing and derivations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpecError, PeerFault

SPEC = "seed=7;0:pollute;1:crash@1500;2:stall@10+6;3:refuse;4:corrupt@0.3"


class TestPeerFault:
    def test_kinds_are_validated(self):
        with pytest.raises(FaultSpecError):
            PeerFault("meltdown")
        for kind in FAULT_KINDS:
            PeerFault(kind)  # all documented kinds construct

    def test_parameter_validation(self):
        with pytest.raises(FaultSpecError):
            PeerFault("crash", at_byte=-1)
        for never_fires in (float("nan"), float("inf")):
            with pytest.raises(FaultSpecError):
                PeerFault("crash", at_byte=never_fires)
        with pytest.raises(FaultSpecError):
            PeerFault("stall", at_slot=-1)
        with pytest.raises(FaultSpecError):
            PeerFault("stall", duration=0)
        with pytest.raises(FaultSpecError):
            PeerFault("pollute", rate=0.0)
        with pytest.raises(FaultSpecError):
            PeerFault("corrupt", rate=1.5)


class TestParse:
    def test_full_spec(self):
        plan = FaultPlan.parse(SPEC)
        assert plan.seed == 7
        assert plan.peers == (0, 1, 2, 3, 4)
        assert plan.faults_for(0) == (PeerFault("pollute"),)
        assert plan.faults_for(1) == (PeerFault("crash", at_byte=1500),)
        assert plan.faults_for(2) == (PeerFault("stall", at_slot=10, duration=6),)
        assert plan.faults_for(3) == (PeerFault("refuse"),)
        assert plan.faults_for(4) == (PeerFault("corrupt", rate=0.3),)
        assert plan.faults_for(99) == ()

    def test_round_trip(self):
        plan = FaultPlan.parse(SPEC)
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_multiple_faults_per_peer(self):
        plan = FaultPlan.parse("0:pollute@0.5;0:crash@2000")
        assert len(plan.faults_for(0)) == 2

    def test_later_seed_entry_wins(self):
        # The CLI prepends its own seed; an explicit seed= in the user's
        # spec must override it.
        assert FaultPlan.parse("seed=1;seed=9;0:refuse").seed == 9

    def test_empty_spec_is_empty_plan(self):
        plan = FaultPlan.parse("")
        assert plan.peers == ()
        assert len(plan) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",
            "x:refuse",
            "-1:refuse",
            "0:meltdown",
            "0:crash@abc",
            "0:crash@nan",
            "0:crash@inf",
            "0:crash@1e999",
            "0:pollute@nan",
            "0:stall@x+y",
            "0:refuse@1",
            "seed=abc;0:refuse",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)


# Spec-shaped text: entries built from the characters and tokens a spec is
# written in, loose enough to be wrong in every position and close enough
# that a good share parses (plain token soup never gets past the first split).
_NUMBER = st.one_of(
    st.integers(-2, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "inf", "1e999", ".9999999", "1e-320", "-0"]),
)
_SOUP = st.lists(st.sampled_from([*"0123456789:;@+.=-e", *FAULT_KINDS]), max_size=6).map("".join)
_ARG = st.one_of(
    _NUMBER,
    st.tuples(_NUMBER, _NUMBER).map("+".join),
    _SOUP,
)
_ENTRY = st.one_of(
    st.tuples(_NUMBER, st.sampled_from(FAULT_KINDS)).map(":".join),
    st.tuples(_NUMBER, st.sampled_from(FAULT_KINDS), _ARG).map(lambda t: f"{t[0]}:{t[1]}@{t[2]}"),
    _NUMBER.map("seed=".__add__),
    _SOUP,
)
_SPEC_TEXT = st.lists(_ENTRY, max_size=3).map(";".join)


class TestParseFuzz:
    """``parse`` reads operator- and file-supplied text: it either returns
    a plan whose spec form is stable, or raises ``FaultSpecError``."""

    @staticmethod
    def _check(spec):
        try:
            plan = FaultPlan.parse(spec)
        except FaultSpecError:
            return
        canonical = plan.to_spec()
        assert FaultPlan.parse(canonical).to_spec() == canonical
        for peer in plan.peers:
            for fault in plan.faults_for(peer):
                assert math.isfinite(fault.at_byte)  # a planned crash can fire

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=64))
    def test_arbitrary_text(self, spec):
        self._check(spec)

    @settings(max_examples=600, deadline=None)
    @given(_SPEC_TEXT)
    def test_spec_shaped_text(self, spec):
        self._check(spec)

    def test_rate_that_prints_as_one_round_trips(self):
        spec = FaultPlan.parse("0:pollute@.9999999").to_spec()
        assert FaultPlan.parse(spec).to_spec() == spec == "seed=0;0:pollute"


class TestDeterminism:
    def test_rng_depends_on_seed_and_peer(self):
        plan = FaultPlan(seed=3)
        a = plan.rng_for(0).integers(0, 1 << 30, size=8)
        b = plan.rng_for(0).integers(0, 1 << 30, size=8)
        c = plan.rng_for(1).integers(0, 1 << 30, size=8)
        d = FaultPlan(seed=4).rng_for(0).integers(0, 1 << 30, size=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestCapacityProfile:
    def test_refuse_is_never_online(self):
        plan = FaultPlan(seed=0, faults={0: PeerFault("refuse")})
        assert plan.capacity_profile(0, 512.0, 100) == [(0, 0.0)]

    def test_crash_goes_dark_for_good(self):
        # 512 kbps = 64000 B/slot; crash at byte 128000 -> offline from slot 2.
        plan = FaultPlan(seed=0, faults={0: PeerFault("crash", at_byte=128_000)})
        assert plan.capacity_profile(0, 512.0, 100) == [(0, 512.0), (2, 0.0)]

    def test_stall_is_a_temporary_outage(self):
        plan = FaultPlan(
            seed=0, faults={0: PeerFault("stall", at_slot=10, duration=5)}
        )
        assert plan.capacity_profile(0, 512.0, 100) == [
            (0, 512.0),
            (10, 0.0),
            (15, 512.0),
        ]

    def test_pollute_leaves_capacity_unchanged(self):
        plan = FaultPlan(seed=0, faults={0: PeerFault("pollute")})
        assert plan.capacity_profile(0, 512.0, 100) is None

    def test_overlapping_windows_merge(self):
        plan = FaultPlan(
            seed=0,
            faults={
                0: [
                    PeerFault("stall", at_slot=10, duration=10),
                    PeerFault("stall", at_slot=15, duration=10),
                ]
            },
        )
        assert plan.capacity_profile(0, 512.0, 100) == [
            (0, 512.0),
            (10, 0.0),
            (25, 512.0),
        ]

    def test_invalid_kbps(self):
        plan = FaultPlan(seed=0, faults={0: PeerFault("refuse")})
        with pytest.raises(FaultSpecError):
            plan.capacity_profile(0, 0.0, 100)


class TestWrap:
    def test_only_faulty_indices_are_wrapped(self):
        from repro.faults import FaultyServingSession

        plan = FaultPlan.parse("1:refuse")
        sessions = [object(), object(), object()]
        wrapped = plan.wrap(sessions)
        assert wrapped[0] is sessions[0]
        assert wrapped[2] is sessions[2]
        assert isinstance(wrapped[1], FaultyServingSession)
        assert wrapped[1].peer == 1


class TestChurnKinds:
    def test_parse_and_round_trip(self):
        plan = FaultPlan.parse("seed=3;0:depart@5;1:rejoin@9;2:churn@4+6")
        assert plan.faults_for(0) == (PeerFault("depart", at_slot=5),)
        assert plan.faults_for(1) == (PeerFault("rejoin", at_slot=9),)
        assert plan.faults_for(2) == (PeerFault("churn", at_slot=4, duration=6),)
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_spec_strings(self):
        assert PeerFault("depart", at_slot=5).to_entry(0) == "0:depart@5"
        assert PeerFault("rejoin", at_slot=9).to_entry(1) == "1:rejoin@9"
        assert PeerFault("churn", at_slot=4, duration=6).to_entry(2) == "2:churn@4+6"

    def test_churn_duration_defaults_to_one_slot(self):
        assert FaultPlan.parse("0:churn@4").faults_for(0) == (
            PeerFault("churn", at_slot=4, duration=1),
        )

    @pytest.mark.parametrize(
        "bad",
        ["0:depart@-1", "0:rejoin@x", "0:churn@4+0", "0:depart@1+2"],
    )
    def test_malformed_churn_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_validation(self):
        with pytest.raises(FaultSpecError):
            PeerFault("depart", at_slot=-1)
        with pytest.raises(FaultSpecError):
            PeerFault("churn", at_slot=-1, duration=3)
        with pytest.raises(FaultSpecError):
            PeerFault("churn", at_slot=0, duration=0)

    def test_capacity_profiles(self):
        depart = FaultPlan(seed=0, faults={0: PeerFault("depart", at_slot=5)})
        assert depart.capacity_profile(0, 512.0, 100) == [(0, 512.0), (5, 0.0)]
        rejoin = FaultPlan(seed=0, faults={0: PeerFault("rejoin", at_slot=9)})
        assert rejoin.capacity_profile(0, 512.0, 100) == [(0, 0.0), (9, 512.0)]
        churn = FaultPlan(
            seed=0, faults={0: PeerFault("churn", at_slot=4, duration=6)}
        )
        assert churn.capacity_profile(0, 512.0, 100) == [
            (0, 512.0),
            (4, 0.0),
            (10, 512.0),
        ]


class TestHashing:
    def test_equal_plans_hash_equal(self):
        # Regression: defining __eq__ used to suppress __hash__, making
        # plans unusable as dict keys / set members.
        a = FaultPlan.parse(SPEC)
        b = FaultPlan.parse(SPEC)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "x"}[b] == "x"

    def test_distinct_plans_usually_hash_apart(self):
        a = FaultPlan.parse("seed=1;0:refuse")
        b = FaultPlan.parse("seed=2;0:refuse")
        c = FaultPlan.parse("seed=1;1:refuse")
        assert len({a, b, c}) == 3
