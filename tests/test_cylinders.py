"""Cylinder membership, nesting chains, and the similarity identities."""

import pytest

from shiftchaos import (
    FiniteWord,
    future_cylinder,
    nesting_check,
    past_cylinder,
    periodic_point,
    similarity_identity_check,
    two_sided_cylinder,
    whole_space,
    window_padded,
)
from shiftchaos.cylinders import CylinderSet


def test_window_classification():
    assert whole_space().is_whole
    assert future_cylinder((1, 2)).is_future
    past = past_cylinder((2, 1))
    assert past.is_past and past.start == -1 and past.end == 0
    two = two_sided_cylinder((1, 2, 1), -1)
    assert two.is_two_sided and two.start == -1 and two.end == 1


def test_two_sided_requires_straddling_window():
    with pytest.raises(ValueError):
        two_sided_cylinder((1, 2), 1)
    with pytest.raises(ValueError):
        two_sided_cylinder((1, 2), -5)


def test_membership():
    c = future_cylinder((1, 2))
    assert c.contains(window_padded((1, 2), 1, 1))
    assert c.contains(periodic_point((1, 2)))
    assert not c.contains(periodic_point((2, 1)))
    assert whole_space().contains(periodic_point((2,)))


def test_entailment_of_extensions():
    assert future_cylinder((1, 2, 1)).entails(future_cylinder((1, 2)))
    assert past_cylinder((2, 1, 1)).entails(past_cylinder((1, 1)))
    assert not future_cylinder((1,)).entails(future_cylinder((1, 2)))


def test_entailment_negative_control_mismatched_prefix():
    corrupted = future_cylinder((2, 2))
    assert not corrupted.entails(future_cylinder((1,)))


def test_nesting_chains():
    assert nesting_check(2, 4)
    assert nesting_check(3, 3)


def test_similarity_future_cylinder():
    assert similarity_identity_check(future_cylinder((1,)), 2, 3)


def test_similarity_whole_space_is_trivial():
    assert similarity_identity_check(whole_space(), 2, 0)


def test_similarity_past_cylinder():
    assert similarity_identity_check(past_cylinder((2,)), 2, 3)


def test_similarity_rejects_two_sided_windows():
    with pytest.raises(ValueError):
        similarity_identity_check(two_sided_cylinder((1, 1), 0), 2, 4)


def test_similarity_rejects_shallow_depth():
    with pytest.raises(ValueError):
        similarity_identity_check(future_cylinder((1, 2)), 2, 1)


def test_similarity_all_short_cylinders_both_directions():
    from shiftchaos.cylinders import all_words

    for length in (1, 2, 3):
        for w in all_words(2, length):
            assert similarity_identity_check(future_cylinder(w), 2, 6)
            assert similarity_identity_check(past_cylinder(w), 2, 6)


def test_general_windows_are_representable():
    c = CylinderSet(FiniteWord((1, 2)), 3)
    assert not (c.is_future or c.is_past or c.is_two_sided or c.is_whole)
    assert c.contains(window_padded((1, 2), 3, 1))


@pytest.mark.parametrize(
    "fixed, start, seq, inside",
    [
        ((1, 2), 1, window_padded((1, 2)), True),
        ((1, 2), 1, window_padded((1, 300)), False),
        ((1, 300), 1, window_padded((1, 300)), True),
        ((1, 300), 1, window_padded((1, 2)), False),
        ((1, 2), 1, window_padded((1, 2, 300)), True),  # a tuple span below 255
        ((300,), 0, window_padded((300, 1), 0), True),
        ((2, 2), 1, periodic_point((2, 300)), False),
    ],
)
def test_membership_on_both_sides_of_255(fixed, start, seq, inside):
    assert CylinderSet(fixed, start).contains(seq) is inside


def test_entailment_on_both_sides_of_255():
    wide = future_cylinder((300, 1, 2))
    assert wide.entails(future_cylinder((300,))) and wide.entails(future_cylinder((300, 1)))
    assert wide.entails(CylinderSet((1, 2), 2))  # a byte word inside a tuple word
    assert not wide.entails(CylinderSet((1, 3), 2))
    assert not future_cylinder((1, 2)).entails(future_cylinder((1, 300)))
    assert not CylinderSet((1, 2), 2).entails(wide)
    assert similarity_identity_check(future_cylinder((300,)), 2, 3)
    assert similarity_identity_check(past_cylinder((300, 1)), 2, 4)
