"""Tests for the counted Resource primitive."""

import pytest

from repro.simnet import Resource, Simulator


def test_try_acquire_until_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    assert resource.try_acquire()
    assert resource.try_acquire()
    assert not resource.try_acquire()
    assert resource.available == 0
    resource.release()
    assert resource.available == 1 and resource.try_acquire()


def test_release_without_acquire_raises():
    resource = Resource(Simulator(), capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)
