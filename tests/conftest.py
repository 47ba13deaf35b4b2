"""Shared fixtures."""

import pytest


@pytest.fixture
def force_strategy(monkeypatch):
    """force_strategy(True) makes `solve_order` solve every order with one
    joint system, force_strategy(False) with the flat system of each
    power-chain combination; a capped power still forces the joint solve."""
    import helixpq.engine as eng

    def force(joint):
        monkeypatch.setattr(eng, "_prefer_joint", lambda *counts: joint)

    return force
