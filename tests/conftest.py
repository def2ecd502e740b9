"""Shared fixtures."""

import pytest

from nearcolor import solver


@pytest.fixture
def searches(monkeypatch):
    """The ``(phase, placements)`` of each search from here on, in call order.

    A ``solver._census`` call without a key is the bound phase, with
    ``solver._relabel`` as its key the witness census, and with any other
    key the census.  Every search inside ``solver._chromatic`` is the
    chromatic phase, and a ``solver._search`` call outside both is the
    witness walk.  Placements are the budget's growth over the search, also
    when it raises.
    """
    record = []
    within = []  # the phases of the calls under way, outermost first
    census, chromatic, search = solver._census, solver._chromatic, solver._search

    def in_phase(name, call, *args, **kwargs):
        within.append(name)
        try:
            return call(*args, **kwargs)
        finally:
            within.pop()

    def censusing(g, k, rule, surjective, order, bound, budget, key=None, *args):
        name = "bound phase" if key is None else "witness census" if key is solver._relabel else "census"
        return in_phase(name, census, g, k, rule, surjective, order, bound, budget, key, *args)

    def recording(g, k, rule, surjective, order, bound, leaf, budget, drop=None):
        before = budget.spent
        try:
            search(g, k, rule, surjective, order, bound, leaf, budget, drop)
        finally:
            record.append((within[0] if within else "witness walk", budget.spent - before))

    monkeypatch.setattr(solver, "_census", censusing)
    monkeypatch.setattr(solver, "_chromatic", lambda *args: in_phase("chromatic", chromatic, *args))
    monkeypatch.setattr(solver, "_search", recording)
    yield record
