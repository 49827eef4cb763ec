"""The orchestrator's former memo policy, kept only as a test oracle.

:class:`NoCutMemoOrchestrator` never stores or serves an answer that a
premise-cycle cut weakened: such a query is evaluated afresh on every
ask.  The cut memo of :class:`repro.core.Orchestrator` must give the
same answers with fewer module evaluations.
"""

from repro.core import Orchestrator


class _CutFreeOnly(dict):
    """A memo that drops every cut-tainted entry it is given."""

    def __setitem__(self, key, entry):
        if entry.cuts is None:
            super().__setitem__(key, entry)


class NoCutMemoOrchestrator(Orchestrator):
    """An :class:`Orchestrator` that memoizes cut-free answers only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._memo = _CutFreeOnly()
