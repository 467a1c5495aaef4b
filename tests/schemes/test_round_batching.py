"""Every scheme sends each (file, round) of its plan as one PIR retrieval.

A round's real pages and its dummies go to the PIR layer in one
``retrieve_pages`` call, so the servers answer one batch of subset masks
per (file, round) instead of one mask per page.  The pages a query fetches
are unchanged: they still match the plan page for page.
"""

import pytest

from repro.engine import QueryEngine
from repro.pir import UsablePirSimulator, numpy_available

SCHEMES = ["ci_scheme", "pi_scheme", "hybrid_scheme", "landmark_scheme", "arcflag_scheme"]


@pytest.fixture(params=SCHEMES)
def scheme(request):
    return request.getfixturevalue(request.param)


def plan_retrievals(plan):
    """``(round, file, pages)`` of every fetch in the plan, in plan order."""
    return [
        (round_number, file_name, count)
        for round_number, round_spec in enumerate(plan.rounds, start=1)
        for file_name, count in round_spec.fetches
    ]


@pytest.fixture()
def retrievals(monkeypatch):
    """Record ``(round, file, pages)`` for every retrieval the client issues."""
    calls = []
    retrieve_pages = UsablePirSimulator.retrieve_pages
    retrieve_page = UsablePirSimulator.retrieve_page

    def counting_pages(self, file_name, page_numbers, trace=None):
        page_numbers = list(page_numbers)
        calls.append((trace.current_round, file_name, len(page_numbers)))
        return retrieve_pages(self, file_name, page_numbers, trace)

    def counting_page(self, file_name, page_number, trace=None):
        calls.append((trace.current_round, file_name, 1))
        return retrieve_page(self, file_name, page_number, trace)

    monkeypatch.setattr(UsablePirSimulator, "retrieve_pages", counting_pages)
    monkeypatch.setattr(UsablePirSimulator, "retrieve_page", counting_page)
    return calls


def test_one_retrieval_per_file_and_round(scheme, query_pairs, retrievals):
    expected = plan_retrievals(scheme.plan)
    engine = QueryEngine(scheme)
    for source, target in query_pairs:
        retrievals.clear()
        result = engine.execute(source, target)
        assert retrievals == expected, scheme.name
        assert result.total_pir_pages == scheme.plan.total_pir_pages()


@pytest.mark.skipif(not numpy_available(), reason="the packed kernel needs numpy")
def test_two_kernel_calls_per_file_and_round(scheme, query_pairs, monkeypatch):
    from repro.pir.kernels import PackedDatabase

    masks_per_call = []
    answer_rows = PackedDatabase.answer_rows

    def counting(self, masks, *args, **kwargs):
        masks_per_call.append(len(masks))
        return answer_rows(self, masks, *args, **kwargs)

    monkeypatch.setattr(PackedDatabase, "answer_rows", counting)
    expected = plan_retrievals(scheme.plan)
    engine = QueryEngine(scheme)
    assert engine.pir_kernel == "numpy"
    for source, target in query_pairs:
        masks_per_call.clear()
        engine.execute(source, target)
        # the A and B servers each answer the round's whole batch at once
        assert masks_per_call == [
            count for _, _, count in expected for _server in ("a", "b")
        ], scheme.name
