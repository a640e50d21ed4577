"""Fully streaming ``Q(T)`` and ``Q(Qt(T))`` — user queries and
composition over the two-pass SAX algorithm (the paper's future-work
item).

:func:`stream_query` runs the user path through
:func:`~repro.streaming.select.stream_select` and evaluates the
query's ``where``/``return`` clauses per matched subtree — each small,
so peak memory stays bounded by document depth plus the largest single
match.  :func:`stream_compose` feeds it the view, in three stages:

1. pass 1 of ``twoPassSAX`` computes the transform's ``Ld`` list;
2. pass 2 is *re-run as a factory*: it deterministically re-produces
   the transformed document's event stream on demand (the transformed
   document itself never exists in memory or on disk);
3. :func:`stream_query` runs on that stream (its selector's two passes
   re-invoke stage 2).

The source is consumed three times in total (once for the transform's
``Ld``, twice for the selector's passes); each consumption is a fresh
streaming scan.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.automata.filtering import build_filtering_nfa
from repro.automata.selecting import build_selecting_nfa
from repro.streaming.select import EventSource, stream_select
from repro.transform.query import TransformQuery
from repro.transform.sax_twopass import pass1_collect_ld, pass2_transform
from repro.xmltree.sax import SAXEvent
from repro.xpath.ast import Path
from repro.xquery.ast import UserQuery
from repro.xquery.evaluator import Environment, eval_expr


def stream_query(source: EventSource, user_query: UserQuery) -> Iterator:
    """Stream the answer of ``Q(T)`` item by item.  A final ``@a`` step
    binds the selected elements' ``a`` attributes.  The path's automata
    are compiled at the call: a path they cannot compile raises before
    *source* is read."""
    steps = user_query.path.steps
    attr = steps[-1].name if steps and steps[-1].kind == "attr" else None
    path = Path(steps[:-1]) if attr is not None else user_query.path
    selecting, filtering = build_selecting_nfa(path), build_filtering_nfa(path)
    body = user_query.core().body  # the where clause around the template

    def answer() -> Iterator:
        for match in stream_select(source, path, selecting, filtering):
            if attr is None or attr in match.attrs:
                item = match if attr is None else match.attrs[attr]
                yield from eval_expr(body, Environment({user_query.var: [item]}), item)

    return answer()


def stream_compose(
    source: EventSource,
    user_query: UserQuery,
    transform_query: TransformQuery,
) -> Iterator:
    """Stream the answer of ``Q(Qt(T))`` item by item."""
    transform_selecting = build_selecting_nfa(transform_query.path)
    transform_filtering = build_filtering_nfa(transform_query.path)

    def transformed_events() -> Iterable[SAXEvent]:
        return pass2_transform(
            source(), transform_selecting, transform_query, transform_ld
        )

    # The user path's automata first: one they cannot compile is
    # refused before the Ld pass reads the whole source.
    answer = stream_query(transformed_events, user_query)
    transform_ld = pass1_collect_ld(source(), transform_filtering)
    yield from answer
