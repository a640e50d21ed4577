"""repro — a reproduction of *Querying XML with Update Syntax*
(Fan, Cong, Bohannon; SIGMOD 2007).

Transform queries evaluate an XML update *hypothetically*: they return
the tree the update would produce, without touching the stored
document.  The front door is the prepared-statement :class:`Engine`:
parse and compile once, let one rule pick the evaluation strategy per
input, execute many times::

    from repro import Engine, parse, serialize

    engine = Engine()
    doc = parse("<db><part><price>12</price></part></db>")
    strip = engine.prepare_transform(
        'transform copy $a := doc("db") modify do delete $a//price return $a'
    )
    view = strip.run(doc)                   # strategy chosen per input
    assert "price" not in serialize(view)
    assert "price" in serialize(doc)        # the source is untouched
    print(strip.explain(doc))               # the choice and what it looked at

The rule (:func:`repro.engine.choose_strategy`): a file of 8 MiB or
more streams (``twoPassSAX``); a query whose descendant qualifiers sit
on nestable candidates takes ``twopass`` (TD-BU) on a deep document;
everything else takes ``topdown`` (GENTOP).  NAIVE, GalaXUpdate and
``sax`` over a resident tree are the paper's baselines — forceable
with ``method=``, never chosen.

The five evaluation strategies (all semantically identical), the
automaton machinery they are built on, and the Compose Method for
fusing user queries with transform queries remain exported as flat
functions — thin, stable entry points over the same machinery the
engine chooses among; each subpackage's docstring maps back to the
paper's sections.
"""

__version__ = "1.34.0"

# XML substrate
from repro.xmltree import (
    Element,
    FrozenDocument,
    Text,
    deep_copy,
    deep_equal,
    element,
    freeze,
    parse,
    parse_file,
    parse_file_to_arena,
    parse_to_arena,
    serialize,
    serialize_arena,
    text,
    thaw,
    write_file,
)

# XPath fragment X
from repro.xpath import evaluate, eval_qualifier, parse_xpath

# Automata
from repro.automata import build_filtering_nfa, build_selecting_nfa

# Updates
from repro.updates import apply_update, parse_update

# Transform queries and evaluation algorithms
from repro.transform import (
    TransformQuery,
    parse_transform_query,
    transform_copy_update,
    transform_naive,
    transform_sax,
    transform_sax_events,
    transform_sax_file,
    transform_topdown,
    transform_twopass,
)

# XQuery subset and composition
from repro.xquery import evaluate_query, parse_user_query
from repro.xquery.arena_eval import evaluate_query_arena
from repro.compose import compose, evaluate_composed, naive_compose

# Streaming extension (the paper's future-work item 3)
from repro.streaming import (
    stream_compose,
    stream_compose_file,
    stream_select,
    stream_select_file,
)

# The resident view store (documents, stacked views, commit/rollback)
from repro.store import (
    CompiledCache,
    DocumentStore,
    StoreError,
    UpdateLog,
    ViewRegistry,
    ViewStore,
)

# Telemetry: the metrics registry and query-lifecycle tracing
from repro.obs import MetricsRegistry, Tracer

# The concurrent query service (MVCC snapshot reads, single-flight, TCP)
from repro.service import (
    Client,
    QueryService,
    ServiceConfig,
    ServiceError,
    ServiceServer,
)

# The prepared-statement engine
from repro.engine import (
    Engine,
    Plan,
    PreparedComposed,
    PreparedQuery,
    PreparedStack,
    PreparedTransform,
    default_engine,
)

# Workload generator
from repro.xmark import generate as generate_xmark
from repro.xmark import write_xmark_file


def prepare_transform(text):
    """Prepare a transform query on the process-wide default engine."""
    return default_engine().prepare_transform(text)


def prepare_query(text):
    """Prepare a FLWR user query on the process-wide default engine."""
    return default_engine().prepare_query(text)


def prepare_composed(user, transform):
    """Prepare a composed (user ∘ transform) plan on the default engine."""
    return default_engine().prepare_composed(user, transform)


__all__ = [
    "Client",
    "CompiledCache",
    "DocumentStore",
    "Element",
    "Engine",
    "FrozenDocument",
    "Plan",
    "PreparedComposed",
    "PreparedQuery",
    "PreparedStack",
    "PreparedTransform",
    "default_engine",
    "prepare_composed",
    "prepare_query",
    "prepare_transform",
    "MetricsRegistry",
    "QueryService",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "StoreError",
    "Text",
    "Tracer",
    "TransformQuery",
    "UpdateLog",
    "ViewRegistry",
    "ViewStore",
    "apply_update",
    "build_filtering_nfa",
    "build_selecting_nfa",
    "compose",
    "deep_copy",
    "deep_equal",
    "element",
    "eval_qualifier",
    "evaluate",
    "evaluate_composed",
    "evaluate_query",
    "evaluate_query_arena",
    "freeze",
    "generate_xmark",
    "naive_compose",
    "parse",
    "parse_file",
    "parse_file_to_arena",
    "parse_to_arena",
    "parse_transform_query",
    "parse_update",
    "parse_user_query",
    "parse_xpath",
    "serialize",
    "serialize_arena",
    "stream_compose",
    "stream_compose_file",
    "stream_select",
    "stream_select_file",
    "text",
    "thaw",
    "transform_copy_update",
    "transform_naive",
    "transform_sax",
    "transform_sax_events",
    "transform_sax_file",
    "transform_topdown",
    "transform_twopass",
    "write_file",
    "write_xmark_file",
]
