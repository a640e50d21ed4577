"""``repro.engine`` — the prepared-statement query engine.

The rest of the package exposes evaluation *mechanisms* (five transform
strategies, the Compose Method, a streaming path); this subpackage is
the *engine* that owns them: a facade that parses and compiles a query
exactly once, one rule that picks the strategy per input, and prepared
objects that execute many times::

    from repro import Engine

    engine = Engine()
    strip = engine.prepare_transform(
        'transform copy $a := doc("db") modify do delete $a//price return $a'
    )
    view = strip.run(doc)                  # chooses, then executes
    print(strip.explain(doc))              # the choice, and what it looked at
    redact = strip.then(engine.prepare_transform(
        'transform copy $a := doc("db") modify do rename $a//sname as vendor return $a'
    ))
    view2 = redact.run(doc)                # stacked transforms, chosen per stage

How a strategy is chosen (:func:`choose_strategy`, the whole of it):

1. a file of ``STREAM_THRESHOLD_BYTES`` (8 MiB) or more → ``stream``;
2. a query whose shape *nests* (a descendant step inside a qualifier on
   a step a ``//`` gap can reach) on an input whose mean depth exceeds
   ``DEEP_MEAN_DEPTH`` → ``twopass``;
3. everything else → ``topdown``.

``naive``, ``copy`` (GalaXUpdate) and ``sax`` are the paper's baselines:
forceable with ``method=`` (Fig-12/13/14 subjects, test oracles), never
chosen — ``topdown`` beats or ties them on every Fig-12 transform.

Layering: ``features`` summarizes a query's shape and measures an
input's mean depth, ``planner`` is the rule, ``executor`` runs a named
strategy with prebuilt automata, ``prepared`` wraps all of it behind
run/then/explain (``then`` is the one way to stack transforms), and
``engine`` is the door that builds prepared objects from its
:class:`~repro.compiled.CompiledCache`.
"""

from repro.engine.engine import Engine, default_engine
from repro.engine.executor import (
    ALL_STRATEGIES,
    PAPER_NAMES,
    TREE_STRATEGIES,
    run_tree_strategy,
)
from repro.engine.features import QueryFeatures, analyze_transform, mean_depth
from repro.engine.planner import (
    DEEP_MEAN_DEPTH,
    STREAM_THRESHOLD_BYTES,
    Plan,
    choose_strategy,
)
from repro.engine.prepared import (
    PreparedComposed,
    PreparedQuery,
    PreparedStack,
    PreparedTransform,
)

__all__ = [
    "ALL_STRATEGIES",
    "DEEP_MEAN_DEPTH",
    "Engine",
    "PAPER_NAMES",
    "Plan",
    "PreparedComposed",
    "PreparedQuery",
    "PreparedStack",
    "PreparedTransform",
    "QueryFeatures",
    "STREAM_THRESHOLD_BYTES",
    "TREE_STRATEGIES",
    "analyze_transform",
    "choose_strategy",
    "default_engine",
    "mean_depth",
    "run_tree_strategy",
]
