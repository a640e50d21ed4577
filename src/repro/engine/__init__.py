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

How a strategy is chosen for a tree (:func:`choose_strategy`, the
whole of it):

1. a query whose shape *nests* (a descendant step inside a qualifier on
   a step a ``//`` gap can reach) on a tree whose mean depth exceeds
   ``DEEP_MEAN_DEPTH`` → ``twopass``;
2. everything else → ``topdown``.

A transform's ``run(path)`` parses the file and applies that rule to
the tree.  A file written to a file (``run_to_file``, the CLI's
``transform``) is not planned: its size sets its route.  From
``STREAM_THRESHOLD_BYTES`` (8 MiB) up it streams (twoPassSAX); below
that it is read into columns and transformed by the arena kernel, which
has no strategy to choose.  A read's ``run_file`` reads any into columns.

``naive``, ``copy`` (GalaXUpdate) and ``sax`` are the paper's baselines:
forceable with ``method=`` (Fig-12/13/14 subjects, test oracles), never
chosen — ``topdown`` beats or ties them on every Fig-12 transform.

Layering: ``features`` summarizes a query's shape and measures a
tree's mean depth, ``planner`` is the rule and the size test,
``executor`` runs a named strategy with prebuilt automata,
``prepared`` wraps all of it behind
run/then/explain (``then`` is the one way to stack transforms), and
``engine`` is the door that builds prepared objects from its
:class:`~repro.compiled.CompiledCache`.
"""

from repro.engine.engine import Engine, default_engine
from repro.engine.executor import (
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
