"""Transform queries and their evaluation algorithms.

A transform query (Section 2)::

    transform copy $a := doc("T0") modify do u($a) return $a

returns the tree that update ``u`` *would* produce on ``T0``, without
touching ``T0``.  Five evaluation strategies, matching the paper's
experimental line-up (Figures 12-14):

==============  =====================================  ==========
paper name      function                               section
==============  =====================================  ==========
GalaXUpdate     :func:`transform_copy_update`          (baseline)
NAIVE           :func:`transform_naive`                3.1
GENTOP          :func:`transform_topdown`              3.3
TD-BU           :func:`transform_twopass`              5
twoPassSAX      :func:`transform_sax` (+ file/event    6
                variants in ``sax_twopass``)
==============  =====================================  ==========

All five return identical trees; the test suite enforces this on the
paper's examples, the XMark workload and random inputs.
:data:`STRATEGIES` is the one table of them: the engine's strategy
names, the Fig-12 legend and the ``--method`` choices all derive from it.
A query holds one update; a sequence of them (each seeing the previous
result) is a :class:`repro.engine.PreparedStack`, built with ``then``.

The Naive Method is implemented once, in :mod:`repro.transform.naive`:
its docstring holds the Fig. 2 program and maps it onto the rebuild.
This package imports nothing from :mod:`repro.xquery` and sits
strictly below it in the layer manifest: the user-query evaluators call
into it (embedded ``topDown``), never the other way round.
"""

from repro.transform.query import TransformQuery, parse_transform_query
from repro.transform.copy_update import transform_copy_update
from repro.transform.naive import transform_naive
from repro.transform.topdown import transform_topdown
from repro.transform.twopass import transform_twopass
from repro.transform.sax_twopass import (
    transform_sax,
    transform_sax_events,
    transform_sax_file,
)

#: The one strategy table: engine name → (paper name, ``(root, query)``
#: callable).  It lives here, below the engine's executor that runs it;
#: the Fig. 12/13 benchmarks iterate it for the paper's legend.
STRATEGIES = {
    "topdown": ("GENTOP", transform_topdown),
    "twopass": ("TD-BU", transform_twopass),
    "naive": ("NAIVE", transform_naive),
    "copy": ("GalaXUpdate", transform_copy_update),
    "sax": ("twoPassSAX", transform_sax),
}

__all__ = [
    "STRATEGIES",
    "TransformQuery",
    "parse_transform_query",
    "transform_copy_update",
    "transform_naive",
    "transform_sax",
    "transform_sax_events",
    "transform_sax_file",
    "transform_topdown",
    "transform_twopass",
]
