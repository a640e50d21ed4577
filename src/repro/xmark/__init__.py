"""XMark-shaped data generator and the Fig. 11 workload.

The paper evaluates on XMark [Schmidt et al., VLDB'02] documents.  The
original generator (xmlgen, C) is not available offline, so this
package provides a deterministic, seeded, scale-factor-driven generator
producing documents with the same structural features the workload
exercises: auction sites with regions/items (``location``), people with
profiles (``@id``, ``age``), open auctions with bidders
(``initial``/``reserve``/``increase``), and closed auctions with the
deeply nested ``parlist``/``listitem`` description structure that U6
navigates.  The substitution keeps every structural feature a Fig. 11
query depends on (listed in :mod:`repro.xmark.generator`'s docstring);
per-entity text is leaner than xmlgen's, so absolute file sizes differ
at equal factors and the experiments report byte sizes.
"""

from repro.xmark.generator import (
    XMarkGenerator,
    document_stats,
    generate,
    write_xmark_file,
)
from repro.xmark.queries import (
    EMBEDDED_PATHS,
    QUERY_IDS,
    composition_pairs,
    delete_transform,
    insert_transform,
    user_query_for,
)

__all__ = [
    "EMBEDDED_PATHS",
    "QUERY_IDS",
    "XMarkGenerator",
    "composition_pairs",
    "delete_transform",
    "document_stats",
    "generate",
    "insert_transform",
    "user_query_for",
    "write_xmark_file",
]
