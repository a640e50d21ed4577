"""``python -m tools.analysis`` — the lint entry point."""

from __future__ import annotations

import sys

from tools.analysis.runner import main

if __name__ == "__main__":
    sys.exit(main())
