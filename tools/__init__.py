"""Build-time tools that run from the repository root and are not
installed with the ``repro`` package."""
