"""Entry point: ``python -m repro.analysis [paths...]`` — run the
determinism lints (exit 1 on any unsuppressed violation)."""

from __future__ import annotations

import sys

from repro.analysis.lint import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
