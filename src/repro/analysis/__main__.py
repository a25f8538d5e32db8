"""Entry point: ``python -m repro.analysis``.

* ``python -m repro.analysis [paths...]`` — run the determinism lints
  (exit 1 on any unsuppressed violation).
* ``python -m repro.analysis replay [...]`` — run the seeded-replay
  determinism harness (exit 1 when same-seed runs diverge).
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if argv and argv[0] == "replay":
        from repro.analysis.replay import main as replay_main

        return replay_main(argv[1:])
    from repro.analysis.lint import main as lint_main

    return lint_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
