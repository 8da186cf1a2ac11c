"""``python -m benchmarks.layers``: see :mod:`benchmarks.layers.harness`."""

from benchmarks.layers.harness import main

raise SystemExit(main())
