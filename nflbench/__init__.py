"""nflbench — the repository's benchmark; ``nflbench/run.py`` is its entry point."""
