"""`python -m sscat ARGS` runs the command line, as `sscat ARGS` does."""

from .cli import run

run()
