"""`python -m sscat ARGS` runs the command line, as `sscat ARGS` does."""

import sys

from .cli import main

sys.exit(main())
