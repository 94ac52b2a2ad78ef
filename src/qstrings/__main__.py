"""Run the CLI as `python -m qstrings ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
