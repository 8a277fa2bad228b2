"""`python -m gausspow ...`: the same command line as the `gausspow` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
