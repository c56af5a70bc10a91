"""``python -m avq``: the same command line as the ``avq`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
