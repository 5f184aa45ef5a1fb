"""``python -m braidreps``: the same command line as the ``braidreps`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
