"""``python -m shiftlab``: the shiftlab command, runnable from a checkout with
``PYTHONPATH=src`` and no install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
