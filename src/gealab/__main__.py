"""``python -m gealab``: the ``gealab`` command."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
