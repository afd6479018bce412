"""``python -m plabicflow``: the same command line as ``plabicflow``."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
