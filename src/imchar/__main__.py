"""``python -m imchar`` runs the command line interface."""

import sys

from imchar.cli import main

if __name__ == "__main__":
    sys.exit(main())
