"""``python -m tthjb``: the command-line experiment runner."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
