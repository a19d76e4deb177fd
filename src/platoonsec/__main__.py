"""``python -m platoonsec``: the ``platoonsec`` command."""
import sys

from .cli_runner import main

if __name__ == "__main__":
    sys.exit(main())
