"""``python -m acrocode <command>`` runs the command-line pipeline."""

import sys

from .cli import main

sys.exit(main())
