"""``python -m epplan`` runs the ``epp`` command line."""
import sys

from .cli import main

sys.exit(main())
