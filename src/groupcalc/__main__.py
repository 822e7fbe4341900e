"""``python -m groupcalc``: the command-line interface of :mod:`groupcalc.cli`."""

import sys

from .cli import main

sys.exit(main())
