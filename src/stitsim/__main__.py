"""`python -m stitsim`: the stitsim command line."""

import sys

from .cli import main

sys.exit(main())
