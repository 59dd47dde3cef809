"""`python -m mclcheck` runs the same commands as the `mclcheck` script."""
from .cli import main
raise SystemExit(main())
