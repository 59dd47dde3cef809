"""`python -m mclcheck` runs the same commands as the `mclcheck` script."""
import os
import sys

from .cli import main

code = main()
if sys.stdout is not None:
    try:
        sys.stdout.flush()
    except OSError:
        # what main could not write is still buffered; point stdout at
        # os.devnull so the interpreter's own flush at exit does not fail
        # again (the Python docs' note on SIGPIPE, in the `signal` module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
raise SystemExit(code)
