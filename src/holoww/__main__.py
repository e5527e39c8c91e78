"""`python -m holoww`: the command line of `holoww.cli`, exiting with its status."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())
