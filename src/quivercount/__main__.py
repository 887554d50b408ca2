"""``python -m quivercount``: the command-line interface without installing."""

from quivercount.cli import main

if __name__ == "__main__":
    main()
