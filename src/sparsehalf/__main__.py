"""``python -m sparsehalf``: the same command line as the ``sparsehalf`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
