"""``python -m oadiag``: the oadiag command line, as the ``oadiag`` entry point runs it."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
