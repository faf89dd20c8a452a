"""``python -m dynbatch``: the ``dynbatch`` command line."""

from .cli import main

main()
