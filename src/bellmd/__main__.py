"""Entry point for ``python -m bellmd``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
