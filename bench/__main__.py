import sys

from bench.runner import main

if __name__ == "__main__":
    sys.exit(main())
