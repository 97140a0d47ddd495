"""One cold start: import zline and make the first calls that build its
lazy tables (the Riemann-Siegel Chebyshev model through an oracle call
above t = 500, the Eulerian and tail-constant tables through g).
worker.py makes the same calls as its untimed warm-up."""
import contextlib
import io

from zline.cli import main

TABLE_ARGV = (["eval", "--t", "1000", "--method", "oracle", "--json"],
              ["eval", "--t", "1000", "--method", "g", "--json"])

if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in TABLE_ARGV:
            if main(argv) != 0:
                raise SystemExit(f"cold start failed: {argv}")
