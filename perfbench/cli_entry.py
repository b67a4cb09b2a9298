"""One spatialknn CLI call in a fresh interpreter, as the benchmark makes it.

    python3 perfbench/cli_entry.py --capture FILE [--trace DIR] -- <cli arguments>

Runs ``spatialknn.cli.main`` on the arguments and exits with its code.
``--capture`` records what the CLI handed to and got back from the
held-out helpers (selected parameters, predictions, labels, the split),
which the correctness checks compare with the report and with a brute-force
oracle; it rebinds three names in ``spatialknn.cli`` and adds no work
inside the package. ``--trace`` also records layer spans (see tracer.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys


def _capture_hooks(cli, records, rebinder):
    def params_record(params):
        return {"type": type(params).__name__, **dataclasses.asdict(params)}

    def holdout(fn):
        @functools.wraps(fn)
        def hooked(train, test, params, *args, **kwargs):
            result = fn(train, test, params, *args, **kwargs)
            records["holdout"].append(
                {"params": params_record(params), "result": result.tolist()}
            )
            return result

        return hooked

    def split(fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            train, test = fn(*args, **kwargs)
            records["split"] = {"train": train.tolist(), "test": test.tolist()}
            return train, test

        return hooked

    for name, make in (
        ("holdout_predictions", holdout),
        ("holdout_labels", holdout),
        ("stratified_split", split),
    ):
        original = getattr(cli, name)
        rebinder.bind_one(cli, name, make(original))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", required=True)
    parser.add_argument("--trace")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import spatialknn.cli as cli

    import tracer as tracing

    tracer = None
    if opts.trace:
        tracer = tracing.Tracer(opts.trace)
        tracer.install()
    records = {"holdout": [], "split": None}
    rebinder = tracing.Rebinder()
    _capture_hooks(cli, records, rebinder)

    code = cli.main(cli_args)

    rebinder.restore()
    if tracer is not None:
        tracer.uninstall()
        tracer.write_main()
    with open(opts.capture, "w") as fh:
        json.dump(records, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
