"""One benchmark process: a cold CLI campaign run or a warm in-process session.

    python3 bench/child.py --result R.json [--trace S.json] cli <besselops argv>
    python3 bench/child.py --result R.json [--trace S.json] session \
        --seed N --seconds S --ids thm2_1,thm2_4
    python3 bench/child.py --result R.json --probe {cli ...|session ...}

``cli`` runs ``besselops.cli.main`` on the given arguments, as the
``besselops`` console script does.  ``session`` loads the bundled configs of
the given ids at one seed and runs ``campaigns.run_campaign`` on all of
them in passes, until ``--seconds`` have gone by after the first pass began.

The result file records ``ready``, the CLOCK_MONOTONIC time at which the
first campaign call began (the parent took the same clock when it spawned
the process, so the difference is the set-up time), and for a session the
per-operation times and report texts.  With ``--probe`` the process stops
at that first call: it measures set-up alone, on exactly the path a real
run takes.  With ``--trace`` the entry points of every layer are wrapped in
spans (see ``spans.py``), which are written to that file at the end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class _Ready(BaseException):
    """Raised at the first campaign call of a set-up probe; a BaseException
    so that neither the CLI's nor the session's error handling absorbs it."""


def _hook_first_call(module, name: str, state: dict) -> None:
    inner = getattr(module, name)

    def first_call_marker(*args, **kwargs):
        if state["ready"] is None:
            state["ready"] = time.monotonic()
            if state["probe"]:
                raise _Ready
        return inner(*args, **kwargs)

    setattr(module, name, first_call_marker)


def _session(args, state: dict) -> int:
    import dataclasses

    from besselops import campaigns

    ids = args.ids.split(",")
    configs = [
        dataclasses.replace(
            campaigns.CampaignConfig.from_json(str(campaigns.bundled_config_path(i))),
            seed=args.seed,
        )
        for i in ids
    ]
    _hook_first_call(campaigns, "run_campaign", state)
    ops = state["ops"] = []
    started = None
    while started is None or time.monotonic() - started < args.seconds:
        for ineq, config in zip(ids, configs):
            t0 = time.perf_counter()
            try:
                report, _ = campaigns.run_campaign(config)
                text = report.canonical_json()
                error = None
            except Exception as exc:  # an operation that raises is counted as failed
                text, error = None, f"{type(exc).__name__}: {exc}"
            ops.append({"id": ineq, "s": time.perf_counter() - t0, "report": text, "error": error})
            if started is None:
                started = state["ready"]
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("mode", choices=("cli", "session"))
    args, rest = parser.parse_known_args(argv)
    if args.mode == "session":
        session = argparse.ArgumentParser(prog="child.py session")
        session.add_argument("--seed", type=int, required=True)
        session.add_argument("--seconds", type=float, required=True)
        session.add_argument("--ids", required=True)
        session.parse_args(rest, namespace=args)

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    state = {"ready": None, "probe": args.probe}
    try:
        if args.mode == "cli":
            import besselops.cli

            _hook_first_call(besselops.cli, "run_campaign", state)
            code = besselops.cli.main(rest)
        else:
            code = _session(args, state)
    except _Ready:
        code = 0
    if recorder is not None:
        recorder.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump(state, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
