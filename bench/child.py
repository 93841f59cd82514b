"""One benchmark child: imports noethercheck, runs the items it is given
once each, and prints one JSON line with the raw samples.

Run by bench/run.py with the item list as its only argument; it is not
meant to be started by hand. Every timed call goes through refspeed.timed;
the parent does the scaling and the checking.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys

import refspeed


def _check(cli, argv):
    """Run `noethercheck <argv>` in process with stdout captured, so
    argument parsing and output formatting are inside the timing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _oracle_call(nc, item):
    name, args = item["name"], item["args"]
    if name != "three_squares_sieve":
        return lambda: getattr(nc.oracles, name)(*args)

    def sieve_and_compare():
        # what `noethercheck oracle three-squares N` does: the sieve, then
        # agreement with the closed form at every n
        bound = args[0]
        sieve = nc.oracles.three_squares_sieve(bound)
        nat = nc.quadforms.three_squares_nat
        agree = sum(1 for n in range(1, bound + 1) if nat(n) == bool(sieve[n]))
        return agree, sieve

    return sieve_and_compare


def _import():
    import noethercheck.cli

    return sys.modules["noethercheck"]


def main() -> int:
    cfg = json.loads(sys.argv[1])
    nc, raw, ref = refspeed.timed(_import, cfg.get("import_period", 0))
    report = {"import_raw_s": raw, "import_ref_s": ref, "items": []}
    items = cfg.get("items", [])
    if not items:
        print(json.dumps(report))
        return 0

    cli = nc.cli
    clear_catalog = nc.groups.catalog_group.cache_clear
    caches = {
        "groups.catalog_group": nc.groups.catalog_group,
        "exact.is_prime": nc.exact.is_prime,
    }
    tracer = None
    # the kernel ticks inside a call would land in the traced functions'
    # times, so a traced child samples only before and after each call
    period = 0 if cfg.get("trace") else refspeed.PERIOD_S
    if cfg.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(nc)
    for name in cfg.get("warm_catalog", []):
        nc.groups.catalog_group(name)
    for argv in cfg.get("warm_argv", []):
        _check(cli, argv)
    if tracer is not None:
        tracer.take()
        tracer.counters.clear()
    # cache_clear() also resets the hit and miss counts, so they are
    # summed item by item
    cache_counts = {f"{k}.{kind}": 0 for k in caches for kind in ("hits", "misses")}

    for i, item in enumerate(items):
        if item.get("cold"):
            clear_catalog()
        gc.collect()
        info0 = {k: c.cache_info() for k, c in caches.items()}
        if tracer is not None:
            tracer.item = i
        rec: dict = {}
        try:
            if item["kind"] == "check":
                (rc, out, err), raw, ref = refspeed.timed(lambda: _check(cli, item["argv"]), period)
                rec.update(rc=rc, out=out, err=err)
            else:
                value, raw, ref = refspeed.timed(_oracle_call(nc, item), period)
                if item["name"] == "three_squares_sieve":
                    agree, sieve = value
                    value = [agree, [n for n in range(1, len(sieve)) if not sieve[n]]]
                rec["value"] = value
            rec.update(raw_s=raw, ref_s=ref)
        except Exception as exc:  # any exception fails the item, never the run
            rec["error"] = f"{type(exc).__name__}: {exc}"
        for key, cache in caches.items():
            info = cache.cache_info()
            cache_counts[f"{key}.hits"] += info.hits - info0[key].hits
            cache_counts[f"{key}.misses"] += info.misses - info0[key].misses
        if tracer is not None:
            rec["layers"] = tracer.take()
        report["items"].append(rec)

    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["counters"] = dict(tracer.counters, **cache_counts)
        if cfg.get("spans_path"):
            with open(cfg["spans_path"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans(), fh, separators=(",", ":"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
