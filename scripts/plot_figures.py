#!/usr/bin/env python3
"""Print the paper's tables from flov_sweep_cli sweep manifests.

Usage:
    build/examples/flov_sweep_cli spec=experiments/fig6.args manifest=fig6.json
    python3 scripts/plot_figures.py fig6.json [more manifests ...]

A manifest's name (the spec's file stem) picks its tables: fig6, fig7,
fig8ab, fig9, fig10, fault_sweep and ablation_flov are the EXPERIMENTS.md
tables; any other sweep prints one row per point. Points are found by
their config, so a spec's point order does not matter. A point that
measured no packet prints `empty` in every latency cell, never 0.00.
When matplotlib imports, the line figures are also written as PNGs next
to the manifest; the tables never need it.
"""
import json
import os
import sys

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

SCHEMES = ["Baseline", "RP", "rFLOV", "gFLOV"]
RULE = "=" * 64
BREAKDOWN = ["router", "link", "serialization", "contention", "flov"]


class Point:
    def __init__(self, entry):
        self.cfg = entry["config"]
        self.reg = entry["metrics"]

    def num(self, key):
        return float(self.cfg[key])

    def counter(self, name):
        return self.reg["counters"].get(name, 0)

    def gauge(self, name):
        return self.reg["gauges"].get(name, 0.0)

    def latency(self, component="total"):
        """Mean latency (or one breakdown component); None when empty."""
        if self.counter("latency.packets_measured") == 0:
            return None
        name = "latency.total" if component == "total" else (
            "latency.%s_component" % component)
        return self.reg["stats"][name]["mean"]

    def gated_routers(self):
        if "flov.gated_routers_end" in self.reg["gauges"]:
            return int(self.gauge("flov.gated_routers_end"))
        return int(self.gauge("rp.parked_routers"))


def cell(value, width):
    """One table cell: `empty` for a window that measured nothing."""
    return ("empty" if value is None else "%.2f" % value).rjust(width)


def header(title):
    print("\n%s\n%s\n%s" % (RULE, title, RULE))


def plot(path, title, xlabel, ylabel, series):
    """series: {label: [(x, y)]}; a no-op without matplotlib."""
    if plt is None:
        return
    plt.figure(figsize=(5, 3.2))
    for label, pts in series.items():
        pts = sorted((x, y) for x, y in pts if y is not None)
        plt.plot([x for x, _ in pts], [y for _, y in pts], marker="o",
                 markersize=3, label=label)
    plt.xlabel(xlabel)
    plt.ylabel(ylabel)
    plt.title(title)
    plt.legend(fontsize=8)
    plt.tight_layout()
    plt.savefig(path, dpi=150)
    plt.close()
    print("wrote %s" % path)


def gated_table(points, base, title, metric, label):
    """Rows: gated fraction; columns: the four schemes."""
    grid = {(p.num("gated"), p.cfg["scheme"]): p for p in points}
    fractions = sorted({g for g, _ in grid})
    print("\n%s" % label)
    print("%-8s %10s %10s %10s %10s" % ("gated%", *SCHEMES))
    for g in fractions:
        print("%-8.0f" % (g * 100) + "".join(
            " " + cell(metric(grid[g, s]), 10) for s in SCHEMES))
    plot("%s_%s.png" % (base, label.split(" (")[0].replace(" ", "_")),
         title, "power-gated cores (%)", label,
         {s: [(g * 100, metric(grid[g, s])) for g in fractions]
          for s in SCHEMES})


def load_figure(points, base):
    """Figs. 6 and 7: latency, dynamic and total power vs gated fraction."""
    for inj in sorted({p.num("inj") for p in points}):
        panel = [p for p in points if p.num("inj") == inj]
        title = "%s traffic, injection %.2f flits/node/cycle" % (
            panel[0].cfg["pattern"], inj)
        header(title)
        for label, metric in (
                ("avg latency (cycles)", Point.latency),
                ("dynamic power (mW)",
                 lambda p: p.gauge("power.dynamic_mw")),
                ("total power (mW)", lambda p: p.gauge("power.total_mw"))):
            gated_table(panel, "%s_inj%g" % (base, inj), title, metric, label)


def fig8ab(points, base):
    for pattern in dict.fromkeys(p.cfg["pattern"] for p in points):
        panel = [p for p in points if p.cfg["pattern"] == pattern]
        header("Fig. 8(%s) — latency breakdown, %s traffic, inj %.2f"
               % ("a" if pattern == "uniform" else "b", pattern,
                  panel[0].num("inj")))
        print("%-10s %-8s | %8s %8s %8s %8s %8s | %8s" % (
            "scheme", "gated%", "router", "link", "serial", "content",
            "flov", "total"))
        for s in SCHEMES:
            rows = sorted((p for p in panel if p.cfg["scheme"] == s),
                          key=lambda p: p.num("gated"))
            for p in rows:
                print("%-10s %-8.0f |" % (s, p.num("gated") * 100)
                      + "".join(" " + cell(p.latency(c), 8)
                                for c in BREAKDOWN)
                      + " | " + cell(p.latency(), 8))
            print()


def fig9(points, base):
    title = "Fig. 9 — static power (mW) vs fraction of power-gated cores"
    header(title)
    grid = {(p.num("gated"), p.cfg["scheme"]): p for p in points}
    fractions = sorted({g for g, _ in grid})
    print("%-8s %10s %10s %10s %10s | %s" % (
        "gated%", *SCHEMES, "gated routers (RP/rFLOV/gFLOV)"))
    for g in fractions:
        print("%-8.0f" % (g * 100)
              + "".join(" %10.2f" % grid[g, s].gauge("power.static_mw")
                        for s in SCHEMES)
              + " | " + " / ".join(str(grid[g, s].gated_routers())
                                   for s in SCHEMES[1:]))
    plot(base + "_static.png", title, "power-gated cores (%)",
         "static power (mW)",
         {s: [(g * 100, grid[g, s].gauge("power.static_mw"))
              for g in fractions] for s in SCHEMES})


def fig10(points, base):
    title = ("Fig. 10 — latency timeline around reconfigurations "
             "(changes at %s)" % points[0].cfg.get("changes", "none"))
    header(title)
    series = {}
    for p in sorted(points, key=lambda p: SCHEMES.index(p.cfg["scheme"])):
        ts = p.reg["series"].get("latency.timeline", {"points": []})
        series[p.cfg["scheme"]] = {int(c): mean for c, mean, _ in ts["points"]}
    print("%-12s" % "cycle" + "".join(" %12s" % s for s in series))
    for c in sorted(set().union(*series.values())):
        print("%-12d" % c + "".join(" %12.2f" % s[c] if c in s else
                                    " %12s" % "-" for s in series.values()))
    print("\npeak windowed latency: " + " vs ".join(
        "%s %.1f cycles" % (name, max(s.values(), default=0.0))
        for name, s in series.items()))
    plot(base + "_timeline.png", title, "cycle", "avg latency (cycles)",
         {name: list(s.items()) for name, s in series.items()})


def fault_sweep(points, base):
    lossy = [p for p in points if p.cfg.get("noc.reliable") != "1"]
    hard = [p for p in points if p.cfg.get("noc.reliable") == "1"]
    header("Fault sweep — signal loss vs. FLOV recovery (uniform, "
           "40% gated, churn)")
    print("%-8s %-10s %10s %10s %10s %10s %10s %10s" % (
        "scheme", "drop_rate", "latency", "hs_resend", "trig_rsnd",
        "recover", "violation", "delivered"))
    for p in sorted(lossy, key=lambda p: (
            SCHEMES.index(p.cfg["scheme"]), p.num("fault.signal_drop_rate"))):
        print("%-8s %-10.3f %s %10d %10d %10d %10d %10d" % (
            p.cfg["scheme"], p.num("fault.signal_drop_rate"),
            cell(p.latency(), 10), p.counter("flov.hs_resends"),
            p.counter("flov.trigger_resends"),
            p.counter("run.watchdog_recoveries"),
            p.counter("verify.violations"),
            p.counter("latency.packets_measured")))
    header("Hard-fault sweep — routers die mid-run, reliable delivery "
           "(uniform, 30% gated)")
    print("%-8s %-9s %5s %5s | %10s %9s %9s %9s %9s %9s" % (
        "scheme", "router%", "dead", "links", "latency", "acked",
        "dead_pkt", "retx", "deliv%", "violation"))
    for p in sorted(hard, key=lambda p: (
            SCHEMES.index(p.cfg["scheme"]), p.num("fault.hard_router_pct"))):
        acked = p.counter("run.packets_acked")
        settled = acked + p.counter("run.packets_dead")
        delivered = 100.0 * acked / settled if settled else 100.0
        print("%-8s %-9.2f %5d %5d | %s %9d %9d %9d %8.2f%% %9d" % (
            p.cfg["scheme"], 100 * p.num("fault.hard_router_pct"),
            p.gauge("fault.dead_routers"), p.gauge("fault.dead_links"),
            cell(p.latency(), 10), acked, p.counter("run.packets_dead"),
            p.counter("run.retransmits"), delivered,
            p.counter("verify.violations")))


def ablation_flov(points, base):
    # Each panel is found by the knob its block sets; (c) sets
    # noc.buffer_depth too, so it is matched before (d).
    panels = [
        ("noc.wakeup_latency", "(a) — wakeup latency, gFLOV with gating churn",
         "wakeup (cycles)", "total mW",
         lambda p: "%.2f" % p.gauge("power.total_mw")),
        ("noc.deadlock_timeout",
         "(b) — deadlock-recovery timeout (escape threshold)", "timeout",
         "escape pkts", lambda p: "%d" % p.counter("latency.escape_packets")),
        ("noc.enable_escape_diversion", "(c) — escape sub-network disabled",
         "escape", "outcome",
         lambda p: "ABORTED" if p.counter("run.aborted") else "completed"),
        ("noc.buffer_depth", "(d) — input buffer depth", "depth (flits)",
         "static mW", lambda p: "%.2f" % p.gauge("power.static_mw")),
        ("noc.drain_idle_threshold", "(e) — drain idle threshold",
         "threshold", "static mW",
         lambda p: "%.2f" % p.gauge("power.static_mw")),
    ]
    left = list(points)
    for key, title, knob, col, metric in panels:
        rows = [p for p in left if key in p.cfg]
        left = [p for p in left if key not in p.cfg]
        header("Ablation " + title)
        extra = key == "noc.drain_idle_threshold"
        print("%-16s %12s %12s" % (knob, "avg latency", col)
              + (" %8s" % "gated" if extra else ""))
        for p in sorted(rows, key=lambda p: p.num(key)):
            print("%-16s %s %12s" % (p.cfg[key], cell(p.latency(), 12),
                                     metric(p))
                  + (" %8d" % p.gated_routers() if extra else ""))


def points_table(points, base):
    print("%-9s %-9s %6s %6s %5s | %9s %9s %9s" % (
        "scheme", "pattern", "inj", "gated", "seed", "latency", "total_mW",
        "pkts"))
    for p in points:
        print("%-9s %-9s %6.3f %6.2f %5s | %s %9.2f %9d" % (
            p.cfg["scheme"], p.cfg["pattern"], p.num("inj"), p.num("gated"),
            p.cfg["seed"], cell(p.latency(), 9),
            p.gauge("power.total_mw"),
            p.counter("latency.packets_measured")))


RENDERERS = {
    "fig6": load_figure,
    "fig7": load_figure,
    "fig8ab": fig8ab,
    "fig9": fig9,
    "fig10": fig10,
    "fault_sweep": fault_sweep,
    "ablation_flov": ablation_flov,
}


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for path in sys.argv[1:]:
        with open(path) as f:
            doc = json.load(f)
        points = [Point(e) for e in doc["points"]]
        print("# %s: %s (%d points)" % (path, doc["name"], len(points)))
        base = os.path.splitext(path)[0]
        RENDERERS.get(doc["name"], points_table)(points, base)


if __name__ == "__main__":
    main()
