"""Self-time summary of a flashgen chrome trace within a chosen parent span.

A span's self time is its duration minus the time its direct children cover.
Within one parent span (say ``train.step``), every span nested under it on
the parent's thread is attributed to a layer row; the parent's own self time
is a row too, so the rows add up to the parent total exactly.

    python3 flashbench/trace_summary.py TRACE.json [PARENT ...]

prints one table per parent (default: bench.setup, train.step,
bench.evaluate, serve.infer, bench.characterize.pass).
"""

import json
import sys
from collections import defaultdict

DEFAULT_PARENTS = ("bench.setup", "train.step", "bench.evaluate", "serve.infer",
                   "bench.characterize.pass")

# Span name -> layer row. Autograd node spans are keyed by category instead
# (their names are the op names of the nodes they run).
ROWS = {
    "gemm": "tensor.gemm",
    "conv2d": "tensor.conv2d",
    "conv2d.backward": "tensor.conv2d_backward",
    "conv_transpose2d": "tensor.conv_transpose2d",
    "conv_transpose2d.backward": "tensor.conv_transpose2d_backward",
    "im2col": "tensor.im2col",
    "col2im": "tensor.col2im",
    "batch_norm2d": "tensor.batch_norm2d",
    "batch_norm2d.backward": "tensor.batch_norm2d",
    "backward": "tensor.autograd",
    "cvae_gan.encoder": "models.encoder",
    "cvae_gan.generator": "models.generator",
    "cvae_gan.d_step": "models.d_step",
    "cvae_gan.g_step": "models.g_step",
}


def row_of(span):
    if span["cat"] == "autograd":
        return "tensor.autograd"
    name, cat = span["name"], span["cat"]
    return ROWS.get(name, name if name.startswith(cat + ".") else cat + "." + name)


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [e for e in events if e.get("ph") == "X"]


def summarize(spans, parent):
    """Returns (instances, total_us, rows) for spans named `parent`.

    rows maps a layer row to [self_us, count]; the parent's own self time is
    the row "<parent> (self)". The row self times sum to total_us.
    """
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s["tid"]].append(s)
    rows = defaultdict(lambda: [0.0, 0])
    instances = 0
    total = 0.0
    eps = 0.002  # microseconds; timestamps carry three decimals
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []  # open spans of the current parent instance: [span, child_us]
        for s in tid_spans:
            start, end = s["ts"], s["ts"] + s["dur"]
            while stack and start >= stack[-1][0]["ts"] + stack[-1][0]["dur"] - eps:
                close(stack, rows, parent)
            if not stack:
                if s["name"] != parent:
                    continue
                instances += 1
                total += s["dur"]
                stack.append([s, 0.0])
                continue
            if end > stack[-1][0]["ts"] + stack[-1][0]["dur"] + eps:
                continue  # not nested (clock skew across a boundary)
            stack.append([s, 0.0])
        while stack:
            close(stack, rows, parent)
    return instances, total, dict(rows)


def close(stack, rows, parent):
    span, child_us = stack.pop()
    self_us = span["dur"] - child_us
    key = parent + " (self)" if not stack else row_of(span)
    rows[key][0] += self_us
    rows[key][1] += 1
    if stack:
        stack[-1][1] += span["dur"]


def format_table(parent, instances, total, rows):
    lines = [f"-- self time within {parent}: {instances} instances, "
             f"{total / 1000.0:.3f} ms total"]
    lines.append(f"   {'row':40s} {'self ms':>12s} {'share':>7s} {'count':>9s}")
    for key, (self_us, count) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
        share = self_us / total if total > 0 else 0.0
        lines.append(f"   {key:40s} {self_us / 1000.0:12.3f} {share:7.1%} {count:9d}")
    summed = sum(v[0] for v in rows.values())
    lines.append(f"   {'sum of rows':40s} {summed / 1000.0:12.3f} "
                 f"(parent total {total / 1000.0:.3f})")
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans = load_spans(argv[1])
    for parent in argv[2:] or DEFAULT_PARENTS:
        instances, total, rows = summarize(spans, parent)
        if instances:
            print(format_table(parent, instances, total, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
