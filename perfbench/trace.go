package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"wizgo/internal/engine"
)

// span is one traced interval around a public wizgo call made by the
// benchmark. Spans of one op share op; parent indexes the enclosing
// span in the same tracer (-1 for an op's root span).
type span struct {
	name       string
	op         int64
	parent     int32
	tier, kind int8
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the traced run, up to maxSpans of
// them. A nil *tracer is the untraced run: every method is a no-op, so
// the measured loops are the same code with and without tracing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// maxSpans bounds one tracer's memory (48 MiB of spans).
const maxSpans = 1 << 20

// begin opens a span and returns its index, or -1 when the span is not
// recorded.
func (t *tracer) begin(name string, op int64, parent int32, tier, kind int) int32 {
	if t == nil || len(t.spans) >= maxSpans {
		return -1
	}
	d := time.Since(t.epoch)
	t.spans = append(t.spans, span{name: name, op: op, parent: parent,
		tier: int8(tier), kind: int8(kind), start: d, end: d})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// compileChildren adds the phase spans a Compile call reports in its
// Timings, laid end to end from the Compile span's start in pipeline
// order.
func (t *tracer) compileChildren(id int32, tm engine.Timings) {
	if id < 0 {
		return
	}
	p := t.spans[id]
	at := p.start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"decode", tm.Decode}, {"validate", tm.Validate}, {"analyze", tm.Analyze},
		{"compile", tm.Compile}, {"rehydrate", tm.Rehydrate},
	} {
		if ph.d <= 0 {
			continue
		}
		t.spans = append(t.spans, span{name: ph.name, op: p.op, parent: id,
			tier: p.tier, kind: p.kind, start: at, end: at + ph.d})
		at += ph.d
	}
}

// mergeSpans appends src to dst, rebasing src's parent indexes.
func mergeSpans(dst, src []span) []span {
	base := int32(len(dst))
	for _, s := range src {
		if s.parent >= 0 {
			s.parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// selfTimes returns each span's duration minus the time its direct
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// durations collects the durations (or self times, when self is
// non-nil) of spans named name that match keep.
func durations(spans []span, self []time.Duration, name string, keep func(span) bool) []time.Duration {
	var out []time.Duration
	for i, s := range spans {
		if s.name != name || (keep != nil && !keep(s)) {
			continue
		}
		if self != nil {
			out = append(out, self[i])
		} else {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeSpans writes at most limit spans as tab-separated lines (id,
// parent, op, name, tier, kind, start_ns, end_ns) under path.
func writeSpans(path string, spans []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(len(spans), limit)
	fmt.Fprintf(w, "# spans %d of %d\n", n, len(spans))
	for i, s := range spans[:n] {
		tier := ""
		if s.tier >= 0 {
			tier = tierNames[s.tier]
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", i, s.parent, s.op, s.name, tier, s.kind,
			s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile (nearest rank) of ds in microseconds,
// or 0 for no samples. It sorts ds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	i = max(0, min(i, len(ds)-1))
	return float64(ds[i]) / 1e3
}

func median(ds []time.Duration) float64 { return quantile(ds, 0.5) }

// geomeanMedians returns the geometric mean, in milliseconds, of the
// median of each non-empty group, or 0 when every group is empty.
func geomeanMedians(groups [][]time.Duration) float64 {
	var logSum float64
	n := 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		m := median(g) / 1e3
		logSum += math.Log(math.Max(m, 1e-9))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
