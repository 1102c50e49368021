package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"whilepar"
)

// spanRec keeps the benchmark's own spans in memory for the traced run:
// one per call into a layer, each with a name, start, end, the span that
// caused it, and the id of the operation it belongs to.  A nil *spanRec
// records nothing, so untraced runs pay one nil check per call site.
type spanRec struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int64
	// lib holds the library's own Chrome-trace events for a bounded
	// sample of operations, shifted onto the benchmark's clock.
	lib []whilepar.TraceEvent
}

// maxLibEvents bounds the library trace events kept for the output file:
// the library emits one event per iteration, so keeping every
// operation's would hold millions in memory.
const maxLibEvents = 200_000

type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// openSpan is a started span; end closes it.
type openSpan struct {
	r  *spanRec
	id int64
	sp span
}

// begin starts a span for operation op under parent (0 for a root).
func (r *spanRec) begin(op, parent int64, name string) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return openSpan{r: r, id: id, sp: span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.t0)}}
}

func (o openSpan) end() {
	if o.r == nil {
		return
	}
	o.sp.End = time.Since(o.r.t0)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.sp)
	o.r.mu.Unlock()
}

// newOp allocates an operation id.
func (r *spanRec) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// keepLibrary folds one operation's library trace into the output file,
// tagged with the operation id.  created is when that tracer's clock
// started.
func (r *spanRec) keepLibrary(op int64, created time.Time, ct *whilepar.ChromeTracer) {
	off := created.Sub(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lib)+ct.Len() > maxLibEvents {
		return
	}
	evs := ct.Events()
	for _, ev := range evs {
		ev.TS += off
		ev.PID = 2
		args := map[string]any{"op": op}
		for k, v := range ev.Args {
			args[k] = v
		}
		ev.Args = args
		r.lib = append(r.lib, ev)
	}
}

// count returns the number of closed spans.
func (r *spanRec) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeChrome writes every span (pid 1, the benchmark) and the kept
// library events (pid 2) as one Chrome trace-event JSON file.
func (r *spanRec) writeChrome(path string) error {
	r.mu.Lock()
	evs := make([]whilepar.TraceEvent, 0, len(r.spans)+len(r.lib))
	for _, s := range r.spans {
		dur := (s.End - s.Start).Microseconds()
		if dur < 1 {
			dur = 1
		}
		evs = append(evs, whilepar.TraceEvent{Name: s.Name, Cat: "perfbench", Phase: "X",
			TS: s.Start.Microseconds(), Dur: dur, PID: 1, TID: int(s.Op % 64),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	evs = append(evs, r.lib...)
	r.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents     []whilepar.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string                `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
