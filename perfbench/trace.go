package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted as dropped.
const maxSpans = 600_000

// noSpan is the parent id of a root span, and the id begin returns when
// tracing is off or the span budget is spent.
const noSpan int32 = -1

// reqID names the request a span serves: a client-round (Frame < 0) or
// one frame of a client, numbered by the client's frame sequence.
type reqID struct {
	Round  int32
	Client int32
	Frame  int64
}

// clientRound is the request id of client k's round r.
func clientRound(r, k int) reqID { return reqID{Round: int32(r), Client: int32(k), Frame: -1} }

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's origin; Parent is the id of the span that caused it.
type span struct {
	Name       string
	Start, End int64
	ID, Parent int32
	Req        reqID
}

// tracer keeps spans in memory. A nil or disabled tracer records nothing,
// so the untraced path pays one branch per call site.
type tracer struct {
	origin time.Time

	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()}
}

// setOn switches recording for the calls that begin afterwards.
func (t *tracer) setOn(on bool) { t.on.Store(on) }

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id (noSpan when not recording).
func (t *tracer) begin(name string, parent int32, req reqID) int32 {
	if t == nil || !t.on.Load() {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return noSpan
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, ID: id, Parent: parent, Req: req})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records an already timed span (start and end on the tracer clock).
func (t *tracer) add(name string, parent int32, req reqID, start, end int64) int32 {
	id := t.begin(name, parent, req)
	if id != noSpan {
		t.mu.Lock()
		t.spans[id].Start, t.spans[id].End = start, end
		t.mu.Unlock()
	}
	return id
}

// closed returns the completed spans. Call it once recording has stopped.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval that its children
// cover. Children running in parallel count once, and a child's time
// outside its parent's interval is not subtracted.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(intervals [][2]int64, lo, hi int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, in := range iv {
		a, b := max(in[0], cur), min(in[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName collects the self times of every span with the given name.
func selfByName(spans []span, self map[int32]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// write stores the spans as JSON lines in path, one span per line.
func writeSpans(path string, spans []span, self map[int32]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"round":%d,"client":%d,"frame":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			s.Name, s.ID, s.Parent, s.Req.Round, s.Req.Client, s.Req.Frame, s.Start, s.End, self[s.ID])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
