package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/workload"
)

// tracer keeps the spans of one traced replay in memory. Frame spans
// come from the load generator, which has one frame in flight at a time;
// Schedule spans come from tracedScheduler on the RM's goroutines and
// name the frame in flight as their parent.
type tracer struct {
	base time.Time
	cur  atomic.Int64 // seq of the frame in flight

	frames []frameSpan

	mu     sync.Mutex
	scheds []schedSpan
}

// frameSpan is one closed-loop exchange: encode, socket write, wait for
// the reply, decode. Times are nanoseconds since the tracer's base.
type frameSpan struct {
	seq               int
	kind              frameKind
	beats             int
	start, encoded    int64
	received, decoded int64
}

// schedSpan is one Schedule call, with the demand-estimate calls made
// inside it aggregated.
type schedSpan struct {
	frame      int64
	shard      int
	start, end int64
	estCalls   int64
	estNs      int64
	placed     int
	machines   int
	down       int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) beginFrame(seq int, kind frameKind, beats int) frameSpan {
	t.cur.Store(int64(seq))
	return frameSpan{seq: seq, kind: kind, beats: beats, start: t.now()}
}

func (t *tracer) endFrame(sp frameSpan) {
	sp.decoded = t.now()
	t.frames = append(t.frames, sp)
}

// tracedScheduler decorates the RM's scheduler: it times each Schedule
// call and wraps View.EstimateDemand to count and time estimate calls.
type tracedScheduler struct {
	inner scheduler.Scheduler
	tr    *tracer
	shard int
}

func (d *tracedScheduler) Name() string { return d.inner.Name() }

func (d *tracedScheduler) Schedule(v *scheduler.View) []scheduler.Assignment {
	sp := schedSpan{frame: d.tr.cur.Load(), shard: d.shard, machines: len(v.Machines)}
	for _, m := range v.Machines {
		if m.Down {
			sp.down++
		}
	}
	view := *v
	if est := v.EstimateDemand; est != nil {
		// The incremental core calls the estimator from one goroutine.
		view.EstimateDemand = func(j *scheduler.JobState, t *workload.Task) (resources.Vector, float64) {
			t0 := time.Now()
			peak, dur := est(j, t)
			sp.estNs += int64(time.Since(t0))
			sp.estCalls++
			return peak, dur
		}
	}
	sp.start = d.tr.now()
	asgs := d.inner.Schedule(&view)
	sp.end = d.tr.now()
	sp.placed = len(asgs)
	d.tr.mu.Lock()
	d.tr.scheds = append(d.tr.scheds, sp)
	d.tr.mu.Unlock()
	return asgs
}

// spanLine is one line of the span file.
type spanLine struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Beats    int    `json:"beats,omitempty"`
	Shard    int    `json:"shard,omitempty"`
	SelfNs   int64  `json:"self_ns,omitempty"`
	EstCalls int64  `json:"estimate_calls,omitempty"`
	EstNs    int64  `json:"estimate_ns,omitempty"`
	Placed   int    `json:"placed,omitempty"`
}

// writeSpans writes the tracer's spans as JSON lines: each frame (id =
// its seq × 4) with its encode (+1) and decode (+2) children, and each
// Schedule call as a child of the frame in flight.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var werr error
	put := func(l spanLine) {
		if werr == nil {
			werr = enc.Encode(l)
		}
	}
	for _, fr := range t.frames {
		id := int64(fr.seq) * 4
		put(spanLine{ID: id, Name: "frame." + kindNames[fr.kind], StartNs: fr.start, EndNs: fr.decoded, Beats: fr.beats})
		put(spanLine{ID: id + 1, Parent: id, Name: "wire.encode", StartNs: fr.start, EndNs: fr.encoded})
		put(spanLine{ID: id + 2, Parent: id, Name: "wire.decode", StartNs: fr.received, EndNs: fr.decoded})
	}
	for i, s := range t.scheds {
		put(spanLine{ID: int64(len(t.frames)+1)*4 + int64(i), Parent: s.frame * 4, Name: "schedule",
			StartNs: s.start, EndNs: s.end, Shard: s.shard, SelfNs: s.end - s.start - s.estNs,
			EstCalls: s.estCalls, EstNs: s.estNs, Placed: s.placed})
	}
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// histogram is a telemetry histogram read back from the registry's
// Prometheus exposition, with every labelled series of one name (the
// shards of a sharded RM) merged.
type histogram struct {
	le    []float64 // ascending bucket upper bounds, +Inf last
	cum   []float64 // cumulative counts
	sum   float64
	count float64
}

// readHistogram parses name's series out of reg.
func readHistogram(reg *telemetry.Registry, name string) (histogram, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return histogram{}, err
	}
	byLE := map[float64]float64{}
	var h histogram
	for _, line := range strings.Split(buf.String(), "\n") {
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(series, name+"_bucket{"):
			_, rest, _ := strings.Cut(series, `le="`)
			bound, _, _ := strings.Cut(rest, `"`)
			le, err := strconv.ParseFloat(bound, 64) // "+Inf" parses as +Inf
			if err != nil {
				return histogram{}, fmt.Errorf("%s: bucket bound %q: %w", name, bound, err)
			}
			byLE[le] += v
		case series == name+"_sum" || strings.HasPrefix(series, name+"_sum{"):
			h.sum += v
		case series == name+"_count" || strings.HasPrefix(series, name+"_count{"):
			h.count += v
		}
	}
	for le := range byLE {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.cum = append(h.cum, byLE[le])
	}
	return h, nil
}

// merge adds o's samples into h (same bucket layout, or h empty).
func (h *histogram) merge(o histogram) {
	if len(h.le) == 0 {
		h.le = append([]float64(nil), o.le...)
		h.cum = make([]float64, len(o.cum))
	}
	for i := range o.cum {
		if i < len(h.cum) {
			h.cum[i] += o.cum[i]
		}
	}
	h.sum += o.sum
	h.count += o.count
}

// quantile interpolates the q-quantile linearly inside the bucket it
// falls in; 0 when empty.
func (h *histogram) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	lowBound, lowCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank && c > lowCum {
			hi := h.le[i]
			if math.IsInf(hi, 1) {
				return lowBound
			}
			return lowBound + (hi-lowBound)*(rank-lowCum)/(c-lowCum)
		}
		lowBound, lowCum = h.le[i], c
	}
	return lowBound
}
