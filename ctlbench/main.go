// Command ctlbench measures the Tetris resource manager's control plane
// end to end: one in-process RM, driven over one loopback TCP connection
// by a closed-loop load generator replaying a seeded job stream on a
// virtual tick clock. See README.md.
//
//	ctlbench --workload deploy-backlog --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; reference figures go to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/tetris-sched/tetris/internal/stats"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 45, "start no arrangement that would end after this much wall time")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run and write its span file")
		out     = flag.String("out", ".bench_build", "directory for journals and span files")
	)
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: ctlbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// One P for the whole process. With more, idle Ps spin while a
	// frame's work moves between the connection, the RM and the shard
	// goroutines, and that spinning, a sixth of the process CPU on two
	// CPUs, rose and fell with the host's steal time. The goroutines
	// still interleave as before; they just take turns on one CPU.
	runtime.GOMAXPROCS(1)
	res, err := bench(sp, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctlbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctlbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundResult is one replay: set-up, tick phase and checks.
type roundResult struct {
	rec       *record
	err       error // a frame failed; the replay stopped early
	q         quality
	setupCPU  float64 // s
	setupWall float64 // s

	// Tick phase.
	tickCPU    float64 // process CPU s
	loadgenCPU float64 // CPU s of the load generator's locked thread
	tickWall   float64 // s
	beatCPU    []float64
	beatRTT    []float64 // wall µs per heartbeat frame (reference only)
	rssPeak    float64   // MiB, sampled at the end of every tick

	attempted, failed int
	layers            *layerSample // traced rounds only
	arrangement       int          // which of the seed's arrangements it replayed
}

// setups is how many times a run sets the system up and tears it down
// before its first replay. Each set-up is timed, as is each replay's own,
// and setup_s is the median of them all.
const setups = 5

// bench runs one benchmark invocation: the timed set-ups, then whole
// replays of the seed's arrangements in turn (see arrangementSeed), each
// replayed sp.repeats times, as many arrangements as fit in seconds and
// at least one. A traced run replays each arrangement twice and leaves
// its very first replay untraced, as its overhead baseline.
// It returns an error only when the system cannot be set up at all; a
// replay that goes wrong yields correct=false.
func bench(sp spec, seed int64, seconds float64, traced bool, out string) (*result, error) {
	in, err := makeInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	workDir, err := workDirFor(out)
	if err != nil {
		return nil, err
	}
	// The load generator runs on this goroutine; pinning it to one OS
	// thread lets its CPU be told apart from the RM's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	start := time.Now()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setupCPU, setupWall []float64
	for i := 0; i < setups; i++ {
		cpu, wall, attempted, err := setupOnly(in, workDir)
		res.Attempted += attempted
		if err != nil {
			return nil, err
		}
		setupCPU, setupWall = append(setupCPU, cpu), append(setupWall, wall)
	}
	repeats := sp.repeats
	if traced {
		repeats = 2
	}
	var rounds []*roundResult
	budget := time.Duration(seconds * float64(time.Second))
	for a := 0; res.Correct; a++ {
		began := time.Now()
		if a > 0 {
			if in, err = makeInputs(sp, arrangementSeed(seed, a)); err != nil {
				return nil, err
			}
		}
		var first *roundResult
		for k := 0; k < repeats && res.Correct; k++ {
			var tr *tracer
			if traced && len(rounds) > 0 {
				tr = newTracer()
			}
			rr, err := runRound(in, workDir, tr)
			if err != nil {
				return nil, err
			}
			rr.arrangement = a
			if first == nil {
				first = rr
			}
			rounds = append(rounds, rr)
			res.Attempted += rr.attempted
			res.Failed += rr.failed
			setupCPU, setupWall = append(setupCPU, rr.setupCPU), append(setupWall, rr.setupWall)
			if err := roundVerdict(rr, first); err != nil {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "ctlbench: %s seed %d arrangement %d round %d: %v\n", sp.name, seed, a, len(rounds), err)
				break
			}
			if tr != nil {
				path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d-round%d.jsonl", sp.name, seed, len(rounds)))
				if err := tr.writeSpans(path); err != nil {
					return nil, fmt.Errorf("write spans: %w", err)
				}
				fmt.Fprintf(os.Stderr, "ref: spans written to %s\n", path)
			}
		}
		// Start another arrangement only if one as long as the last still
		// ends within the run's time.
		if time.Since(start)+time.Since(began) > budget {
			break
		}
	}

	if traced {
		res.Metrics = layerMetrics(rounds)
	} else {
		res.Metrics = endToEnd(rounds, setupCPU)
	}
	reference(sp, seed, rounds, setupWall)
	return res, nil
}

// roundVerdict checks one replay and that it repeated the first one's
// placement outcome exactly: for a given seed the replay is
// deterministic.
func roundVerdict(rr, first *roundResult) error {
	if rr.err != nil {
		return rr.err
	}
	if err := verify(rr.rec); err != nil {
		return err
	}
	a, b := rr.rec, first.rec
	if rr.q != first.q || a.frames != b.frames || a.beats != b.beats || a.launches != b.launches {
		return fmt.Errorf("replay not deterministic: %+v %d/%d/%d frames/beats/launches, first replay %+v %d/%d/%d",
			rr.q, a.frames, a.beats, a.launches, first.q, b.frames, b.beats, b.launches)
	}
	return nil
}

// setupOnly sets the system up once and tears it down, returning the
// set-up's process CPU and wall seconds.
func setupOnly(in *inputs, workDir string) (cpu, wall float64, attempted int, err error) {
	runtime.GC()
	c0, w0 := processCPU(), time.Now()
	sys, err := newSystem(in, nil, workDir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer sys.close()
	s, err := dial(sys.addr(), nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.close()
	rp := newReplay(in, s)
	if err := rp.setup(); err != nil {
		return 0, 0, rp.attempted, fmt.Errorf("set-up: %w", err)
	}
	return (processCPU() - c0).Seconds(), time.Since(w0).Seconds(), rp.attempted, nil
}

// runRound sets up a fresh system (timed) and replays the inputs to the
// end. With a tracer it also gathers the per-layer sample.
func runRound(in *inputs, workDir string, tr *tracer) (*roundResult, error) {
	runtime.GC()
	c0, w0 := processCPU(), time.Now()
	sys, err := newSystem(in, tr, workDir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	s, err := dial(sys.addr(), tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rp := newReplay(in, s)
	rr := &roundResult{rec: rp.rec}
	rr.err = rp.setup()
	rr.setupCPU, rr.setupWall = (processCPU() - c0).Seconds(), time.Since(w0).Seconds()
	if rr.err == nil {
		runtime.GC()
		var before marks
		if tr != nil {
			before = takeMarks(sys, s)
		}
		p0, t0, w1 := processCPU(), threadCPU(), time.Now()
		rr.err = rp.run()
		rr.tickCPU = (processCPU() - p0).Seconds()
		rr.loadgenCPU = (threadCPU() - t0).Seconds()
		rr.tickWall = time.Since(w1).Seconds()
		if tr != nil {
			rr.layers, err = layerSampleOf(sys, s, rp, tr, before)
			if err != nil {
				return nil, err
			}
		}
		sys.inspect(rp.rec)
	}
	rr.q = rp.rec.quality()
	rr.beatCPU, rr.beatRTT, rr.rssPeak = rp.beatCPU, rp.rtt[kindBeat], rp.rssPeak
	rr.attempted, rr.failed = rp.attempted, rp.failed
	return rr, nil
}

// endToEnd computes the untraced run's end-to-end metrics.
func endToEnd(rounds []*roundResult, setupCPU []float64) map[string]metric {
	var beats int
	var rmCPU float64
	for _, r := range rounds {
		beats += r.rec.beats
		rmCPU += r.tickCPU - r.loadgenCPU
	}
	perBeat := frameCPU(rounds)
	q := rounds[0].q
	return map[string]metric{
		"setup_s":              {stats.Median(setupCPU), "s"},
		"beats_per_cpu_s":      {float64(beats) / rmCPU, "1/s"},
		"hb_cpu_us_p50":        {stats.Median(perBeat), "us"},
		"hb_cpu_us_p99":        {stats.Percentile(perBeat, 99), "us"},
		"jct_p50_ticks":        {q.jctP50, "ticks"},
		"makespan_ticks":       {q.makespan, "ticks"},
		"task_wait_ticks_mean": {q.waitMean, "ticks"},
		// Later replays start on the heap pages earlier ones left behind,
		// and how many replays fit in a run depends on the host, so only
		// the first replay's resident set is reported.
		"rss_peak_mb": {rounds[0].rssPeak, "MB"},
	}
}

// frameCPU is the per-beat CPU of each heartbeat frame, pooled over the
// run's arrangements. Where an arrangement was replayed twice, a frame's
// reading is the smaller of its two: the replays repeat the same frames
// with the same work, while a GC cycle, a journal snapshot or a busy host
// lands on different frames each time, so the smaller reading keeps the
// frame's own cost and drops most of what landed on it.
func frameCPU(rounds []*roundResult) []float64 {
	var out []float64
	for i := 0; i < len(rounds); {
		j := i + 1
		for j < len(rounds) && rounds[j].arrangement == rounds[i].arrangement {
			j++
		}
		a := rounds[i].beatCPU
		if j-i < 2 {
			out = append(out, a...)
		} else {
			b := rounds[i+1].beatCPU
			for k := range min(len(a), len(b)) {
				out = append(out, min(a[k], b[k]))
			}
		}
		i = j
	}
	return out
}

// reference prints wall-clock figures and replay sizes to standard
// error. Wall time on a shared VM swings with host steal, so these are
// for reading, not for comparing.
func reference(sp spec, seed int64, rounds []*roundResult, setupWall []float64) {
	var beats int
	var wall float64
	var rtt []float64
	for _, r := range rounds {
		beats += r.rec.beats
		wall += r.tickWall
		rtt = append(rtt, r.beatRTT...)
	}
	r0 := rounds[0].rec
	fmt.Fprintf(os.Stderr, "ref: %s seed %d: %d replays, %d jobs, %d ticks, %d frames, %d beats, %d launches, peak %d pending tasks per replay\n",
		sp.name, seed, len(rounds), len(r0.jobs), r0.ticks, r0.frames, r0.beats, r0.launches, r0.peakPending())
	hwm, _ := peakRSSMB()
	fmt.Fprintf(os.Stderr, "ref: wall: %.0f beats/s, beat-frame RTT p50 %.1f us p99 %.1f us, set-up median %.3f s, VmHWM %.1f MB\n",
		float64(beats)/wall, stats.Median(rtt), stats.Percentile(rtt, 99), stats.Median(setupWall), hwm)
}

// marks are the counters read at the start and end of a traced tick
// phase.
type marks struct {
	wchar              int64
	sent, recv         int64
	appends, snapshots uint64
	gcCPU, totalCPU    float64
	allocBytes         float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func takeMarks(sys *system, s *session) marks {
	var m marks
	m.appends, m.snapshots, _ = sys.journalStats() // flushes the journal queue first
	m.wchar, _ = writtenBytes()
	for k := range s.sent {
		m.sent += s.sent[k]
		m.recv += s.recv[k]
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}
	metrics.Read(samples)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	m.gcCPU, m.totalCPU, m.allocBytes = value(samples[0]), value(samples[1]), value(samples[2])
	return m
}
