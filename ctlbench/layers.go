package main

import (
	"fmt"
	"os"

	"github.com/tetris-sched/tetris/internal/stats"
)

// layerSample is what one traced replay measured of each layer.
type layerSample struct {
	beats, beatFrames, launches int
	reqBytes, replyBytes        int64
	encodeNs, decodeNs          int64 // heartbeat frames, load generator side
	registerRTT, submitRTT      []float64
	scheds                      []schedSpan
	shards                      int
	jobsPerShard                []int
	nmHist, amHist, fsyncHist   histogram

	appends, snapshots uint64
	journalBytes       int64

	gcCPU, runtimeCPU, allocBytes float64
}

// layerSampleOf reads a traced replay's layer figures once its tick
// phase has ended.
func layerSampleOf(sys *system, s *session, rp *replay, tr *tracer, before marks) (*layerSample, error) {
	after := takeMarks(sys, s)
	ls := &layerSample{
		beats:        rp.rec.beats,
		launches:     rp.rec.launches,
		reqBytes:     s.sent[kindBeat],
		replyBytes:   s.recv[kindBeat],
		registerRTT:  rp.rtt[kindRegister],
		submitRTT:    rp.rtt[kindSubmit],
		scheds:       tr.scheds,
		shards:       len(sys.servers()),
		jobsPerShard: sys.jobsPerShard(rp.rec),
		gcCPU:        after.gcCPU - before.gcCPU,
		runtimeCPU:   after.totalCPU - before.totalCPU,
		allocBytes:   after.allocBytes - before.allocBytes,
	}
	for _, f := range tr.frames {
		if f.kind == kindBeat {
			ls.beatFrames++
			ls.encodeNs += f.encoded - f.start
			ls.decodeNs += f.decoded - f.received
		}
	}
	var err error
	if ls.nmHist, err = readHistogram(sys.reg, "tetris_rm_nm_heartbeat_seconds"); err != nil {
		return nil, err
	}
	if ls.amHist, err = readHistogram(sys.reg, "tetris_rm_am_heartbeat_seconds"); err != nil {
		return nil, err
	}
	if ls.fsyncHist, err = readHistogram(sys.reg, "tetris_rm_journal_fsync_seconds"); err != nil {
		return nil, err
	}
	if _, _, ok := sys.journalStats(); ok {
		ls.appends = after.appends - before.appends
		_, ls.snapshots, _ = sys.journalStats()
		// Every byte the process wrote in the tick phase went either to the
		// socket (both directions are this process) or to the journal.
		ls.journalBytes = (after.wchar - before.wchar) - (after.sent - before.sent) - (after.recv - before.recv)
	}
	return ls, nil
}

// layerMetrics computes the per-layer metrics of a traced run: rounds[0]
// is its untraced baseline, the rest are traced.
func layerMetrics(rounds []*roundResult) map[string]metric {
	base := rounds[0]
	var (
		t                                                 layerSample
		nm, am, fsync                                     histogram
		roundSelf                                         []float64
		schedNs, estNs, estCalls                          int64
		placing, machines, down, snapshots, tracedRoundsN int
		shardNs                                           map[int]int64
		perShardJobs                                      []int
		tracedBeats                                       int
		tracedRMCPU                                       float64
	)
	shardNs = map[int]int64{}
	for _, r := range rounds[1:] {
		ls := r.layers
		tracedRoundsN++
		t.beats += ls.beats
		t.beatFrames += ls.beatFrames
		t.launches += ls.launches
		t.reqBytes += ls.reqBytes
		t.replyBytes += ls.replyBytes
		t.encodeNs += ls.encodeNs
		t.decodeNs += ls.decodeNs
		t.registerRTT = append(t.registerRTT, ls.registerRTT...)
		t.submitRTT = append(t.submitRTT, ls.submitRTT...)
		t.appends += ls.appends
		t.journalBytes += ls.journalBytes
		t.gcCPU += ls.gcCPU
		t.runtimeCPU += ls.runtimeCPU
		t.allocBytes += ls.allocBytes
		t.shards = ls.shards
		snapshots += int(ls.snapshots)
		nm.merge(ls.nmHist)
		am.merge(ls.amHist)
		fsync.merge(ls.fsyncHist)
		for _, sp := range ls.scheds {
			d := sp.end - sp.start
			schedNs += d
			shardNs[sp.shard] += d
			estNs += sp.estNs
			estCalls += sp.estCalls
			roundSelf = append(roundSelf, float64(d-sp.estNs)/1e3)
			machines += sp.machines
			down += sp.down
			if sp.placed > 0 {
				placing++
			}
		}
		t.scheds = append(t.scheds, ls.scheds...)
		perShardJobs = ls.jobsPerShard
		tracedBeats += r.rec.beats
		tracedRMCPU += r.tickCPU - r.loadgenCPU
	}
	rounds_ := float64(len(t.scheds))
	beats := float64(t.beats)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	shardTimes := make([]float64, t.shards)
	for i := range shardTimes {
		shardTimes[i] = float64(shardNs[i])
	}
	jobs := make([]float64, len(perShardJobs))
	for i, n := range perShardJobs {
		jobs[i] = float64(n)
	}
	baseBPC := ratio(float64(base.rec.beats), base.tickCPU-base.loadgenCPU)
	tracedBPC := ratio(float64(tracedBeats), tracedRMCPU)

	m := map[string]metric{
		"wire.req_bytes_per_beat":   {ratio(float64(t.reqBytes), beats), "B"},
		"wire.reply_bytes_per_beat": {ratio(float64(t.replyBytes), beats), "B"},
		"wire.encode_us_per_frame":  {ratio(float64(t.encodeNs)/1e3, float64(t.beatFrames)), "us"},
		"wire.decode_us_per_frame":  {ratio(float64(t.decodeNs)/1e3, float64(t.beatFrames)), "us"},

		"rm.register_us_p50":              {stats.Median(t.registerRTT), "us"},
		"rm.submit_us_p50":                {stats.Median(t.submitRTT), "us"},
		"rm.am_poll_us_p50":               {am.quantile(0.5) * 1e6, "us"},
		"rm.hb_handle_us_p50":             {nm.quantile(0.5) * 1e6, "us"},
		"rm.hb_handle_us_p99":             {nm.quantile(0.99) * 1e6, "us"},
		"rm.outside_schedule_us_per_beat": {ratio(nm.sum*1e6-float64(schedNs)/1e3, beats), "us"},

		"scheduler.rounds_per_beat":    {ratio(rounds_, beats), "count"},
		"scheduler.placing_round_frac": {ratio(float64(placing), rounds_), "fraction"},
		"scheduler.round_us_p50":       {stats.Median(roundSelf), "us"},
		"scheduler.round_us_p99":       {stats.Percentile(roundSelf, 99), "us"},
		"scheduler.view_machines_mean": {ratio(float64(machines), rounds_), "count"},
		"scheduler.view_down_frac":     {ratio(float64(down), float64(machines)), "fraction"},

		"estimate.calls_per_round": {ratio(float64(estCalls), rounds_), "count"},
		"estimate.ns_per_call":     {ratio(float64(estNs), float64(estCalls)), "ns"},

		"journal.appends_per_beat": {ratio(float64(t.appends), beats), "count"},
		"journal.bytes_per_launch": {ratio(float64(t.journalBytes), float64(t.launches)), "B"},
		"journal.snapshots":        {ratio(float64(snapshots), float64(tracedRoundsN)), "count"},
		"journal.fsync_ms_p50":     {fsync.quantile(0.5) * 1e3, "ms"},

		"router.jobs_max_over_mean":       {maxOverMean(jobs), "ratio"},
		"shard.schedule_us_max_over_mean": {maxOverMean(shardTimes), "ratio"},

		"runtime.gc_cpu_frac":          {ratio(t.gcCPU, t.runtimeCPU), "fraction"},
		"runtime.alloc_bytes_per_beat": {ratio(t.allocBytes, beats), "B"},

		"loadgen.cpu_frac":    {ratio(base.loadgenCPU, base.tickCPU), "fraction"},
		"trace.overhead_frac": {ratio(baseBPC, tracedBPC) - 1, "fraction"},
	}
	fmt.Fprintf(os.Stderr, "ref: traced %d replays, %d Schedule calls\n", tracedRoundsN, len(t.scheds))
	return m
}

// maxOverMean is max(xs)/mean(xs): 1 when evenly spread.
func maxOverMean(xs []float64) float64 {
	mx, m := 0.0, stats.Mean(xs)
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	if m == 0 {
		return 0
	}
	return mx / m
}
