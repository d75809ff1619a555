package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// spec is one workload: the fleet, the RM flavour and features it runs
// with, and the size of the job stream the seed expands into.
type spec struct {
	name     string
	nodes    int
	capacity resources.Vector
	// batch is the number of heartbeats per frame; 1 sends each beat in
	// its own NMHeartbeat frame, more coalesces them into one
	// HeartbeatBatch frame.
	batch int
	// shards > 0 runs rm.NewSharded with that many shards; 0 runs the
	// flat rm.New server.
	shards  int
	journal bool
	// estimator turns demand estimation on. Each estimate call walks the
	// whole fleet (largestMachine), so with it on, the pending tasks of
	// the moment set a fleet workload's per-beat cost; the fleet
	// workloads leave it off to measure the O(fleet) work of a round.
	estimator bool
	// tenants, when non-empty, turns admission on: jobs are submitted
	// round-robin under these tenants, whose quotas no job exceeds.
	tenants []string
	// Jobs arrive in waves: waves of them, one every waveEvery ticks
	// from tick 0, each of whole jobs totalling about waveTasks tasks.
	// The cost of a heartbeat round grows with the tasks waiting to be
	// placed, so waves of equal task count cost alike, and many waves
	// average out what one arrangement does to the metrics.
	waveTasks int
	waves     int
	waveEvery int
	// repeats is how many times a run replays each arrangement. With 2,
	// each heartbeat frame's reading is the smaller of its two (see
	// frameCPU): a one-beat frame costs a few hundred microseconds, and a
	// GC cycle or journal snapshot landing on it can multiply that. A
	// 64-beat frame carries what lands on it lightly (its smaller reading
	// was 3% below a single one), so the fleets replay each arrangement
	// once and measure twice as many arrangements in the same time.
	repeats int
	// tickSec is the virtual time of one tick: a task whose peak-rate
	// duration is d seconds runs ceil(d/tickSec) ticks, capped at
	// maxTaskTicks.
	tickSec float64
}

// maxTaskTicks caps a task's run length so one outlier cannot set the
// makespan alone.
const maxTaskTicks = 3

// workloads are the benchmark's workloads by name. Their make-up and
// the reason for each is in README.md.
var workloads = map[string]spec{
	"deploy-backlog": {
		name:      "deploy-backlog",
		nodes:     250,
		capacity:  cluster.FacebookProfile(),
		batch:     1,
		journal:   true,
		estimator: true,
		tenants:   []string{"etl", "analytics", "adhoc"},
		waveTasks: 350,
		waves:     20,
		waveEvery: 3,
		repeats:   2,
		tickSec:   30,
	},
	"fleet-flat": {
		name:      "fleet-flat",
		nodes:     2000,
		capacity:  cluster.FacebookProfile(),
		batch:     64,
		waveTasks: 200,
		waves:     16,
		waveEvery: 1,
		repeats:   1,
		tickSec:   20,
	},
	"fleet-sharded": {
		name:      "fleet-sharded",
		nodes:     2000,
		capacity:  cluster.FacebookProfile(),
		batch:     64,
		shards:    4,
		waveTasks: 200,
		waves:     16,
		waveEvery: 1,
		repeats:   1,
		tickSec:   20,
	},
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// jobInput is one job of the replay with everything the load generator
// needs to emulate it: when it arrives, under which tenant, and how many
// ticks each of its tasks runs.
type jobInput struct {
	job     *workload.Job
	tenant  string
	arrival int     // tick of submission
	ticks   [][]int // [stage][task] run length in ticks
}

// inputs is a workload expanded from a seed. The same seed always gives
// the same inputs.
type inputs struct {
	spec
	seed int64
	jobs []*jobInput // ascending arrival, then job ID
}

// suiteClass is the §5.1 suite class the replays draw their jobs from:
// small jobs, so that one replay holds dozens of independent jobs and
// the job mix, and with it every metric, varies little from seed to
// seed.
const suiteClass = "small-selective"

// poolSeed seeds the suite generator and the dealing of its jobs into
// waves. Every run replays the same waves; the run's seed decides the
// order of the jobs within each wave (and so their IDs), where their
// input blocks live and which tenant submits each. A job mix re-drawn
// per seed moved the CPU metrics by up to half between seeds (a handful
// of jobs with long-pending tasks cost a fleet-sized estimate every
// round), and a fixed mix dealt into waves per seed still moved
// deploy-backlog's by a quarter, because which jobs share a wave decides
// how long tasks wait to be placed. Both are far more than the noise
// between two runs of one seed, so the waves are held fixed and the seed
// varies what happens inside them.
const poolSeed = 1

// makeInputs draws jobs of suiteClass from the §5.1 suite generator, a
// few at a time so the pool never dominates the process's memory, until
// they hold waves × waveTasks tasks, and deals them into waves of about
// waveTasks tasks. The seed then shuffles the jobs within each wave and
// re-places every input block on a random node.
func makeInputs(sp spec, seed int64) (*inputs, error) {
	const chunk = 16
	var jobs []*jobInput
	tasks := 0
	for c := int64(0); tasks < sp.waves*sp.waveTasks; c++ {
		if c > 1000 {
			return nil, fmt.Errorf("the suite generator gave too few %s jobs", suiteClass)
		}
		pool := trace.GenerateSuite(trace.Config{Seed: poolSeed*1_000_003 + c, NumJobs: chunk, NumMachines: sp.nodes})
		for _, j := range pool.Jobs {
			if tasks >= sp.waves*sp.waveTasks || j.Name != suiteClass {
				continue
			}
			ji := &jobInput{job: j}
			for _, st := range j.Stages {
				ticks := make([]int, len(st.Tasks))
				for i, t := range st.Tasks {
					ticks[i] = taskTicks(t.PeakDuration(), sp.tickSec, maxTaskTicks)
				}
				ji.ticks = append(ji.ticks, ticks)
			}
			jobs = append(jobs, ji)
			tasks += j.NumTasks()
		}
	}

	// Deal the jobs into waves in an order fixed by poolSeed, so every
	// seed replays the same waves; the seed orders the jobs within each
	// wave, re-places their input blocks and picks their tenants.
	var waves [][]*jobInput
	filled := 0
	for _, k := range rand.New(rand.NewSource(poolSeed)).Perm(len(jobs)) {
		if len(waves) == 0 || (filled >= sp.waveTasks && len(waves) < sp.waves) {
			waves, filled = append(waves, nil), 0
		}
		waves[len(waves)-1] = append(waves[len(waves)-1], jobs[k])
		filled += jobs[k].job.NumTasks()
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: sp, seed: seed}
	for w, wave := range waves {
		for _, k := range rng.Perm(len(wave)) {
			ji := wave[k]
			renumber(ji.job, len(in.jobs))
			for _, st := range ji.job.Stages {
				for _, t := range st.Tasks {
					for b := range t.Inputs {
						t.Inputs[b].Machine = rng.Intn(sp.nodes)
					}
				}
			}
			if err := ji.job.Validate(); err != nil {
				return nil, fmt.Errorf("generated job %d: %w", ji.job.ID, err)
			}
			ji.arrival = w * sp.waveEvery
			if len(sp.tenants) > 0 {
				ji.tenant = sp.tenants[len(in.jobs)%len(sp.tenants)]
			}
			in.jobs = append(in.jobs, ji)
		}
	}
	return in, nil
}

// arrangementSeed is the seed of a run's arrangement a > 0; arrangement 0
// is the run's own seed. The fixed waves leave a seed to decide the order
// of jobs in a wave and where input blocks live, and that still moved the
// CPU metrics by a tenth or more between seeds; a run that measures
// several arrangements averages that out. The mix (SplitMix64's
// finaliser) keeps arrangements of nearby seeds apart.
func arrangementSeed(seed int64, a int) int64 {
	z := uint64(seed) + uint64(a)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// renumber gives a generated job a new ID, in its task IDs too.
func renumber(j *workload.Job, id int) {
	j.ID = id
	for _, st := range j.Stages {
		for _, t := range st.Tasks {
			t.ID.Job = id
		}
	}
}

// taskTicks converts a peak-rate duration in seconds into whole ticks.
func taskTicks(sec, tickSec float64, maxTicks int) int {
	switch t := math.Ceil(sec / tickSec); {
	case !(t >= 1): // also NaN
		return 1
	case t >= float64(maxTicks): // also +Inf
		return maxTicks
	default:
		return int(t)
	}
}
