package main

import (
	"errors"
	"fmt"

	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/wire"
)

// stamp orders events on the wire: the frame that carried them and the
// entry inside a batch frame. The RM handles a frame's entries in order,
// so a launch answering entry e of frame f may depend on completions at
// or before (f, e) and on nothing later.
type stamp struct{ frame, entry int }

func (a stamp) before(b stamp) bool {
	return a.frame < b.frame || (a.frame == b.frame && a.entry < b.entry)
}

// taskRec is the load generator's own record of one task.
type taskRec struct {
	ticks            int // run length
	launches         int
	completions      int
	launchTick       int
	launchAt, doneAt stamp
}

// jobRec is the load generator's own record of one job: its DAG and
// arrival from the inputs, what it saw happen to its tasks, and the last
// progress reply the RM gave its AM.
type jobRec struct {
	id      int
	arrival int
	deps    [][]int      // [stage] parent stages
	tasks   [][]*taskRec // [stage][index]
	total   int          // task count

	accepted bool
	// Progress as the load generator saw it.
	stageDone    []int
	runnableTick []int // [stage] tick its tasks became runnable; -1 before
	doneTasks    int
	lastDoneTick int
	// am is the last AMReply for the job; amTick is the tick its AM first
	// saw it finished (-1 before).
	am     wire.AMReply
	amTick int
}

// record is everything a replay observed, checked by the functions in
// checks and summarised into the tick metrics.
type record struct {
	jobs []*jobRec

	frames, beats, launches int
	kills, preempts         int
	ticks                   int // ticks run, tick 0 included

	// RM-side facts read once the replay ends.
	deadNodes []int
	faults    int
	ledgerErr error
	undrained []string // servers whose free headroom is not their capacity
}

// check is one correctness condition over a record.
type check struct {
	name string
	fn   func(*record) error
}

var checks = []check{
	{"jobs-finished", checkJobsFinished},
	{"launched-once", checkLaunchedOnce},
	{"dag-order", checkDAGOrder},
	{"no-faults", checkNoFaults},
	{"ledger", checkLedger},
	{"critical-path", checkCriticalPath},
}

// verify runs every check and joins their failures.
func verify(r *record) error {
	var errs []error
	for _, c := range checks {
		if err := c.fn(r); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, err))
		}
	}
	return errors.Join(errs...)
}

// checkJobsFinished: the RM accepted every job, and its own AM reply
// reports it finished, not failed, with done equal to total, in the very
// tick the load generator reported the job's last completion.
func checkJobsFinished(r *record) error {
	for _, j := range r.jobs {
		switch {
		case !j.accepted:
			return fmt.Errorf("job %d was not accepted", j.id)
		case !j.am.Finished || j.am.Failed:
			return fmt.Errorf("job %d: AM reply finished=%v failed=%v", j.id, j.am.Finished, j.am.Failed)
		case j.am.Done != j.am.Total || j.am.Total != j.total:
			return fmt.Errorf("job %d: AM reply done %d total %d, job has %d tasks", j.id, j.am.Done, j.am.Total, j.total)
		case j.doneTasks != j.total:
			return fmt.Errorf("job %d: %d of %d tasks completed", j.id, j.doneTasks, j.total)
		case j.amTick != j.lastDoneTick:
			return fmt.Errorf("job %d: AM saw it finish at tick %d, last completion at tick %d", j.id, j.amTick, j.lastDoneTick)
		}
	}
	return nil
}

// checkLaunchedOnce: every task was launched exactly once and completed
// exactly once.
func checkLaunchedOnce(r *record) error {
	for _, j := range r.jobs {
		for s, tasks := range j.tasks {
			for i, t := range tasks {
				if t.launches != 1 || t.completions != 1 {
					return fmt.Errorf("task %d/%d/%d launched %d times, completed %d times",
						j.id, s, i, t.launches, t.completions)
				}
			}
		}
	}
	return nil
}

// checkDAGOrder: no task launched before every task of its parent
// stages had completed.
func checkDAGOrder(r *record) error {
	for _, j := range r.jobs {
		for s, tasks := range j.tasks {
			var ready stamp // the last completion among the parents
			for _, p := range j.deps[s] {
				for _, pt := range j.tasks[p] {
					if ready.before(pt.doneAt) {
						ready = pt.doneAt
					}
				}
			}
			for i, t := range tasks {
				if t.launchAt.before(ready) {
					return fmt.Errorf("task %d/%d/%d launched at %v, before its parents finished at %v",
						j.id, s, i, t.launchAt, ready)
				}
			}
		}
	}
	return nil
}

// checkNoFaults: no node was declared dead and no kill or preempt order
// reached a node.
func checkNoFaults(r *record) error {
	if len(r.deadNodes) > 0 || r.faults > 0 {
		return fmt.Errorf("%d nodes dead, %d fault events", len(r.deadNodes), r.faults)
	}
	if r.kills > 0 || r.preempts > 0 {
		return fmt.Errorf("%d kill and %d preempt orders", r.kills, r.preempts)
	}
	return nil
}

// checkLedger: the RM's VerifyLedger passed and every allocation drained
// back to zero once all jobs finished.
func checkLedger(r *record) error {
	if r.ledgerErr != nil {
		return r.ledgerErr
	}
	if len(r.undrained) > 0 {
		return fmt.Errorf("allocations not drained: %v", r.undrained)
	}
	return nil
}

// criticalPath is the least number of ticks a job can take: the longest
// chain of stages, each counted at its longest task.
func (j *jobRec) criticalPath() int {
	memo := make([]int, len(j.tasks))
	var path func(s int) int
	path = func(s int) int {
		if memo[s] > 0 {
			return memo[s]
		}
		longest := 0
		for _, t := range j.tasks[s] {
			if t.ticks > longest {
				longest = t.ticks
			}
		}
		before := 0
		for _, p := range j.deps[s] {
			if d := path(p); d > before {
				before = d
			}
		}
		memo[s] = before + longest
		return memo[s]
	}
	cp := 0
	for s := range j.tasks {
		if d := path(s); d > cp {
			cp = d
		}
	}
	return cp
}

// checkCriticalPath: no job finished sooner than its arrival plus its
// critical path.
func checkCriticalPath(r *record) error {
	for _, j := range r.jobs {
		if cp := j.criticalPath(); j.lastDoneTick < j.arrival+cp {
			return fmt.Errorf("job %d finished at tick %d, arrival %d + critical path %d",
				j.id, j.lastDoneTick, j.arrival, cp)
		}
	}
	return nil
}

// quality is the replay's placement outcome in virtual ticks. For a
// given seed it is the same on every run.
type quality struct {
	jctP50   float64
	makespan float64
	waitMean float64
}

func (r *record) quality() quality {
	var jct, wait []float64
	first, last := -1, 0
	for _, j := range r.jobs {
		jct = append(jct, float64(j.lastDoneTick-j.arrival))
		if first < 0 || j.arrival < first {
			first = j.arrival
		}
		if j.lastDoneTick > last {
			last = j.lastDoneTick
		}
		for s, tasks := range j.tasks {
			for _, t := range tasks {
				wait = append(wait, float64(t.launchTick-j.runnableTick[s]))
			}
		}
	}
	return quality{jctP50: stats.Median(jct), makespan: float64(last - first), waitMean: stats.Mean(wait)}
}

// peakPending is the most tasks runnable but not yet launched at the end
// of any tick.
func (r *record) peakPending() int {
	pending := make([]int, r.ticks+1)
	for _, j := range r.jobs {
		for s, tasks := range j.tasks {
			for _, t := range tasks {
				for tick := j.runnableTick[s]; tick >= 0 && tick < t.launchTick && tick < len(pending); tick++ {
					pending[tick]++
				}
			}
		}
	}
	peak := 0
	for _, n := range pending {
		if n > peak {
			peak = n
		}
	}
	return peak
}
