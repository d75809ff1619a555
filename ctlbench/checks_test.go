package main

import (
	"errors"
	"strings"
	"testing"
)

// tinyRecord replays a shrunk deploy-backlog workload through a real RM
// and returns the record, which passes every check.
func tinyRecord(t *testing.T) *record {
	t.Helper()
	in, err := makeInputs(tiny("deploy-backlog"), 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newSystem(in, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	s, err := dial(sys.addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	r := newReplay(in, s)
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	sys.inspect(r.rec)
	if err := verify(r.rec); err != nil {
		t.Fatalf("clean replay fails its checks: %v", err)
	}
	return r.rec
}

// childStage returns a job with a stage that depends on another, and
// that stage's index.
func childStage(t *testing.T, r *record) (*jobRec, int) {
	t.Helper()
	for _, j := range r.jobs {
		for s, deps := range j.deps {
			if len(deps) > 0 {
				return j, s
			}
		}
	}
	t.Fatal("no job with a dependent stage")
	return nil, 0
}

// TestChecksCatchViolations feeds each check a record with one
// violation and sees it, and only the checks that should, fail.
func TestChecksCatchViolations(t *testing.T) {
	cases := []struct {
		check  string
		break_ func(t *testing.T, r *record)
	}{
		{"launched-once", func(t *testing.T, r *record) { r.jobs[0].tasks[0][0].launches = 2 }},
		{"launched-once", func(t *testing.T, r *record) { r.jobs[0].tasks[0][0].completions = 0 }},
		{"dag-order", func(t *testing.T, r *record) {
			j, s := childStage(t, r)
			parent := j.tasks[j.deps[s][0]][0]
			j.tasks[s][0].launchAt = stamp{parent.doneAt.frame - 1, 0}
		}},
		{"jobs-finished", func(t *testing.T, r *record) { r.jobs[0].am.Failed = true }},
		{"jobs-finished", func(t *testing.T, r *record) { r.jobs[0].am.Done-- }},
		{"jobs-finished", func(t *testing.T, r *record) { r.jobs[0].accepted = false }},
		{"jobs-finished", func(t *testing.T, r *record) { r.jobs[0].amTick++ }},
		{"no-faults", func(t *testing.T, r *record) { r.deadNodes = []int{3} }},
		{"no-faults", func(t *testing.T, r *record) { r.kills = 1 }},
		{"no-faults", func(t *testing.T, r *record) { r.preempts = 1 }},
		{"ledger", func(t *testing.T, r *record) { r.ledgerErr = errors.New("machine 2 ledger drift") }},
		{"ledger", func(t *testing.T, r *record) { r.undrained = []string{"server 0"} }},
		{"critical-path", func(t *testing.T, r *record) {
			j := r.jobs[len(r.jobs)-1]
			j.lastDoneTick = j.arrival + j.criticalPath() - 1
		}},
	}
	for _, c := range cases {
		r := tinyRecord(t)
		c.break_(t, r)
		var fn func(*record) error
		for _, ch := range checks {
			if ch.name == c.check {
				fn = ch.fn
			}
		}
		if err := fn(r); err == nil {
			t.Errorf("%s passed a record that breaks it", c.check)
		}
		if err := verify(r); err == nil || !strings.Contains(err.Error(), c.check+":") {
			t.Errorf("verify did not report %s: %v", c.check, err)
		}
	}
}

// TestCriticalPath: the critical path is the longest chain of stages,
// each at its longest task.
func TestCriticalPath(t *testing.T) {
	task := func(ticks int) *taskRec { return &taskRec{ticks: ticks} }
	j := &jobRec{
		deps:  [][]int{nil, nil, {0, 1}},
		tasks: [][]*taskRec{{task(1), task(3)}, {task(2)}, {task(2), task(1)}},
	}
	if got := j.criticalPath(); got != 5 {
		t.Fatalf("critical path %d, want 5", got)
	}
}
