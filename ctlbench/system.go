package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
)

// nodeTimeout keeps failure detection on, far above the wall time of
// one tick, so a healthy replay never trips it.
const nodeTimeout = 10 * time.Minute

// system is the RM under test, flat or sharded, with its telemetry
// registry and journal directory.
type system struct {
	flat       *rm.Server
	sharded    *rm.Sharded
	reg        *telemetry.Registry
	journalDir string
}

// newSystem starts the workload's RM on a loopback port. With a tracer,
// every shard's scheduler is wrapped in a tracedScheduler. The
// scheduler is the default Tetris core with the starvation guard off
// and no gang coordinator: both read the RM's wall clock, and placement
// must depend on the inputs alone.
func newSystem(in *inputs, tr *tracer, workDir string) (*system, error) {
	sys := &system{reg: telemetry.NewRegistry()}
	shard := 0
	newSched := func() scheduler.Scheduler {
		var s scheduler.Scheduler = scheduler.NewTetris(scheduler.DefaultTetrisConfig())
		if tr != nil {
			s = &tracedScheduler{inner: s, tr: tr, shard: shard}
		}
		shard++
		return s
	}
	if in.journal {
		dir, err := os.MkdirTemp(workDir, "journal-")
		if err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		sys.journalDir = dir
	}
	var newEst func() *estimator.Estimator
	if in.estimator {
		newEst = estimator.New
	}
	var err error
	if in.shards > 0 {
		sys.sharded, err = rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
			Shards:       in.shards,
			NewScheduler: newSched,
			NewEstimator: newEst,
			NodeTimeout:  nodeTimeout,
			JournalDir:   sys.journalDir,
			Admission:    admission(in.tenants),
			Metrics:      sys.reg,
		})
	} else {
		cfg := rm.Config{
			Scheduler:   newSched(),
			NodeTimeout: nodeTimeout,
			JournalDir:  sys.journalDir,
			Admission:   admission(in.tenants),
			Metrics:     sys.reg,
		}
		if newEst != nil {
			cfg.Estimator = newEst()
		}
		sys.flat, err = rm.New("127.0.0.1:0", cfg)
	}
	if err != nil {
		sys.removeJournal()
		return nil, fmt.Errorf("start rm: %w", err)
	}
	return sys, nil
}

// admission gives each tenant a weight for hierarchical fairness and a
// queued-job quota no replay reaches; rate limiting stays off because
// its token buckets refill on the wall clock.
func admission(tenants []string) *rm.AdmissionConfig {
	if len(tenants) == 0 {
		return nil
	}
	cfg := &rm.AdmissionConfig{
		Defaults: rm.TenantLimits{MaxQueuedJobs: 1 << 20},
		Tenants:  map[string]rm.TenantLimits{},
	}
	for i, t := range tenants {
		cfg.Tenants[t] = rm.TenantLimits{MaxQueuedJobs: 1 << 20, Weight: float64(len(tenants) - i)}
	}
	return cfg
}

func (s *system) addr() string {
	if s.sharded != nil {
		return s.sharded.Addr()
	}
	return s.flat.Addr()
}

// servers are the RM cores: the flat server, or every shard.
func (s *system) servers() []*rm.Server {
	if s.sharded == nil {
		return []*rm.Server{s.flat}
	}
	out := make([]*rm.Server, s.sharded.NumShards())
	for i := range out {
		out[i] = s.sharded.Shard(i)
	}
	return out
}

func (s *system) journalStats() (appends, snapshots uint64, ok bool) {
	if s.sharded != nil {
		return s.sharded.JournalStats()
	}
	return s.flat.JournalStats()
}

func (s *system) clusterStatus() wire.ClusterStatusReply {
	if s.sharded != nil {
		return s.sharded.ClusterStatus()
	}
	return s.flat.ClusterStatus()
}

// jobsPerShard counts the jobs routed to each shard (one entry for the
// flat RM).
func (s *system) jobsPerShard(r *record) []int {
	if s.sharded == nil {
		return []int{len(r.jobs)}
	}
	counts := make([]int, s.sharded.NumShards())
	for _, j := range r.jobs {
		if sh, ok := s.sharded.JobShard(j.id); ok {
			counts[sh]++
		}
	}
	return counts
}

// inspect reads the RM-side facts the checks need into r: dead nodes,
// fault events, the ledger invariant and whether every allocation
// drained back to zero.
func (s *system) inspect(r *record) {
	st := s.clusterStatus()
	r.deadNodes = st.Dead
	r.faults = len(st.Faults)
	for i, srv := range s.servers() {
		if err := srv.VerifyLedger(); err != nil && r.ledgerErr == nil {
			r.ledgerErr = fmt.Errorf("server %d: %w", i, err)
		}
		v := srv.RoutingSummary()
		for k := range v.Capacity {
			if d := v.Capacity[k] - v.Free[k]; d > 1e-6*v.Capacity[k] {
				r.undrained = append(r.undrained, fmt.Sprintf("server %d: free %v of capacity %v", i, v.Free, v.Capacity))
				break
			}
		}
	}
}

func (s *system) close() error {
	var err error
	if s.sharded != nil {
		err = s.sharded.Close()
	} else {
		err = s.flat.Close()
	}
	s.removeJournal()
	return err
}

func (s *system) removeJournal() {
	if s.journalDir != "" {
		os.RemoveAll(s.journalDir)
	}
}

// workDirFor makes the directory journals live in under out.
func workDirFor(out string) (string, error) {
	dir := filepath.Join(out, "work")
	return dir, os.MkdirAll(dir, 0o755)
}
