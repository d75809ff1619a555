package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// frameKind names what a frame carries, for spans and counters.
type frameKind int

const (
	kindRegister frameKind = iota
	kindSubmit
	kindBeat
	kindPoll
	numKinds
)

var kindNames = [numKinds]string{"register", "submit", "beat", "poll"}

// session is the load generator's one connection to the RM. It writes
// binary frames (cold message types fall back to JSON frames inside the
// codec) and reads whole reply frames off the socket before decoding
// them, so encode and decode can be timed apart from the wait.
type session struct {
	conn   net.Conn
	br     *bufio.Reader
	framer *wire.Framer
	wbuf   bytes.Buffer
	frame  []byte
	rd     bytes.Reader
	tr     *tracer // nil when untraced

	seq        int // frames exchanged so far
	sent, recv [numKinds]int64
}

func dial(addr string, tr *tracer) (*session, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial rm: %w", err)
	}
	return &session{
		conn:   c,
		br:     bufio.NewReaderSize(c, 64<<10),
		framer: wire.NewFramer(wire.CodecBinary),
		tr:     tr,
	}, nil
}

func (s *session) close() error { return s.conn.Close() }

// exchange sends m and waits for its reply: the loop is closed, one frame
// in flight. The reply aliases the framer's decode scratch and is valid
// only until the next exchange; callers copy what they keep.
func (s *session) exchange(kind frameKind, beats int, m *wire.Message) (*wire.Message, error) {
	s.seq++
	var sp frameSpan
	if s.tr != nil {
		sp = s.tr.beginFrame(s.seq, kind, beats)
	}
	s.wbuf.Reset()
	if err := s.framer.Write(&s.wbuf, m); err != nil {
		return nil, fmt.Errorf("encode %s: %w", m.Type, err)
	}
	if s.tr != nil {
		sp.encoded = s.tr.now()
	}
	if _, err := s.conn.Write(s.wbuf.Bytes()); err != nil {
		return nil, fmt.Errorf("write %s: %w", m.Type, err)
	}
	s.sent[kind] += int64(s.wbuf.Len())

	// Every request goes out as a v1 frame, and the RM replies in kind:
	// magic, codec byte, 4-byte big-endian length, payload.
	const hdrLen = 6
	if cap(s.frame) < hdrLen {
		s.frame = make([]byte, hdrLen, 4096)
	}
	hdr := s.frame[:hdrLen]
	if _, err := io.ReadFull(s.br, hdr); err != nil {
		return nil, fmt.Errorf("read %s reply: %w", m.Type, err)
	}
	if hdr[0] != wire.Magic {
		return nil, fmt.Errorf("%s reply is not a v1 frame (first byte 0x%02x)", m.Type, hdr[0])
	}
	n := int(binary.BigEndian.Uint32(hdr[2:]))
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("%s reply announces %d bytes", m.Type, n)
	}
	if cap(s.frame) < hdrLen+n {
		grown := make([]byte, hdrLen, hdrLen+n)
		copy(grown, hdr)
		s.frame = grown
	}
	s.frame = s.frame[:hdrLen+n]
	if _, err := io.ReadFull(s.br, s.frame[hdrLen:]); err != nil {
		return nil, fmt.Errorf("read %s reply: %w", m.Type, err)
	}
	s.recv[kind] += int64(hdrLen + n)
	if s.tr != nil {
		sp.received = s.tr.now()
	}
	s.rd.Reset(s.frame)
	reply, err := s.framer.Read(&s.rd)
	if err != nil {
		return nil, fmt.Errorf("decode %s reply: %w", m.Type, err)
	}
	if s.tr != nil {
		s.tr.endFrame(sp)
	}
	return reply, nil
}

// running is a task executing on an emulated node.
type running struct {
	task   workload.TaskID
	demand resources.Vector
	due    int // tick its completion is reported
}

// node is one emulated node manager: the tasks it runs, and the sender
// side of delta heartbeats.
type node struct {
	id      int
	running []running
	delta   wire.DeltaTracker
}

// used is the node's usage report: the sum of its running tasks' peak
// demands, summed in launch order so equal sets give equal bits.
func (n *node) used() resources.Vector {
	var u resources.Vector
	for _, r := range n.running {
		u = u.Add(r.demand)
	}
	return u
}

// takeDue removes and returns the node's completions due at tick.
func (n *node) takeDue(tick int, dst []wire.TaskCompletion) []wire.TaskCompletion {
	kept := n.running[:0]
	for _, r := range n.running {
		if r.due != tick {
			kept = append(kept, r)
			continue
		}
		dst = append(dst, wire.TaskCompletion{Task: r.task, Usage: r.demand})
	}
	n.running = kept
	return dst
}

// replay drives one RM through a workload's inputs over one session:
// register every node, submit the tick-0 jobs, then tick until every job
// is finished. Each tick, every node sends one heartbeat with its usage
// and the completions due, jobs arriving at the tick are submitted
// first, and each unfinished job's AM polls once after the beats.
type replay struct {
	in    *inputs
	s     *session
	nodes []*node
	rec   *record
	byID  map[int]*jobRec
	tick  int

	attempted, failed int

	beatCPU []float64           // process CPU µs per beat, per heartbeat frame
	rtt     [numKinds][]float64 // wall µs per frame (reference only)

	// rssPeak is the largest resident set seen at the end of a tick.
	rssPeak float64

	beats    []wire.NMHeartbeat
	sentDone [][]wire.TaskCompletion
}

// maxTicks bounds a replay that stops making progress.
const maxTicks = 10000

func newReplay(in *inputs, s *session) *replay {
	r := &replay{in: in, s: s, rec: &record{}, byID: make(map[int]*jobRec)}
	for i := 0; i < in.nodes; i++ {
		r.nodes = append(r.nodes, &node{id: i})
	}
	for _, ji := range in.jobs {
		j := &jobRec{
			id:           ji.job.ID,
			arrival:      ji.arrival,
			total:        ji.job.NumTasks(),
			amTick:       -1,
			lastDoneTick: -1,
		}
		for s, st := range ji.job.Stages {
			j.deps = append(j.deps, append([]int(nil), st.Deps...))
			tasks := make([]*taskRec, len(st.Tasks))
			for i := range tasks {
				tasks[i] = &taskRec{ticks: ji.ticks[s][i], launchTick: -1}
			}
			j.tasks = append(j.tasks, tasks)
			j.runnableTick = append(j.runnableTick, -1)
		}
		j.stageDone = make([]int, len(j.tasks))
		r.rec.jobs = append(r.rec.jobs, j)
		r.byID[j.id] = j
	}
	return r
}

// timed runs one exchange and records its wall round-trip time.
func (r *replay) timed(kind frameKind, beats int, m *wire.Message) (*wire.Message, error) {
	r.attempted++
	t0 := time.Now()
	reply, err := r.s.exchange(kind, beats, m)
	if err != nil {
		r.failed++
		return nil, err
	}
	r.rtt[kind] = append(r.rtt[kind], float64(time.Since(t0).Nanoseconds())/1e3)
	r.rec.frames++
	return reply, nil
}

// setup registers every node over the wire and submits the tick-0 jobs.
func (r *replay) setup() error {
	for _, n := range r.nodes {
		reply, err := r.timed(kindRegister, 0, &wire.Message{Type: wire.TypeRegisterNM,
			RegisterNM: &wire.RegisterNM{NodeID: n.id, Capacity: r.in.capacity}})
		if err != nil {
			return err
		}
		if reply.Type != wire.TypeNMReply {
			r.failed++
			return fmt.Errorf("register node %d: %s reply %q", n.id, reply.Type, reply.Error)
		}
		r.rec.kills += len(reply.NMReply.Kill)
		n.delta.Reset() // a new session opens with a full report
	}
	return r.submitArrivals()
}

// submitArrivals submits the jobs arriving at the current tick.
func (r *replay) submitArrivals() error {
	for _, ji := range r.in.jobs {
		if ji.arrival != r.tick {
			continue
		}
		reply, err := r.timed(kindSubmit, 0, &wire.Message{Type: wire.TypeSubmitJob,
			SubmitJob: &wire.SubmitJob{Job: ji.job, Tenant: ji.tenant}})
		if err != nil {
			return err
		}
		j := r.byID[ji.job.ID]
		switch {
		case reply.Type == wire.TypeAMReply && reply.AMReply.Total == j.total:
			j.accepted = true
		case reply.Type == wire.TypeSubmitReject:
			r.failed++
			return fmt.Errorf("job %d rejected: %s: %s", j.id, reply.SubmitReject.Code, reply.SubmitReject.Reason)
		default:
			r.failed++
			return fmt.Errorf("job %d: %s reply %q", j.id, reply.Type, reply.Error)
		}
		for s, deps := range j.deps {
			if len(deps) == 0 {
				j.runnableTick[s] = r.tick
			}
		}
	}
	return nil
}

// run ticks until every job is finished.
func (r *replay) run() error {
	for r.tick = 0; ; r.tick++ {
		if r.tick > 0 {
			if err := r.submitArrivals(); err != nil {
				return err
			}
		}
		for start := 0; start < len(r.nodes); start += r.in.batch {
			end := start + r.in.batch
			if end > len(r.nodes) {
				end = len(r.nodes)
			}
			if err := r.beatFrame(r.nodes[start:end]); err != nil {
				return fmt.Errorf("tick %d: %w", r.tick, err)
			}
		}
		open, err := r.pollAMs()
		if err != nil {
			return fmt.Errorf("tick %d: %w", r.tick, err)
		}
		r.rec.ticks = r.tick + 1
		if mb, err := residentMB(); err == nil && mb > r.rssPeak {
			r.rssPeak = mb
		}
		if open == 0 && r.tick >= r.lastArrival() {
			return nil
		}
		if r.tick >= maxTicks {
			return fmt.Errorf("%d jobs unfinished after %d ticks", open, maxTicks)
		}
	}
}

func (r *replay) lastArrival() int {
	last := 0
	for _, ji := range r.in.jobs {
		if ji.arrival > last {
			last = ji.arrival
		}
	}
	return last
}

// beatFrame sends one heartbeat for each node of group, in one frame
// (a HeartbeatBatch when the workload batches), and applies the replies.
func (r *replay) beatFrame(group []*node) error {
	r.beats = r.beats[:0]
	frame := r.s.seq + 1
	for len(r.sentDone) < len(group) {
		r.sentDone = append(r.sentDone, nil)
	}
	for i, n := range group {
		done := n.takeDue(r.tick, r.sentDone[i][:0])
		for k := range done {
			done[k].Duration = float64(r.taskRec(done[k].Task).ticks) * r.in.tickSec
			r.completed(done[k].Task, stamp{frame, i})
		}
		r.sentDone[i] = done
		u := n.used()
		hb := wire.NMHeartbeat{NodeID: n.id, Used: u, Allocated: u, Completed: done}
		n.delta.Mark(&hb)
		r.beats = append(r.beats, hb)
	}
	var m *wire.Message
	if r.in.batch == 1 {
		m = &wire.Message{Type: wire.TypeNMHeartbeat, NMHeartbeat: &r.beats[0]}
	} else {
		m = &wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: &wire.HeartbeatBatch{Beats: r.beats}}
	}
	c0 := processCPU()
	reply, err := r.timed(kindBeat, len(group), m)
	c1 := processCPU()
	if err != nil {
		return err
	}
	r.beatCPU = append(r.beatCPU, float64((c1-c0).Nanoseconds())/1e3/float64(len(group)))
	r.rec.beats += len(group)

	if r.in.batch == 1 {
		if reply.Type != wire.TypeNMReply {
			r.failed++
			return fmt.Errorf("node %d heartbeat: %s reply %q", group[0].id, reply.Type, reply.Error)
		}
		r.apply(group[0], reply.NMReply, stamp{frame, 0})
		return nil
	}
	br := reply.HeartbeatBatchReply
	if reply.Type != wire.TypeHeartbeatBatchReply || len(br.Replies) != len(group) {
		r.failed++
		return fmt.Errorf("heartbeat batch of %d: %s reply %q", len(group), reply.Type, reply.Error)
	}
	for i, n := range group {
		e := &br.Replies[i]
		if e.NodeID != n.id || e.Error != "" {
			r.failed++
			return fmt.Errorf("batch entry %d (node %d): node %d error %q", i, n.id, e.NodeID, e.Error)
		}
		r.apply(n, &e.Reply, stamp{frame, i})
	}
	return nil
}

// apply acts on one node's heartbeat reply: acknowledge the beat to the
// delta tracker (which honours FullReport), count kill and preempt
// orders, and start every launch. The reply aliases the session's decode
// scratch, so launches are copied into the node's own state here, before
// the next exchange reuses it.
func (r *replay) apply(n *node, rep *wire.NMReply, at stamp) {
	n.delta.Ack(rep)
	r.rec.kills += len(rep.Kill)
	r.rec.preempts += len(rep.Preempt)
	for _, l := range rep.Launch {
		t := r.taskRec(l.Task)
		t.launches++
		t.launchTick = r.tick
		t.launchAt = at
		r.rec.launches++
		n.running = append(n.running, running{task: l.Task, demand: l.Demand, due: r.tick + t.ticks})
	}
}

// taskRec finds a task's record; a task ID the inputs do not hold gets a
// throwaway record so the checks report it as launched from nowhere.
func (r *replay) taskRec(id workload.TaskID) *taskRec {
	if j := r.byID[id.Job]; j != nil && id.Stage >= 0 && id.Stage < len(j.tasks) &&
		id.Index >= 0 && id.Index < len(j.tasks[id.Stage]) {
		return j.tasks[id.Stage][id.Index]
	}
	r.rec.jobs = append(r.rec.jobs, &jobRec{id: id.Job, amTick: -1, lastDoneTick: -1})
	return &taskRec{}
}

// completed records a completion reported in this tick and marks the
// stages it unblocks runnable.
func (r *replay) completed(id workload.TaskID, at stamp) {
	t := r.taskRec(id)
	t.completions++
	t.doneAt = at
	j := r.byID[id.Job]
	if j == nil {
		return
	}
	j.doneTasks++
	j.lastDoneTick = r.tick
	j.stageDone[id.Stage]++
	if j.stageDone[id.Stage] != len(j.tasks[id.Stage]) {
		return
	}
	for s, deps := range j.deps {
		if j.runnableTick[s] >= 0 || len(deps) == 0 {
			continue
		}
		ready := true
		for _, p := range deps {
			ready = ready && j.stageDone[p] == len(j.tasks[p])
		}
		if ready {
			j.runnableTick[s] = r.tick
		}
	}
}

// pollAMs sends one AM progress poll for each accepted job whose AM has
// not yet seen it finish, and returns how many remain unfinished.
func (r *replay) pollAMs() (open int, err error) {
	for _, j := range r.rec.jobs {
		if !j.accepted || j.amTick >= 0 {
			continue
		}
		reply, err := r.timed(kindPoll, 0, &wire.Message{Type: wire.TypeAMHeartbeat,
			AMHeartbeat: &wire.AMHeartbeat{JobID: j.id}})
		if err != nil {
			return 0, err
		}
		if reply.Type != wire.TypeAMReply || reply.AMReply.JobID != j.id {
			r.failed++
			return 0, fmt.Errorf("job %d poll: %s reply %q", j.id, reply.Type, reply.Error)
		}
		j.am = *reply.AMReply
		j.am.GangRelease = nil // aliases decode scratch; gangs are off
		if j.am.Finished {
			j.amTick = r.tick
		} else {
			open++
		}
	}
	return open, nil
}
