package main

import (
	"net"
	"sync"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
)

// fakeRM speaks the RM's side of the wire protocol on a loopback socket:
// registrations and submissions are accepted, and every heartbeat is
// recorded and answered by script(n, hb), n counting beats from 0.
type fakeRM struct {
	ln     net.Listener
	script func(n int, hb *wire.NMHeartbeat) wire.NMReply

	mu    sync.Mutex
	beats []wire.NMHeartbeat
	done  chan struct{}
}

func startFakeRM(t *testing.T, script func(int, *wire.NMHeartbeat) wire.NMReply) *fakeRM {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeRM{ln: ln, script: script, done: make(chan struct{})}
	go f.serve()
	t.Cleanup(func() {
		ln.Close()
		<-f.done
	})
	return f
}

func (f *fakeRM) serve() {
	defer close(f.done)
	conn, err := f.ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	framer := wire.NewServerFramer()
	for {
		m, err := framer.Read(conn)
		if err != nil {
			return
		}
		var reply *wire.Message
		switch m.Type {
		case wire.TypeRegisterNM:
			reply = &wire.Message{Type: wire.TypeNMReply, NMReply: &wire.NMReply{}}
		case wire.TypeSubmitJob:
			reply = &wire.Message{Type: wire.TypeAMReply, AMReply: &wire.AMReply{
				JobID: m.SubmitJob.Job.ID, Total: m.SubmitJob.Job.NumTasks()}}
		case wire.TypeNMHeartbeat:
			r := f.answer(m.NMHeartbeat)
			reply = &wire.Message{Type: wire.TypeNMReply, NMReply: &r}
		case wire.TypeHeartbeatBatch:
			br := &wire.HeartbeatBatchReply{}
			for i := range m.HeartbeatBatch.Beats {
				hb := &m.HeartbeatBatch.Beats[i]
				br.Replies = append(br.Replies, wire.NMBeatReply{NodeID: hb.NodeID, Reply: f.answer(hb)})
			}
			reply = &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: br}
		default:
			reply = &wire.Message{Type: wire.TypeError, Error: "unexpected " + m.Type}
		}
		if err := framer.Write(conn, reply); err != nil {
			return
		}
	}
}

func (f *fakeRM) answer(hb *wire.NMHeartbeat) wire.NMReply {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.beats)
	cp := *hb
	cp.Completed = append([]wire.TaskCompletion(nil), hb.Completed...)
	f.beats = append(f.beats, cp)
	return f.script(n, hb)
}

func (f *fakeRM) received() []wire.NMHeartbeat {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wire.NMHeartbeat(nil), f.beats...)
}

// fakeInputs shrinks deploy-backlog to a few nodes.
func fakeInputs(t *testing.T, nodes, batch int) *inputs {
	t.Helper()
	sp := tiny("deploy-backlog")
	sp.nodes, sp.batch = nodes, batch
	in, err := makeInputs(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// fakeReplay sets a replay of in up against the fake RM.
func fakeReplay(t *testing.T, f *fakeRM, in *inputs) *replay {
	t.Helper()
	s, err := dial(f.ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() })
	r := newReplay(in, s)
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	return r
}

// beatAll sends one tick of heartbeats from every node.
func beatAll(t *testing.T, r *replay) {
	t.Helper()
	for start := 0; start < len(r.nodes); start += r.in.batch {
		end := min(start+r.in.batch, len(r.nodes))
		if err := r.beatFrame(r.nodes[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	r.tick++
}

// TestDeltaBeatsOnlyAfterAckedFullBeat: a node's first beat is full, a
// delta beat follows only an acknowledged full beat with unchanged
// usage, and a reply carrying FullReport makes the next beat full.
func TestDeltaBeatsOnlyAfterAckedFullBeat(t *testing.T) {
	for _, batch := range []int{1, 2} {
		// Beat 2 of each node (its third) is answered with FullReport.
		f := startFakeRM(t, func(n int, hb *wire.NMHeartbeat) wire.NMReply {
			return wire.NMReply{FullReport: n/2 == 2}
		})
		r := fakeReplay(t, f, fakeInputs(t, 2, batch))
		for i := 0; i < 5; i++ {
			beatAll(t, r)
		}
		got := f.received()
		want := []bool{false, true, true, false, true} // Delta, per tick
		for n, hb := range got {
			if hb.Delta != want[n/2] {
				t.Fatalf("batch %d: beat %d of node %d: delta=%v, want %v", batch, n/2, hb.NodeID, hb.Delta, want[n/2])
			}
			if hb.Delta && (hb.Used != resources.Vector{} || hb.Allocated != resources.Vector{}) {
				t.Fatalf("batch %d: delta beat carries usage", batch)
			}
		}
	}
}

// TestUsageChangeSendsFullBeat: a launch changes the node's usage, so
// its next beat is full even though the last one was acknowledged.
func TestUsageChangeSendsFullBeat(t *testing.T) {
	in := fakeInputs(t, 1, 1)
	task := in.jobs[0].job.Stages[0].Tasks[0]
	launch := wire.TaskLaunch{Task: task.ID, JobID: task.ID.Job, Demand: task.Peak}
	f := startFakeRM(t, func(n int, hb *wire.NMHeartbeat) wire.NMReply {
		if n == 1 {
			return wire.NMReply{Launch: []wire.TaskLaunch{launch}}
		}
		return wire.NMReply{}
	})
	r := fakeReplay(t, f, in)
	r.taskRec(task.ID).ticks = 10 // still running at the third beat
	for i := 0; i < 3; i++ {
		beatAll(t, r)
	}
	got := f.received()
	if got[0].Delta || !got[1].Delta || got[2].Delta {
		t.Fatalf("delta flags %v %v %v, want false true false", got[0].Delta, got[1].Delta, got[2].Delta)
	}
	if got[2].Used != task.Peak {
		t.Fatalf("usage after launch %v, want %v", got[2].Used, task.Peak)
	}
}

// TestRepliesCopiedBeforeNextRead: decoded replies alias the framer's
// scratch until the next read, so launches must be copied out before
// the next exchange. Each node gets a different launch in consecutive
// frames; each must keep its own.
func TestRepliesCopiedBeforeNextRead(t *testing.T) {
	in := fakeInputs(t, 3, 1)
	tasks := in.jobs[0].job.Stages[0].Tasks[:3]
	f := startFakeRM(t, func(n int, hb *wire.NMHeartbeat) wire.NMReply {
		if n >= len(tasks) {
			return wire.NMReply{}
		}
		t := tasks[n]
		return wire.NMReply{Launch: []wire.TaskLaunch{{Task: t.ID, JobID: t.ID.Job, Demand: t.Peak}}}
	})
	r := fakeReplay(t, f, in)
	beatAll(t, r)
	for i, n := range r.nodes {
		if len(n.running) != 1 || n.running[0].task != tasks[i].ID || n.running[0].demand != tasks[i].Peak {
			t.Fatalf("node %d runs %+v, want task %v with demand %v", i, n.running, tasks[i].ID, tasks[i].Peak)
		}
	}
}
