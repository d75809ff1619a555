package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// tiny shrinks a workload to a replay that takes a fraction of a second
// while keeping its RM flavour, framing, journal and admission.
func tiny(name string) spec {
	sp := workloads[name]
	sp.nodes = 16
	sp.waveTasks = 60
	sp.waves = 2
	sp.waveEvery = 1
	return sp
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k, v := range m {
		if v.Unit == "" {
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTinyRuns runs every workload, shrunk, untraced and traced: each
// must pass every check with no failed operation and print exactly the
// metrics BENCHMARK.json lists.
func TestTinyRuns(t *testing.T) {
	b := readBenchmarkFile(t)
	if got := names(b.Workloads); !equal(got, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, workloadNames())
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := bench(tiny(name), 7, 0, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(b.EndToEnd)
			if traced {
				want = names(b.PerLayer)
			}
			if got := metricNames(res.Metrics); !equal(got, want) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
			if !traced {
				for _, k := range want {
					if v := res.Metrics[k].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v)
					}
				}
			}
		}
	}
}

// TestInputsRepeat: the same seed gives the same inputs, another seed
// other inputs.
func TestInputsRepeat(t *testing.T) {
	sp := workloads["deploy-backlog"]
	a, err := makeInputs(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(sp, 3)
	c, _ := makeInputs(sp, 4)
	fingerprint := func(in *inputs) []int {
		var out []int
		for _, j := range in.jobs {
			out = append(out, j.arrival, j.job.NumTasks(), len(j.ticks))
		}
		return out
	}
	fa, fb, fc := fingerprint(a), fingerprint(b), fingerprint(c)
	if len(fa) != len(fb) {
		t.Fatal("same seed, different job count")
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed, different inputs")
		}
	}
	if len(fa) == len(fc) {
		same := true
		for i := range fa {
			same = same && fa[i] == fc[i]
		}
		if same {
			t.Fatal("different seeds, same inputs")
		}
	}
}

// TestWavesAreTheSameForEverySeed: the seed reorders the jobs within a
// wave, never which jobs make up a wave.
func TestWavesAreTheSameForEverySeed(t *testing.T) {
	sp := workloads["deploy-backlog"]
	waves := func(seed int64) map[int][]int {
		in, err := makeInputs(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int][]int{}
		for _, j := range in.jobs {
			out[j.arrival] = append(out[j.arrival], j.job.NumTasks())
		}
		for _, sizes := range out {
			sort.Ints(sizes)
		}
		return out
	}
	a, b := waves(3), waves(4)
	if len(a) != len(b) || len(a) < 2 || len(a) > sp.waves {
		t.Fatalf("%d and %d waves, want the same number, 2 to %d", len(a), len(b), sp.waves)
	}
	for tick, sizes := range a {
		if !slices.Equal(sizes, b[tick]) {
			t.Fatalf("wave at tick %d: jobs of %v tasks for seed 3, %v for seed 4", tick, sizes, b[tick])
		}
	}
}

func TestTaskTicks(t *testing.T) {
	for _, c := range []struct {
		sec  float64
		want int
	}{{0, 1}, {1, 1}, {30, 1}, {31, 2}, {89, 3}, {1e9, 3}} {
		if got := taskTicks(c.sec, 30, 3); got != c.want {
			t.Errorf("taskTicks(%v) = %d, want %d", c.sec, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := histogram{le: []float64{1, 2, 4, math.Inf(1)}, cum: []float64{0, 10, 20, 20}}
	if got := h.quantile(0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := h.quantile(0.75); got != 3 {
		t.Errorf("p75 = %v, want 3 (halfway through the (2,4] bucket)", got)
	}
}

func TestFrameCPUTakesEachFramesSmallerReadingPerArrangement(t *testing.T) {
	a := &roundResult{beatCPU: []float64{5, 1, 9}}
	b := &roundResult{beatCPU: []float64{3, 2, 9}}
	c := &roundResult{beatCPU: []float64{0, 4, 1}, arrangement: 1}
	d := &roundResult{beatCPU: []float64{2, 4, 0}, arrangement: 1}
	e := &roundResult{beatCPU: []float64{7, 8}, arrangement: 2}
	got := frameCPU([]*roundResult{a, b, c, d, e})
	want := []float64{3, 1, 9, 0, 4, 0, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("frameCPU = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frameCPU = %v, want %v", got, want)
		}
	}
}

func TestArrangementSeedsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		seen[seed] = true
	}
	for seed := int64(0); seed < 20; seed++ {
		for a := 1; a < 8; a++ {
			s := arrangementSeed(seed, a)
			if seen[s] {
				t.Fatalf("arrangement %d of seed %d has seed %d, already in use", a, seed, s)
			}
			seen[s] = true
		}
	}
}
