package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestSmoke runs all five workloads, untraced and traced, on the smoke
// profile: every metric BENCHMARK.json names is emitted finite and none
// it does not name, no operation fails, and every trace is a tree.
func TestSmoke(t *testing.T) {
	man := testManifest(t)
	ev := env{clients: min(runtime.NumCPU(), 4), outDir: t.TempDir(), seconds: 0.5}
	sps := specs(true)
	if len(sps) != len(man.Workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(sps), len(man.Workloads))
	}
	for i, sp := range sps {
		if sp.Name != man.Workloads[i].Name {
			t.Errorf("workload %d is %q in code, %q in BENCHMARK.json", i, sp.Name, man.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(sp, 1, traced, ev)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range man.check(r) {
				t.Errorf("%s traced=%v: %s", sp.Name, traced, bad)
			}
			if r.Failed != 0 || !r.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", sp.Name, traced, r.Failed, r.Attempted, r.Notes)
			}
			if !traced {
				continue
			}
			if err := checkTree(r.spans); err != nil {
				t.Errorf("%s: %v", sp.Name, err)
			}
			sum := summarize(r.spans)
			want := []string{"request", "server.handler"}
			if sp.CacheSize < 0 { // with the cache on, a small pool is all hits
				want = append(want, "search.search")
			}
			for _, name := range want {
				if sum[name].Count == 0 {
					t.Errorf("%s: trace has no %s span", sp.Name, name)
				}
			}
			if sp.Net && sum["shardrpc.expand"].Count == 0 {
				t.Errorf("%s: trace has no shardrpc.expand span", sp.Name)
			}
		}
	}
}

// TestInputsDeterministic: one seed, one set of inputs; another seed,
// another pool, schedule and mutation batches over the same data set.
func TestInputsDeterministic(t *testing.T) {
	for _, sp := range specs(true) {
		a, err := genInputs(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(sp, 7)
		c, _ := genInputs(sp, 8)
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, different inputs", sp.Name)
		}
		for i := range a.Pool {
			if a.Pool[i].URL != b.Pool[i].URL || a.Pool[i].Algo != b.Pool[i].Algo {
				t.Fatalf("%s: pool entry %d differs between two generations", sp.Name, i)
			}
		}
		for i := range a.Sched {
			if a.Sched[i] != b.Sched[i] {
				t.Fatalf("%s: schedule differs at %d between two generations", sp.Name, i)
			}
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: different seeds, same inputs", sp.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCheckTreeRejects(t *testing.T) {
	ok := []span{{ID: 1, Name: "request", Start: 0, End: 100}, {ID: 2, Parent: 1, Name: "server.handler", Start: 10, End: 90}}
	if err := checkTree(ok); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	if self := selfTimes(ok)[1]; self != 20 {
		t.Errorf("self time of the request span = %d, want 20", self)
	}
	if checkTree([]span{ok[0], {ID: 2, Parent: 1, Name: "late", Start: 10, End: 110}}) == nil {
		t.Error("child outside its parent accepted")
	}
	if checkTree([]span{{ID: 2, Parent: 9, Name: "orphan", Start: 0, End: 1}}) == nil {
		t.Error("span without its parent accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	man := testManifest(t)
	wl := man.Workloads[0].Name
	mk := func(p50 []float64, failed int) *report {
		r := &report{}
		for _, v := range p50 {
			r.Runs = append(r.Runs, &result{Workload: wl, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"query_p50_ms": {Value: v, Unit: "ms"}}})
		}
		return r
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.00, 1.01, 0.99}
	slower, noisy := make([]float64, len(steady)), make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.5
		noisy[i] = v * (1 + float64(i%5)/2)
	}
	for _, c := range []struct {
		name string
		a, b *report
		code int
		want string
	}{
		{"same", mk(steady, 0), mk(steady, 0), 0, "ok"},
		{"slower", mk(steady, 0), mk(slower, 0), 1, "regression"},
		{"noisy", mk(steady, 0), mk(noisy, 0), 0, "unresolved"},
		{"failing", mk(steady, 0), mk(steady, 1), 1, "ops_failed"},
	} {
		var out bytes.Buffer
		if code := compareLoaded(&out, man, c.a, c.b, false); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}
