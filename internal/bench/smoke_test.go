package bench

import "testing"

// TestRunnersSmoke executes the cheap experiment runners end to end (the
// heavy ones build every fixture and run minutes of timed queries; they are
// exercised by `go test -bench` and cmd/benchrunner).
func TestRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture construction in -short mode")
	}
	for _, id := range []string{"table4", "fig16"} {
		rep, err := Experiments[id]()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		var sb sw
		if err := rep.Write(&sb); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
	}
}

type sw struct{ b []byte }

func (s *sw) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }

func TestFixtureCachedAndWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture construction in -short mode")
	}
	f1, err := GetFixture("yago-s")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := GetFixture("yago-s")
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("fixture not cached")
	}
	if len(f1.Queries) == 0 || f1.Index.NumLayers() < 2 {
		t.Fatalf("fixture shape: %d queries, %d layers", len(f1.Queries), f1.Index.NumLayers())
	}
	if _, err := GetFixture("bogus"); err == nil {
		t.Fatal("bogus fixture accepted")
	}
}
