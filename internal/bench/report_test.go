package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "T1",
		Title:  "demo",
		Header: []string{"a", "b", "c"},
	}
	r.AddRow("x", 1500*time.Microsecond, 0.12345)
	r.AddRow(42, 2*time.Second, "literal")
	r.Notef("note %d", 7)

	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== T1: demo ==", "1.50ms", "2.00s", "0.1235", "note 7", "literal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSON covers the BENCH_eval.json export: same rows as the text
// table, plus per-experiment wall time.
func TestWriteJSON(t *testing.T) {
	r1 := &Report{ID: "T1", Title: "demo", Header: []string{"a", "b"}, Elapsed: 1500 * time.Microsecond}
	r1.AddRow("x", 2*time.Millisecond)
	r1.Notef("a note")
	r2 := &Report{ID: "T2", Title: "empty"}

	var sb strings.Builder
	if err := WriteJSON(&sb, []*Report{r1, r2}); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Experiments []struct {
			ID        string     `json:"id"`
			Title     string     `json:"title"`
			Header    []string   `json:"header"`
			Rows      [][]string `json:"rows"`
			Notes     []string   `json:"notes"`
			ElapsedMS float64    `json:"elapsed_ms"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(got.Experiments) != 2 {
		t.Fatalf("experiments = %d", len(got.Experiments))
	}
	e := got.Experiments[0]
	if e.ID != "T1" || e.Title != "demo" || e.ElapsedMS != 1.5 {
		t.Fatalf("bad experiment header: %+v", e)
	}
	if len(e.Rows) != 1 || e.Rows[0][0] != "x" || e.Rows[0][1] != "2.00ms" {
		t.Fatalf("rows not exported as rendered: %+v", e.Rows)
	}
	if len(e.Notes) != 1 || e.Notes[0] != "a note" {
		t.Fatalf("notes: %+v", e.Notes)
	}
	if got.Experiments[1].Rows == nil {
		t.Fatal("empty report must still export a rows array")
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "0µs",
		42 * time.Microsecond:   "42µs",
		1500 * time.Microsecond: "1.50ms",
		3 * time.Second:         "3.00s",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(100, 50); got != "50.0%" {
		t.Errorf("pct = %q", got)
	}
	if got := pct(100, 150); got != "-50.0%" {
		t.Errorf("negative pct = %q", got)
	}
	if got := pct(0, 50); got != "n/a" {
		t.Errorf("zero base = %q", got)
	}
}

func TestTimeItMedian(t *testing.T) {
	calls := 0
	d, err := timeIt(5, func() error { calls++; return nil })
	if err != nil || calls != 5 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	if d < 0 {
		t.Fatal("negative duration")
	}
	// Errors propagate.
	if _, err := timeIt(3, func() error { return errSentinel }); err != errSentinel {
		t.Fatalf("error not propagated: %v", err)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) != len(ExperimentOrder) {
		t.Errorf("Experiments has %d entries, order lists %d", len(Experiments), len(ExperimentOrder))
	}
	for _, id := range ExperimentOrder {
		if Experiments[id] == nil {
			t.Errorf("experiment %q missing from map", id)
		}
	}
}

func TestEvalOptionPresets(t *testing.T) {
	if BlinksEvalOptions("imdb-s").DegreeExponent != 0 {
		t.Error("imdb-s should use the paper formula")
	}
	if BlinksEvalOptions("dbpedia-s").DegreeExponent != 1 {
		t.Error("dbpedia-s should use the density correction")
	}
	rc := RCliqueEvalOptions()
	if rc.K != 10 || !rc.EarlyK || rc.DegreeExponent != RClique {
		t.Errorf("rclique options: %+v", rc)
	}
}
