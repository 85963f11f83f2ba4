package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// Report is a rendered experiment: a title, a table, and free-form notes.
// Runners fill one and Write renders it; benchmarks can also consume the
// structured rows.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Elapsed is the experiment's wall time, set by the runner harness for
	// the machine-readable export.
	Elapsed time.Duration
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = fmtDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Notef appends a formatted note line.
func (r *Report) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Write renders the report as an aligned text table.
func (r *Report) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(r.Header) > 0 {
		fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	}
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintln(w, "  note:", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// pct renders a reduction percentage ("t_base -> t_new").
func pct(base, with time.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*(1-float64(with)/float64(base)))
}

// reportJSON is the machine-readable form of one Report; rows stay as
// rendered strings so the export mirrors the text tables exactly and
// diffing across PRs needs no knowledge of each experiment's cell types.
type reportJSON struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header,omitempty"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// reportMeta pins down the machine the numbers came from: exports are
// only comparable across PRs when the parallelism headroom is part of
// the record.
type reportMeta struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// WriteJSON renders the reports as one JSON document (the BENCH_eval.json
// export of cmd/benchrunner), keyed by experiment in run order, under a
// metadata header recording the run's parallelism envelope.
func WriteJSON(w io.Writer, reports []*Report) error {
	out := struct {
		Meta        reportMeta   `json:"meta"`
		Experiments []reportJSON `json:"experiments"`
	}{
		Meta: reportMeta{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Experiments: make([]reportJSON, 0, len(reports)),
	}
	for _, r := range reports {
		rows := r.Rows
		if rows == nil {
			rows = [][]string{} // "rows": [] rather than null for consumers
		}
		out.Experiments = append(out.Experiments, reportJSON{
			ID:        r.ID,
			Title:     r.Title,
			Header:    r.Header,
			Rows:      rows,
			Notes:     r.Notes,
			ElapsedMS: float64(r.Elapsed.Microseconds()) / 1000,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
