package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bigindex/internal/graph"
	"bigindex/internal/search"
)

// queryResp is the part of the /query response the benchmark reads.
type queryResp struct {
	Cached   bool `json:"cached"`
	Degraded bool `json:"degraded"`
	Matches  []struct {
		Root  string   `json:"root"`
		Nodes []string `json:"nodes"`
		Dists []int    `json:"dists"`
		Score float64  `json:"score"`
	} `json:"matches"`
}

// answerDigest hashes an answer list as the response exposes it: label
// names, distances and scores, in order.
type answerDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func newAnswerDigest() *answerDigest { return &answerDigest{h: fnv.New64a()} }

func (d *answerDigest) match(root string, nodes []string, dists []int, score float64) {
	d.h.Write([]byte(root))
	for _, n := range nodes {
		d.h.Write([]byte{0})
		d.h.Write([]byte(n))
	}
	for _, x := range dists {
		d.h.Write([]byte{1, byte(x), byte(x >> 8)})
	}
	bits := math.Float64bits(score)
	for i := range d.buf {
		d.buf[i] = byte(bits >> (8 * i))
	}
	d.h.Write(d.buf[:])
}

func digestResp(r *queryResp) uint64 {
	d := newAnswerDigest()
	for _, m := range r.Matches {
		d.match(m.Root, m.Nodes, m.Dists, m.Score)
	}
	return d.h.Sum64()
}

// digestMatches renders in-process matches the way the server does and
// hashes them the same way digestResp hashes a response.
func digestMatches(g *graph.Graph, ms []search.Match) uint64 {
	dict := g.Dict()
	d := newAnswerDigest()
	var nodes []string
	for _, m := range ms {
		nodes = nodes[:0]
		for _, n := range m.Nodes {
			nodes = append(nodes, dict.Name(g.Label(n)))
		}
		d.match(dict.Name(g.Label(m.Root)), nodes, m.Dists, m.Score)
	}
	return d.h.Sum64()
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into c.body.
func (c *client) do(method, path string, body []byte, spanID uint64) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// readStats is what one pass of /query traffic observed.
type readStats struct {
	Lat       []time.Duration // latency of every correct, non-degraded 200
	Bytes     []int           // body size of the same
	Attempted int
	Failed    int // non-200, degraded, transport error, or answer digest != oracle
	Hits      int // responses marked "cached": true
	Elapsed   time.Duration
	FirstErr  string
}

func (r *readStats) merge(o *readStats) {
	r.Lat = append(r.Lat, o.Lat...)
	r.Bytes = append(r.Bytes, o.Bytes...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Hits += o.Hits
	if r.FirstErr == "" {
		r.FirstErr = o.FirstErr
	}
}

// readOnce runs sched through readPass exactly once, untimed.
func readOnce(st *stack, in *inputs, sched []int32, clients int, checkDigest bool) readStats {
	return readPass(st, in, sched, clients, int64(len(sched)), time.Time{}, checkDigest, nil)
}

// readPass drives /query closed-loop from `clients` callers, each waiting
// for its reply before sending the next request. Operations are taken in
// order from one shared cursor, cycling through sched (indexes into the pool);
// the pass ends after maxOps operations when maxOps > 0, else when
// `until` has passed. checkDigest compares every answer to the oracle
// (off while a writer mutates the graph under the readers).
func readPass(st *stack, in *inputs, sched []int32, clients int, maxOps int64, until time.Time, checkDigest bool, tr *tracer) readStats {
	var cursor atomic.Int64
	parts := make([]readStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rs *readStats) {
			defer wg.Done()
			cl := newClient(st.base)
			defer cl.close()
			var resp queryResp
			for {
				i := cursor.Add(1) - 1
				if maxOps > 0 && i >= maxOps {
					return
				}
				if maxOps <= 0 && !time.Now().Before(until) {
					return
				}
				e := &in.Pool[sched[i%int64(len(sched))]]
				sp := tr.start(nil, 0, "request")
				var id uint64
				if sp != nil {
					sp.s.Req = sp.s.ID
					id = sp.s.ID
				}
				t0 := time.Now()
				code, err := cl.do(http.MethodGet, e.URL, nil, id)
				lat := time.Since(t0)
				rs.Attempted++
				fail := ""
				resp = queryResp{}
				switch {
				case err != nil:
					fail = err.Error()
				case code != http.StatusOK:
					fail = fmt.Sprintf("status %d: %.120s", code, cl.body.String())
				default:
					if err := json.Unmarshal(cl.body.Bytes(), &resp); err != nil {
						fail = "decoding response: " + err.Error()
					} else if resp.Degraded {
						fail = "degraded response"
					} else if checkDigest && digestResp(&resp) != e.Digest {
						fail = "answer differs from the layer-0 oracle"
					}
				}
				if resp.Cached {
					sp.tag("hit")
					rs.Hits++
				} else {
					sp.tag("miss")
				}
				sp.end()
				if fail != "" {
					rs.Failed++
					if rs.FirstErr == "" {
						rs.FirstErr = e.URL + ": " + fail
					}
					continue
				}
				rs.Lat = append(rs.Lat, lat)
				rs.Bytes = append(rs.Bytes, cl.body.Len())
			}
		}(&parts[c])
	}
	wg.Wait()
	out := readStats{Elapsed: time.Since(start)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// writeStats is what the /admin/edges writer observed.
type writeStats struct {
	Lat       []time.Duration // ack latency from the instant the batch was due
	LateMax   time.Duration   // how late the writer sent a batch, worst case
	Attempted int
	Failed    int
	FirstErr  string
}

type edgeJSON struct {
	From uint32 `json:"from"`
	To   uint32 `json:"to"`
}

func batchBody(b batch) []byte {
	var req struct {
		Add    []edgeJSON `json:"add_edges"`
		Remove []edgeJSON `json:"remove_edges"`
	}
	for _, e := range b.Add {
		req.Add = append(req.Add, edgeJSON{uint32(e.From), uint32(e.To)})
	}
	for _, e := range b.Remove {
		req.Remove = append(req.Remove, edgeJSON{uint32(e.From), uint32(e.To)})
	}
	data, _ := json.Marshal(req) // plain integers: cannot fail
	return data
}

// writePass posts mutation batches to /admin/edges on an open-loop
// schedule, one every `interval`: batch i is due at start + i*interval
// whether or not the previous ack has arrived, and its latency is timed
// from that instant, so a stall is charged to every batch it delays. With
// interval 0 each batch is due when the previous one is acknowledged. The
// pass ends after n batches, or at `until` when n is 0.
func writePass(st *stack, batches []batch, interval time.Duration, n int, until time.Time) writeStats {
	cl := newClient(st.base)
	defer cl.close()
	var ws writeStats
	start := time.Now()
	for i := 0; i < len(batches); i++ {
		if n > 0 && i >= n {
			break
		}
		due := start.Add(time.Duration(i) * interval)
		if interval == 0 {
			due = time.Now()
		}
		if n <= 0 && !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		code, err := cl.do(http.MethodPost, "/admin/edges", batchBody(batches[i]), 0)
		acked := time.Now()
		ws.Attempted++
		ws.LateMax = max(ws.LateMax, sent.Sub(due))
		if err != nil || code != http.StatusOK {
			ws.Failed++
			if ws.FirstErr == "" {
				ws.FirstErr = fmt.Sprintf("batch %d: status %d err %v: %.160s", i, code, err, cl.body.String())
			}
			continue
		}
		ws.Lat = append(ws.Lat, acked.Sub(due))
	}
	return ws
}
