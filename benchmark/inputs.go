package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"strings"

	"bigindex/internal/datagen"
	"bigindex/internal/graph"
	"bigindex/internal/qcache"
)

// topK is the k every /query request asks for.
const topK = 10

// spec is one workload: a configuration of the single pipeline in run.go.
// Workloads differ only in their inputs and in how the stack is wired, so
// each (workload, metric) pair isolates the layers named in its Why.
type spec struct {
	Name     string
	Entities int
	Algos    []string // assigned to pool entries round-robin
	Pool     int      // distinct admitted queries
	// MaxShare caps how common a keyword may be: it occurs on at most
	// |V|/MaxShare vertices (50 = 2 %).
	MaxShare int
	Sched    int // operations per schedule cycle
	// Zipf > 1 draws the schedule over the pool with probability
	// proportional to (zipfOffset + rank)^-Zipf, rank 0 hottest; 0 visits
	// every pool entry once, in order.
	Zipf float64
	// CacheSize is server.CacheOptions.Size: -1 off, 0 the server default.
	CacheSize int
	// Net serves layer-0 expansion through two loopback shardrpc servers
	// (Shards = 2, blocks strided 0%2 / 1%2).
	Net bool
	// Writer runs the paced /admin/edges writer during the timed read
	// pass; otherwise the batches are posted after it, unloaded.
	Writer bool
	// Restored serves from the snapshot-restored index, not the built one.
	Restored bool
	// ReadShare is the share of -seconds the timed read pass lasts.
	ReadShare float64
	// Builds, Loads and Batches are the repetition counts, at -seconds = 10,
	// of core.Build (build_s), snapshot.LoadFile (restore_s) and the
	// unloaded /admin/edges batches of a workload without a Writer
	// (mutate_p50_ms): more where one repetition is cheap.
	Builds, Loads, Batches int
}

var allAlgos = []string{"bkws", "bidir", "blinks"}

// zipfOffset flattens the head of the zipf schedules. With offset 1 the
// hottest query alone draws 18 % of the requests and ten queries half of
// them, so throughput follows the cost of those few queries and moves by a
// quarter from seed to seed; with 8 the hottest draws 3 %.
const zipfOffset = 8

// specs returns the five workloads. The smoke profile keeps every code
// path and shrinks every size so the whole set runs in a few seconds.
func specs(smoke bool) []spec {
	s := []spec{
		{Name: "serve_eval", Entities: 120_000, Algos: allAlgos, Pool: 1024, MaxShare: 50, Sched: 1024,
			CacheSize: -1, ReadShare: 0.6, Builds: 7, Loads: 41, Batches: 12},
		{Name: "serve_zipf", Entities: 120_000, Algos: allAlgos, Pool: 1024, MaxShare: 50, Sched: 8192, Zipf: 1.1,
			CacheSize: 256, ReadShare: 0.6, Builds: 7, Loads: 41, Batches: 12},
		{Name: "serve_shardnet", Entities: 20_000, Algos: []string{"bkws", "bidir"}, Pool: 512, MaxShare: 50, Sched: 512,
			CacheSize: -1, Net: true, ReadShare: 0.6, Builds: 15, Loads: 41, Batches: 24},
		{Name: "serve_mutate", Entities: 50_000, Algos: allAlgos, Pool: 1024, MaxShare: 50, Sched: 4096, Zipf: 1.1,
			CacheSize: 0, Writer: true, ReadShare: 0.8, Builds: 11, Loads: 41},
		{Name: "build", Entities: 200_000, Algos: allAlgos, Pool: 256, MaxShare: 200, Sched: 256,
			CacheSize: -1, Restored: true, ReadShare: 0.3, Builds: 7, Loads: 41, Batches: 6},
	}
	if smoke {
		for i := range s {
			s[i].Entities = max(2000, s[i].Entities/50)
			s[i].Pool = min(s[i].Pool, 48)
			s[i].Sched = min(s[i].Sched, 96)
			if s[i].CacheSize > 0 {
				s[i].CacheSize = 8
			}
			s[i].Builds, s[i].Loads, s[i].Batches = 3, 3, 3
		}
	}
	return s
}

// poolEntry is one admitted query with its assigned algorithm. Digest is
// filled by the correctness gate.
type poolEntry struct {
	Labels []graph.Label // canonical (sorted, deduplicated)
	Names  []string
	Algo   string
	URL    string // request path and query string
	Digest uint64 // digest of the layer-0 oracle answer
}

// batch is one /admin/edges mutation: 16 added edges, 4 removed.
type batch struct {
	Add, Remove []graph.Edge
}

// inputs is everything a run feeds the program, derived from the seed alone.
type inputs struct {
	DS      *datagen.Dataset
	Pool    []poolEntry
	Sched   []int32 // indexes into Pool; one cycle of the operation schedule
	Batches []batch
	Digest  uint64
}

// maxBatches bounds the pre-generated mutation schedule; a run posts a
// prefix of it.
const maxBatches = 64

// subSeed derives an independent, non-zero generator seed per use.
func subSeed(seed int64, salt uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>1) | 1
}

// genDataset generates the knowledge graph a workload serves: YagoSmall's
// shape and YagoSmall's own seed at the given size. The graph is the
// benchmark's data set, the same on every run; -seed drives what the
// clients do with it (which queries, under which algorithm, in what order,
// which edges mutate). Graphs from different generator seeds differ in
// build time and query cost by far more than any regression bound, so a
// seeded graph would make runs with different seeds incomparable.
func genDataset(entities int) *datagen.Dataset {
	return datagen.Generate(datagen.Options{
		Name: "bench", Entities: entities, AvgOut: 2.0, Terms: 1500, LeafTypes: 40,
		TypeBranching: 4, TypeHeight: 6, Relations: 60, TermSkew: 1.5, TargetSkew: 2,
		SinkFraction: 0.35, Seed: 7001,
	})
}

// genInputs builds a workload's inputs. Pool admission and choice look only
// at the generated graph (keyword counts), never at a measured time or a
// counter of the program, so two commits always see the same pool.
func genInputs(sp spec, seed int64) (*inputs, error) {
	ds := genDataset(sp.Entities)
	g := ds.Graph

	cycle := []int{2, 2, 3, 3, 4}
	sizes := make([]int, 6*sp.Pool)
	for i := range sizes {
		sizes[i] = cycle[i%len(cycle)]
	}
	drawn := datagen.Queries(ds, datagen.WorkloadOptions{
		Sizes: sizes, MinCount: max(2, g.NumVertices()/5000), Seed: subSeed(seed, 2),
	})
	type cand struct {
		labels []graph.Label
		key    string
		weight int // sum of the keywords' counts: a cost proxy known from the inputs alone
	}
	var cands []cand
	seen := make(map[string]bool)
	for _, q := range drawn {
		c := cand{labels: qcache.CanonicalLabels(q.Keywords)}
		admit := true
		for _, n := range q.Counts {
			c.weight += n
			if n*sp.MaxShare > g.NumVertices() {
				admit = false
			}
		}
		c.key = fmt.Sprint(c.labels)
		if admit && !seen[c.key] {
			seen[c.key] = true
			cands = append(cands, c)
		}
	}
	if len(cands) < min(sp.Pool, 16) {
		return nil, fmt.Errorf("%s: only %d of %d pool queries admitted", sp.Name, len(cands), sp.Pool)
	}
	// Stratified choice: order the admitted queries by the cost proxy and
	// take every step-th from a seeded offset, assigning algorithms
	// round-robin along that order. Every seed's pool then spans light and
	// heavy queries, under every algorithm, in the same proportions; a
	// plain random sample lets the few heavy ones decide p99 and qps.
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.weight, b.weight), strings.Compare(a.key, b.key))
	})
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	in := &inputs{DS: ds}
	dict := g.Dict()
	step := max(1, float64(len(cands))/float64(sp.Pool))
	for at := rng.Float64() * step; int(at) < len(cands) && len(in.Pool) < sp.Pool; at += step {
		e := poolEntry{Labels: cands[int(at)].labels, Algo: sp.Algos[len(in.Pool)%len(sp.Algos)]}
		for _, l := range e.Labels {
			e.Names = append(e.Names, dict.Name(l))
		}
		e.URL = fmt.Sprintf("/query?q=%s&algo=%s&k=%d", url.QueryEscape(strings.Join(e.Names, ",")), e.Algo, topK)
		in.Pool = append(in.Pool, e)
	}
	// Pool order decides which queries a zipf schedule makes hot. The pool
	// is in cost-proxy order; reorder it by the golden-ratio sequence, so
	// that every prefix (every hot set) spans the whole range evenly.
	rank := make([]float64, len(in.Pool))
	order := make([]int, len(in.Pool))
	for i := range order {
		_, rank[i] = math.Modf(float64(i+1) * 0.6180339887498949)
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })
	sorted := slices.Clone(in.Pool)
	for i, from := range order {
		in.Pool[i] = sorted[from]
	}

	in.Sched = make([]int32, sp.Sched)
	if sp.Zipf > 1 {
		z := rand.NewZipf(rng, sp.Zipf, zipfOffset, uint64(len(in.Pool)-1))
		for i := range in.Sched {
			in.Sched[i] = int32(z.Uint64())
		}
	} else {
		for i := range in.Sched {
			in.Sched[i] = int32(i % len(in.Pool))
		}
	}

	in.Batches = genBatches(g, rand.New(rand.NewSource(subSeed(seed, 4))))
	in.Digest = in.digest()
	return in, nil
}

// genBatches pre-generates the mutation schedule against the base graph:
// added edges are absent from it and from every earlier batch, removed
// edges are present in it and removed only once, so each batch passes the
// server's strict validation when the batches are applied in order.
func genBatches(g *graph.Graph, rng *rand.Rand) []batch {
	n := g.NumVertices()
	touched := make(map[graph.Edge]bool)
	out := make([]batch, maxBatches)
	for b := range out {
		for len(out[b].Add) < 16 {
			e := graph.Edge{From: graph.V(rng.Intn(n)), To: graph.V(rng.Intn(n))}
			if e.From == e.To || touched[e] || g.HasEdge(e.From, e.To) {
				continue
			}
			touched[e] = true
			out[b].Add = append(out[b].Add, e)
		}
		for len(out[b].Remove) < 4 {
			u := graph.V(rng.Intn(n))
			adj := g.Out(u)
			if len(adj) == 0 {
				continue
			}
			e := graph.Edge{From: u, To: adj[rng.Intn(len(adj))]}
			if touched[e] {
				continue
			}
			touched[e] = true
			out[b].Remove = append(out[b].Remove, e)
		}
	}
	return out
}

// digest folds the graph, the pool with its algorithm assignment, the
// schedule and the mutation batches into one number, printed in every
// report so a parent/change pair can be shown to have run the same inputs.
func (in *inputs) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(in.DS.Graph.Digest())
	for _, e := range in.Pool {
		h.Write([]byte(e.URL))
	}
	for _, s := range in.Sched {
		put(uint64(s))
	}
	for _, bt := range in.Batches {
		for _, e := range append(append([]graph.Edge(nil), bt.Add...), bt.Remove...) {
			put(uint64(e.From)<<32 | uint64(e.To))
		}
	}
	return h.Sum64()
}
