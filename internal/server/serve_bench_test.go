package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// BenchmarkServeQuery times one /query through the whole handler stack,
// from query-string decode to JSON encode (no network): bkws, k=10, on
// the most frequent label of testServer's 1,200-entity graph. "hit" is
// served from the result cache; "uncached" sends &nocache=1 and evaluates.
func BenchmarkServeQuery(b *testing.B) {
	s, ds := testServer(b)
	base := "/query?q=" + url.QueryEscape(popularTerm(ds)) + "&algo=bkws&k=10"
	for _, c := range []struct{ name, path string }{
		{"hit", base},
		{"uncached", base + "&nocache=1"},
	} {
		b.Run(c.name, func(b *testing.B) {
			serve := func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: %d %s", c.path, rec.Code, rec.Body.String())
				}
			}
			serve() // fills the cache and prepares the evaluator
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
