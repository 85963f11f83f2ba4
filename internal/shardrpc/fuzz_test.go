package shardrpc

import (
	"bytes"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/shard"
)

// FuzzReadFrame feeds arbitrary bytes to the decoders that face the
// network: the frame reader, and every payload decoder (hello and
// capability tail, requests with the telemetry tail, responses with the
// summary tail, errors, stats). The payload decoders see the input both
// raw and, when it frames, unwrapped — the CRC would otherwise keep
// mutated payloads from ever reaching them. Nothing may panic; allocation
// is bounded by maxFrame in readFrame and by the remaining payload in
// dec.count. A frame that decodes must re-encode to the bytes it came
// from — the framing has one encoding.
func FuzzReadFrame(f *testing.F) {
	frameOf := func(mt byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, mt, 7, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	tel := &Telemetry{TraceID: "t-1", ParentSpan: "query>Search", Sampled: true}
	expand := encodeExpand(0xfeed, &shard.ExpandRequest{Kw: 1, Block: 2, Level: 3, Frontier: []graph.V{4, 5}})
	f.Add(frameOf(msgHello, encodeHello(localCaps)))
	f.Add(frameOf(msgHelloOK, encodeHelloOKCaps(HelloInfo{Digest: 1, Blocks: 2, BlockSize: 3, Vertices: 4}, localCaps)))
	f.Add(frameOf(msgExpand, appendTelemetry(expand, tel)))
	f.Add(frameOf(msgExpandOK, appendSummary(encodeExpandOK(&shard.ExpandResponse{Kw: 1, Local: []graph.V{9}}), []byte(`{"span":{}}`))))
	f.Add(frameOf(msgErr, encodeErr(ErrCodeStale, "stale")))
	f.Add(appendTelemetry(expand, tel))
	f.Add(encodeStatsOK(StatsInfo{Digest: "d", Blocks: 2}))

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads := [][]byte{data}
		if fr, err := readFrame(bytes.NewReader(data)); err == nil {
			var again bytes.Buffer
			if err := writeFrame(&again, fr.msgType, fr.reqID, fr.payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), data[:again.Len()]) {
				t.Fatalf("frame does not re-encode to its own bytes")
			}
			payloads = append(payloads, fr.payload)
		}
		for _, p := range payloads {
			decodeHelloCaps(p)
			decodeHelloOKCaps(p)
			decodeExpandFull(p)
			decodeVerifyFull(p)
			decodeExpandOKFull(p)
			decodeVerifyOKFull(p)
			decodeErr(p)
			decodeStatsOK(p)
		}
	})
}
