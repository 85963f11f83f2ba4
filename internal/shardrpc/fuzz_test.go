package shardrpc

import (
	"bytes"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/shard"
)

// seedExpand and seedExpandOK are valid batched frames' payloads, the
// fuzz targets' seeds.
var (
	seedExpand = &shard.ExpandRequest{Level: 3, Slots: []shard.ExpandSlot{
		{Kw: 1, Block: 2, Frontier: []graph.V{4, 5}},
		{Kw: 0, Block: 7, Frontier: []graph.V{9}},
	}}
	seedExpandOK = &shard.ExpandResponse{Slots: []shard.SlotResult{
		{Local: []graph.V{9}, Outbox: []shard.PortalMsg{{V: 3, Block: 1}}, Expanded: 2},
		{Expanded: 1},
	}}
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
	expand := encodeExpand(0xfeed, seedExpand)
	f.Add(frameOf(msgHello, encodeHello(localCaps)))
	f.Add(frameOf(msgHelloOK, encodeHelloOKCaps(HelloInfo{Digest: 1, Blocks: 2, BlockSize: 3, Vertices: 4}, localCaps)))
	f.Add(frameOf(msgExpand, appendTelemetry(expand, tel)))
	f.Add(frameOf(msgExpandOK, appendSummary(encodeExpandOK(seedExpandOK), []byte(`{"span":{}}`))))
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

// FuzzDecodeExpand feeds arbitrary payloads to the batched Expand request
// and response decoders — bytes from the network, including slot counts
// far beyond what the payload holds. Nothing may panic, and allocation is
// bounded by the payload (every slot takes at least 12 bytes). A payload
// that decodes must re-encode to its own leading bytes (the telemetry or
// summary tail, if any, follows them): the batch has one encoding.
func FuzzDecodeExpand(f *testing.F) {
	tel := &Telemetry{TraceID: "t-1", ParentSpan: "query>Search", Sampled: true}
	f.Add(encodeExpand(0xfeed, seedExpand))
	f.Add(appendTelemetry(encodeExpand(0xfeed, seedExpand), tel))
	f.Add(encodeExpand(1, &shard.ExpandRequest{}))
	f.Add(encodeExpandOK(seedExpandOK))
	f.Add(appendSummary(encodeExpandOK(seedExpandOK), []byte(`{"span":{}}`)))
	f.Add(encodeExpandOK(&shard.ExpandResponse{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, p []byte) {
		if digest, req, _, err := decodeExpandFull(p); err == nil {
			if !bytes.HasPrefix(p, encodeExpand(digest, req)) {
				t.Fatalf("request %+v does not re-encode to its own bytes", req)
			}
		}
		if resp, _, err := decodeExpandOKFull(p); err == nil {
			if !bytes.HasPrefix(p, encodeExpandOK(resp)) {
				t.Fatalf("response %+v does not re-encode to its own bytes", resp)
			}
		}
	})
}
