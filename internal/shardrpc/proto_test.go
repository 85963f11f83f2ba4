package shardrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"bigindex/internal/graph"
	"bigindex/internal/search"
	"bigindex/internal/shard"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, msgExpand, 42, payload); err != nil {
			t.Fatal(err)
		}
		fr, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if fr.msgType != msgExpand || fr.reqID != 42 || !bytes.Equal(fr.payload, payload) {
			t.Fatalf("round trip mangled frame: %+v", fr)
		}
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgHelloOK, 7, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit in every body byte position in turn: the CRC must
	// catch each one.
	for i := 4; i < len(raw)-4; i++ {
		cp := append([]byte(nil), raw...)
		cp[i] ^= 0x10
		if _, err := readFrame(bytes.NewReader(cp)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestReadFrameRejectsHostileHeaders(t *testing.T) {
	mk := func(bodyLen uint32, body []byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, bodyLen)
		out = append(out, body...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	cases := map[string][]byte{
		"zero length":      mk(0, nil),
		"sub-header":       mk(8, bytes.Repeat([]byte{1}, 8)),
		"oversized length": mk(maxFrame+1, nil),
		"zero msg type":    mk(9, append([]byte{0}, make([]byte, 8)...)),
		"unknown msg type": mk(9, append([]byte{msgTypeCount}, make([]byte, 8)...)),
	}
	for name, raw := range cases {
		if _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Truncated stream: header promises more than arrives.
	raw := mk(100, nil)
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestHelloCodec(t *testing.T) {
	want := HelloInfo{Digest: 0xDEADBEEFCAFE, Blocks: 17, BlockSize: 200, Vertices: 123456}
	got, caps, err := decodeHelloOKCaps(encodeHelloOK(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want || caps != 0 {
		t.Fatalf("got %+v caps %#x, want %+v caps 0", got, caps, want)
	}
}

func TestExpandCodec(t *testing.T) {
	for _, req := range []*shard.ExpandRequest{
		{Level: 3, Slots: []shard.ExpandSlot{
			{Kw: 2, Block: 5, Frontier: []graph.V{1, 9, 200000}},
			{Kw: 0, Block: 1, Frontier: []graph.V{4}},
		}},
		{Level: 0, Slots: []shard.ExpandSlot{{Kw: 0, Block: 0, Frontier: nil}}},
		{Level: 1},
	} {
		digest, got, tel, err := decodeExpandFull(encodeExpand(0x1234, req))
		if err != nil {
			t.Fatal(err)
		}
		if digest != 0x1234 || !reflect.DeepEqual(got, req) || tel != nil {
			t.Fatalf("got (%x, %+v) want (1234, %+v)", digest, got, req)
		}
	}
}

func TestExpandOKCodec(t *testing.T) {
	for _, resp := range []*shard.ExpandResponse{
		{Slots: []shard.SlotResult{
			{Local: []graph.V{3, 4}, Outbox: []shard.PortalMsg{{V: 9, Block: 1}, {V: 10, Block: 0}}, Expanded: 7},
			{Local: nil, Outbox: nil, Expanded: 0},
		}},
		{Slots: []shard.SlotResult{}},
	} {
		got, summary, err := decodeExpandOKFull(encodeExpandOK(resp))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, resp) || summary != nil {
			t.Fatalf("got %+v want %+v", got, resp)
		}
	}
}

func TestVerifyCodec(t *testing.T) {
	req := &shard.VerifyRequest{Labels: []graph.Label{1, 2, 3}, DMax: 4, Roots: []graph.V{7, 8}}
	digest, got, tel, err := decodeVerifyFull(encodeVerify(99, req))
	if err != nil {
		t.Fatal(err)
	}
	if digest != 99 || !reflect.DeepEqual(got, req) || tel != nil {
		t.Fatalf("got (%d, %+v)", digest, got)
	}
}

func TestVerifyOKCodecRecomputesScore(t *testing.T) {
	resp := &shard.VerifyResponse{
		Verified: 3,
		Matches: []search.Match{
			{Root: 5, Dists: []int{0, 2, 1}, Score: 3, Nodes: []graph.V{5, 6, 7}},
			{Root: 9, Dists: []int{1}, Score: 1, Nodes: []graph.V{9}},
		},
	}
	got, summary, err := decodeVerifyOKFull(encodeVerifyOK(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) || summary != nil {
		t.Fatalf("got %+v want %+v", got, resp)
	}
}

func TestErrCodec(t *testing.T) {
	err := decodeErr(encodeErr(ErrCodeStale, "digest mismatch"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeStale || re.Msg != "digest mismatch" {
		t.Fatalf("got %v", err)
	}
}

// TestVerifyOKCountBoundsAllocation decodes VerifyOK payloads whose match
// count is as large as the payload admits: 4 bytes per match, which no
// match can be (it fails after allocating), and the true 12-byte minimum
// (it decodes). Either way the bytes allocated stay within 6× the payload:
// a Match is 64 bytes, so bounding the count by 4-byte elements would let
// a hostile count allocate 16× the frame.
func TestVerifyOKCountBoundsAllocation(t *testing.T) {
	const body = 12 * 100_000
	for _, tc := range []struct {
		count int
		ok    bool
	}{{body / 4, false}, {body / minMatchWire, true}} {
		var e enc
		e.u32(0) // verified
		e.u32(uint32(tc.count))
		p := append(e.b, make([]byte, body)...) // zero root, no dists, no nodes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, _, err := decodeVerifyOKFull(p)
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Fatalf("count %d: err = %v, want ok = %v", tc.count, err, tc.ok)
		}
		if tc.ok && len(resp.Matches) != tc.count {
			t.Fatalf("count %d: decoded %d matches", tc.count, len(resp.Matches))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 6*uint64(len(p)) {
			t.Fatalf("count %d: decoding %d bytes allocated %d", tc.count, len(p), alloc)
		}
	}
}

// TestDecoderRejectsHostileCounts pins the allocation guard: a length
// prefix claiming far more elements than the payload holds must fail
// cleanly instead of allocating gigabytes — slot counts and the counts
// inside a slot alike.
func TestDecoderRejectsHostileCounts(t *testing.T) {
	var e enc
	e.u32(0x7FFFFFFF) // slot count way beyond the bytes that follow
	e.u32(1)
	if _, _, err := decodeExpandOKFull(e.b); err == nil {
		t.Fatal("hostile response slot count accepted")
	}
	e = enc{}
	e.u32(1)          // one slot...
	e.u32(0x7FFFFFFF) // ...whose Local count is way beyond the bytes that follow
	e.u32(1)
	if _, _, err := decodeExpandOKFull(e.b); err == nil {
		t.Fatal("hostile element count accepted")
	}
	e = enc{}
	e.u64(1)          // digest
	e.u32(0)          // level
	e.u32(0x7FFFFFFF) // slot count
	e.u32(1)
	if _, _, _, err := decodeExpandFull(e.b); err == nil {
		t.Fatal("hostile request slot count accepted")
	}
	// Truncated payloads across every codec.
	full := encodeExpandOK(&shard.ExpandResponse{Slots: []shard.SlotResult{{Local: []graph.V{1, 2, 3}, Expanded: 3}}})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := decodeExpandOKFull(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	req := encodeExpand(1, &shard.ExpandRequest{Slots: []shard.ExpandSlot{{Block: 2, Frontier: []graph.V{5, 6}}}})
	for cut := 1; cut < len(req); cut++ {
		if _, _, _, err := decodeExpandFull(req[:cut]); err == nil {
			t.Fatalf("request truncation at %d accepted", cut)
		}
	}
}
